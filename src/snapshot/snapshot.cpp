#include "snapshot/snapshot.h"

#include <fcntl.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>

#include "common/assert.h"
#include "common/bytes.h"
#include "common/crc32.h"
#include "logstore/record.h"
#include "nn/serialize.h"
#include "obs/metrics.h"
#include "obs/timer.h"
#include "predictor/exit_net.h"
#include "telemetry/archive.h"

namespace lingxi::snapshot {

using telemetry::CaptureSegment;

namespace {

// State-file record type tags (leading u32 of every record payload).
constexpr std::uint32_t kUserStateRecord = 1;
constexpr std::uint32_t kCaptureCursorRecord = 2;

// Largest fleet a snapshot may claim (16M users): load_snapshot pre-sizes
// the user-state table from the manifest, so the count must be bounded
// before it drives an allocation — a corrupt count surfaces as
// Error::kCorrupt, never as bad_alloc.
constexpr std::uint64_t kMaxSnapshotUsers = 1u << 24;

// Vectors ride as u64 count + f64s.
void put_vector(std::vector<unsigned char>& p, const std::vector<double>& v) {
  put_u64(p, v.size());
  put_f64s(p, v);
}

std::vector<double> get_vector(ByteReader& in) { return in.f64s(in.u64()); }

std::vector<unsigned char> encode_capture_cursor(
    std::uint64_t user, const telemetry::ShardedCapture::CaptureCursor& cursor) {
  std::vector<unsigned char> p;
  put_u32(p, kCaptureCursorRecord);
  put_u64(p, user);
  put_u64(p, cursor.records);
  put_u64(p, cursor.next_expected_at_least);
  put_u64(p, cursor.byte_count());
  return p;
}

/// A decoded cursor record: the counters, and the byte length the segment
/// table must supply.
struct CursorRecord {
  std::uint64_t user = 0;
  telemetry::ShardedCapture::CaptureCursor cursor;
  std::uint64_t byte_count = 0;
};

Expected<CursorRecord> decode_capture_cursor(ByteSpan payload) {
  ByteReader in(payload);
  in.u32();  // type tag
  CursorRecord r;
  r.user = in.u64();
  r.cursor.records = in.u64();
  r.cursor.next_expected_at_least = in.u64();
  r.byte_count = in.u64();
  if (!in.ok()) return Error::corrupt("truncated capture cursor record");
  if (!in.done()) return Error::corrupt("trailing bytes in capture cursor record");
  return r;
}

/// The 19 integer fields of FleetAccumulator in declaration order — the same
/// serialization checksum() hashes (overflow latch last).
void put_accumulator(std::vector<unsigned char>& p, const sim::FleetAccumulator& acc) {
  for (std::uint64_t v :
       {acc.sessions, acc.completed, acc.measured_sessions, acc.measured_completed,
        acc.stall_events, acc.stall_exits, acc.quality_switches, acc.users,
        static_cast<std::uint64_t>(acc.watch_ticks),
        static_cast<std::uint64_t>(acc.stall_ticks),
        static_cast<std::uint64_t>(acc.startup_ticks),
        static_cast<std::uint64_t>(acc.bitrate_time_ticks), acc.lingxi_triggers,
        acc.lingxi_optimizations, acc.lingxi_pruned_preplay, acc.lingxi_mc_evaluations,
        acc.lingxi_mc_rollouts_pruned, acc.adjusted_user_days, acc.overflowed}) {
    put_u64(p, v);
  }
}

sim::FleetAccumulator get_accumulator(ByteReader& in) {
  sim::FleetAccumulator acc;
  for (std::uint64_t* v :
       {&acc.sessions, &acc.completed, &acc.measured_sessions, &acc.measured_completed,
        &acc.stall_events, &acc.stall_exits, &acc.quality_switches, &acc.users}) {
    *v = in.u64();
  }
  for (std::int64_t* v :
       {&acc.watch_ticks, &acc.stall_ticks, &acc.startup_ticks, &acc.bitrate_time_ticks}) {
    *v = static_cast<std::int64_t>(in.u64());
  }
  for (std::uint64_t* v :
       {&acc.lingxi_triggers, &acc.lingxi_optimizations, &acc.lingxi_pruned_preplay,
        &acc.lingxi_mc_evaluations, &acc.lingxi_mc_rollouts_pruned, &acc.adjusted_user_days,
        &acc.overflowed}) {
    *v = in.u64();
  }
  return acc;
}

struct Manifest {
  std::uint64_t seed = 0;
  std::uint32_t resume_digest = 0;
  std::uint64_t users = 0;
  std::uint64_t next_day = 0;
  std::uint64_t users_per_shard = 0;
  bool has_net = false;
  std::uint32_t net_crc = 0;
  bool has_capture = false;
  sim::FleetAccumulator accumulated;
  struct Shard {
    std::uint64_t first_user = 0;
    std::uint64_t user_count = 0;
    std::uint64_t byte_count = 0;
    std::uint32_t crc = 0;
  };
  std::vector<Shard> shards;
  std::vector<CaptureSegment> segments;  ///< has_capture only
};

std::vector<unsigned char> encode_manifest(const Manifest& m) {
  std::vector<unsigned char> p;
  put_u32(p, kSnapshotFormatVersion);
  put_u64(p, m.seed);
  put_u32(p, m.resume_digest);
  put_u64(p, m.users);
  put_u64(p, m.next_day);
  put_u64(p, m.users_per_shard);
  put_u32(p, m.has_net ? 1u : 0u);
  put_u32(p, m.net_crc);
  put_u32(p, m.has_capture ? 1u : 0u);
  put_accumulator(p, m.accumulated);
  put_u64(p, m.shards.size());
  for (const auto& shard : m.shards) {
    put_u64(p, shard.first_user);
    put_u64(p, shard.user_count);
    put_u64(p, shard.byte_count);
    put_u32(p, shard.crc);
  }
  if (m.has_capture) {
    put_u64(p, m.segments.size());
    for (const auto& seg : m.segments) {
      put_u64(p, seg.first_user);
      put_u64(p, seg.first_day);
      put_u64(p, seg.end_day);
      put_u64(p, seg.byte_count);
      put_u32(p, seg.crc);
      put_u64(p, seg.user_bytes.size());
      for (std::uint64_t b : seg.user_bytes) put_u64(p, b);
    }
  }
  return p;
}

// u64 first_user, user_count, byte_count; u32 crc.
constexpr std::size_t kShardWireSize = 3 * 8 + 4;
// u64 first_user, first_day, end_day, byte_count; u32 crc; u64 user_count
// and at least one per-user count.
constexpr std::size_t kSegmentWireSize = 4 * 8 + 4 + 8 + 8;

/// The segment table after the shard table: bounded, in-fleet, in-calendar,
/// each user's segments in day order without overlap (so no file is listed
/// twice), and each segment's per-user counts summing to its byte count.
Status decode_segments(ByteReader& in, Manifest& m) {
  const std::uint64_t segment_count = in.u64();
  if (!in.ok()) return Error::corrupt("truncated snapshot segment table");
  if (segment_count > kMaxCaptureSegments) {
    return Error::corrupt("capture segment count out of range");
  }
  m.segments.resize(in.count(segment_count, kSegmentWireSize));
  if (!in.ok()) return Error::corrupt("capture segment count exceeds manifest size");
  std::vector<std::uint64_t> logged_until(m.segments.empty() ? 0 : m.users, 0);
  for (auto& seg : m.segments) {
    seg.first_user = in.u64();
    seg.first_day = in.u64();
    seg.end_day = in.u64();
    seg.byte_count = in.u64();
    seg.crc = in.u32();
    const std::uint64_t user_count = in.u64();
    if (!in.ok()) return Error::corrupt("truncated snapshot segment table");
    if (user_count == 0 || user_count > m.users || seg.first_user > m.users - user_count) {
      return Error::corrupt("capture segment users outside the fleet");
    }
    if (seg.first_day >= seg.end_day || seg.end_day > m.next_day) {
      return Error::corrupt("capture segment days outside the snapshot");
    }
    seg.user_bytes.resize(in.count(user_count, 8));
    for (auto& b : seg.user_bytes) b = in.u64();
    if (!in.ok()) return Error::corrupt("capture segment user count exceeds manifest size");
    for (std::uint64_t u = seg.first_user; u < seg.first_user + user_count; ++u) {
      if (seg.first_day < logged_until[u]) {
        return Error::corrupt("capture segments overlap in days");
      }
      logged_until[u] = seg.end_day;
    }
    std::uint64_t left = seg.byte_count;
    for (std::uint64_t b : seg.user_bytes) {
      if (b > left) return Error::corrupt("capture segment per-user counts exceed its size");
      left -= b;
    }
    if (left != 0) return Error::corrupt("capture segment per-user counts do not sum to its size");
  }
  return {};
}

Expected<Manifest> decode_manifest(ByteSpan payload) {
  ByteReader in(payload);
  if (in.u32() != kSnapshotFormatVersion) {
    return Error::corrupt(in.ok() ? "unsupported snapshot format version"
                                  : "truncated snapshot manifest");
  }
  Manifest m;
  m.seed = in.u64();
  m.resume_digest = in.u32();
  m.users = in.u64();
  m.next_day = in.u64();
  m.users_per_shard = in.u64();
  m.has_net = in.u32() != 0;
  m.net_crc = in.u32();
  m.has_capture = in.u32() != 0;
  m.accumulated = get_accumulator(in);
  const std::uint64_t shard_count = in.u64();
  if (!in.ok()) return Error::corrupt("truncated snapshot manifest");
  if (m.users > kMaxSnapshotUsers) {
    return Error::corrupt("snapshot user count out of range");
  }
  m.shards.resize(in.count(shard_count, kShardWireSize));
  if (!in.ok()) return Error::corrupt("snapshot shard count exceeds manifest size");
  for (auto& shard : m.shards) {
    shard.first_user = in.u64();
    shard.user_count = in.u64();
    shard.byte_count = in.u64();
    shard.crc = in.u32();
  }
  if (m.has_capture) {
    if (auto s = decode_segments(in, m); !s) return s.error();
  }
  if (!in.done()) {
    return Error::corrupt("trailing bytes in snapshot manifest");
  }
  // The shard table must tile [0, users) contiguously, or per-user state
  // would be silently missing at resume time.
  std::uint64_t next_user = 0;
  for (const auto& shard : m.shards) {
    if (shard.first_user != next_user || shard.user_count == 0 ||
        shard.user_count > m.users) {
      return Error::corrupt("snapshot shard table does not tile the user range");
    }
    next_user += shard.user_count;  // < 2^22 shards (64 MiB frame) x <= 2^24 users
  }
  if (next_user != m.users) {
    return Error::corrupt("snapshot shard table disagrees with manifest user count");
  }
  return m;
}

}  // namespace

std::string manifest_filename() { return "manifest.lxm"; }

std::string state_filename(std::size_t shard_index) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "state-%04zu.lxst", shard_index);
  return buf;
}

std::string net_filename() { return "net.lxnw"; }

std::string capture_store_dir(const std::string& dir) {
  std::filesystem::path path(dir);
  if (!path.has_filename()) path = path.parent_path();  // "a/b/" names "a/b"
  const std::filesystem::path parent = path.parent_path();
  return ((parent.empty() ? std::filesystem::path(".") : parent) / "capture").string();
}

std::vector<unsigned char> encode_user_state(std::uint64_t user,
                                             const sim::UserFleetState& state) {
  std::vector<unsigned char> p;
  put_u32(p, kUserStateRecord);
  put_u64(p, user);
  for (std::uint64_t word : state.session_rng.s) put_u64(p, word);
  put_f64(p, state.session_rng.cached_normal);
  put_u32(p, state.session_rng.has_cached_normal ? 1u : 0u);
  put_f64(p, state.params.stall_penalty);
  put_f64(p, state.params.switch_penalty);
  put_f64(p, state.params.hyb_beta);
  put_u64(p, state.adjusted_days);
  put_u32(p, state.has_lingxi ? 1u : 0u);
  if (state.has_lingxi) {
    const core::LingXi::PersistentState& lx = state.lingxi;
    put_vector(p, lx.engagement.long_term.stall_durations);
    put_vector(p, lx.engagement.long_term.stall_intervals);
    put_vector(p, lx.engagement.long_term.stall_exit_intervals);
    put_f64(p, lx.engagement.long_term.total_watch_time);
    put_u64(p, lx.engagement.long_term.total_stall_events);
    put_u64(p, lx.engagement.long_term.total_stall_exits);
    put_f64(p, lx.engagement.last_stall_at);
    put_f64(p, lx.engagement.last_stall_exit_at);
    put_vector(p, lx.bandwidth_window);
    put_u64(p, lx.stalls_since_optimization);
    put_u32(p, lx.has_optimized ? 1u : 0u);
    put_f64(p, lx.params.stall_penalty);
    put_f64(p, lx.params.switch_penalty);
    put_f64(p, lx.params.hyb_beta);
    put_u64(p, lx.stats.triggers);
    put_u64(p, lx.stats.optimizations_run);
    put_u64(p, lx.stats.pruned_preplay);
    put_u64(p, lx.stats.mc_evaluations);
    put_u64(p, lx.stats.mc_rollouts_pruned);
  }
  return p;
}

Expected<std::pair<std::uint64_t, sim::UserFleetState>> decode_user_state(ByteSpan payload) {
  ByteReader in(payload);
  in.u32();  // type tag
  const std::uint64_t user = in.u64();
  sim::UserFleetState state;
  for (auto& word : state.session_rng.s) word = in.u64();
  state.session_rng.cached_normal = in.f64();
  state.session_rng.has_cached_normal = in.u32() != 0;
  state.params.stall_penalty = in.f64();
  state.params.switch_penalty = in.f64();
  state.params.hyb_beta = in.f64();
  state.adjusted_days = in.u64();
  state.has_lingxi = in.u32() != 0;
  if (state.has_lingxi) {
    core::LingXi::PersistentState& lx = state.lingxi;
    lx.engagement.long_term.stall_durations = get_vector(in);
    lx.engagement.long_term.stall_intervals = get_vector(in);
    lx.engagement.long_term.stall_exit_intervals = get_vector(in);
    lx.engagement.long_term.total_watch_time = in.f64();
    lx.engagement.long_term.total_stall_events = in.u64();
    lx.engagement.long_term.total_stall_exits = in.u64();
    lx.engagement.last_stall_at = in.f64();
    lx.engagement.last_stall_exit_at = in.f64();
    lx.bandwidth_window = get_vector(in);
    lx.stalls_since_optimization = in.u64();
    lx.has_optimized = in.u32() != 0;
    lx.params.stall_penalty = in.f64();
    lx.params.switch_penalty = in.f64();
    lx.params.hyb_beta = in.f64();
    lx.stats.triggers = in.u64();
    lx.stats.optimizations_run = in.u64();
    lx.stats.pruned_preplay = in.u64();
    lx.stats.mc_evaluations = in.u64();
    lx.stats.mc_rollouts_pruned = in.u64();
  }
  if (!in.ok()) return Error::corrupt("truncated user state record");
  if (!in.done()) return Error::corrupt("trailing bytes in user state record");
  return std::make_pair(user, std::move(state));
}

RunConstants run_constants(const sim::FleetRunner& runner, std::uint64_t seed) {
  const sim::FleetConfig& config = runner.config();
  RunConstants run;
  run.seed = seed;
  run.resume_digest = resume_digest(config);
  if (config.enable_lingxi && runner.predictor_factory() != nullptr) {
    // The fleet's predictor factory is pure configuration (every call yields
    // equivalent weights), so one serialized net covers every per-user /
    // per-shard deep copy.
    predictor::HybridExitPredictor predictor = runner.predictor_factory()();
    run.net_model = nn::serialize_model(nn::kModelKindStallExitNet, predictor.net().weights());
    run.net_crc = crc32(run.net_model.data(), run.net_model.size());
  }
  return run;
}

Expected<FleetSnapshot> capture_snapshot(const sim::FleetRunner& runner,
                                         std::uint64_t seed, sim::FleetDayState state,
                                         const telemetry::ShardedCapture* capture) {
  const sim::FleetConfig& config = runner.config();
  if (state.users.size() != config.users) {
    return Error::invalid_arg("day state user count disagrees with fleet config");
  }
  if (state.next_day == 0) {
    return Error::invalid_arg("day state is not a resumable day boundary");
  }
  RunConstants run = run_constants(runner, seed);
  FleetSnapshot snapshot;
  snapshot.seed = run.seed;
  snapshot.resume_digest = run.resume_digest;
  snapshot.state = std::move(state);
  snapshot.net_model = std::move(run.net_model);
  if (capture != nullptr) {
    snapshot.has_capture = true;
    snapshot.capture = capture->position();
    if (snapshot.capture.cursors.size() != config.users) {
      return Error::invalid_arg("capture user count disagrees with fleet config");
    }
  }
  return snapshot;
}

namespace {

// renameat2 flag value (RENAME_EXCHANGE); spelled out because <fcntl.h> only
// defines it with _GNU_SOURCE and the raw syscall needs just the number.
constexpr unsigned int kRenameExchange = 1u << 1;

SaveCommitHook g_save_commit_hook = nullptr;

/// The injected-crash result: save stops right here, cleanup included, so
/// the on-disk state is exactly what a real crash at this stage leaves.
Status simulated_crash() {
  return Error::io("snapshot commit aborted by commit hook (simulated crash)");
}

bool commit_stage(SaveStage stage) {
  return g_save_commit_hook == nullptr || g_save_commit_hook(stage);
}

/// Atomically replace `dir` with the fully staged, durable `staging`
/// directory. The previous snapshot at `dir` (if any) survives every torn
/// interleaving: fresh target -> one rename; existing target -> renameat2
/// RENAME_EXCHANGE when the kernel/filesystem supports it (no window at
/// all), else rename-aside (`dir` -> `dir`.old, staging -> `dir`) whose
/// only crash window leaves the old snapshot under `.old` and the new one
/// complete under `.tmp` — both content-validated candidates for
/// find_latest_valid.
Status commit_directory(const std::string& staging, const std::string& dir) {
  std::error_code ec;
  const bool target_exists = std::filesystem::exists(dir, ec);
  if (ec) return Error::io("cannot stat snapshot directory: " + dir);
  if (!target_exists) {
    if (std::rename(staging.c_str(), dir.c_str()) != 0) {
      return Error::io("snapshot commit rename failed: " + staging + " -> " + dir);
    }
  } else {
    bool exchanged = false;
#if defined(__linux__) && defined(SYS_renameat2)
    if (::syscall(SYS_renameat2, AT_FDCWD, staging.c_str(), AT_FDCWD, dir.c_str(),
                  kRenameExchange) == 0) {
      // `staging` now holds the superseded snapshot; best-effort cleanup (a
      // leftover is a valid, older candidate that recovery simply outranks).
      exchanged = true;
      std::filesystem::remove_all(staging, ec);
    }
#endif
    if (!exchanged) {
      const std::string old = dir + ".old";
      std::filesystem::remove_all(old, ec);
      if (ec) return Error::io("cannot clear stale snapshot: " + old);
      if (std::rename(dir.c_str(), old.c_str()) != 0) {
        return Error::io("snapshot commit rename-aside failed: " + dir + " -> " + old);
      }
      if (std::rename(staging.c_str(), dir.c_str()) != 0) {
        return Error::io("snapshot commit rename failed: " + staging + " -> " + dir);
      }
      std::filesystem::remove_all(old, ec);  // best-effort; stale .old is inert
    }
  }
  // Final durability point: the parent directory entry for `dir`.
  const std::filesystem::path parent = std::filesystem::path(dir).parent_path();
  return fsync_directory(parent.empty() ? "." : parent.string());
}

}  // namespace

void set_save_commit_hook(SaveCommitHook hook) { g_save_commit_hook = hook; }

namespace {

using Cursors = std::vector<telemetry::ShardedCapture::CaptureCursor>;

/// What one commit writes, borrowed from the caller.
struct Parts {
  std::uint64_t seed;
  std::uint32_t resume_digest;
  const sim::FleetDayState& state;
  const std::vector<unsigned char>& net_model;
  std::uint32_t net_crc;
  /// Null without capture; else one cursor per user and the committed table.
  const Cursors* cursors;
  const std::vector<CaptureSegment>* segments;
};

/// Count the capture bytes a commit appended to the store.
void count_logged(std::uint64_t written) {
  if (obs::Registry* reg = obs::Registry::active()) {
    reg->add("snapshot.capture_log.bytes", written);
  }
}

Status stage_snapshot(const Parts& parts, const std::string& dir, std::size_t users_per_shard) {
  Manifest manifest;
  manifest.seed = parts.seed;
  manifest.resume_digest = parts.resume_digest;
  manifest.users = parts.state.users.size();
  manifest.next_day = parts.state.next_day;
  manifest.users_per_shard = users_per_shard;
  manifest.has_capture = parts.cursors != nullptr;
  manifest.accumulated = parts.state.accumulated;
  if (parts.segments != nullptr) manifest.segments = *parts.segments;
  {
    OBS_TIMED("snapshot.save.state_us");
    if (!parts.net_model.empty()) {
      manifest.has_net = true;
      manifest.net_crc = parts.net_crc;
      if (auto s = write_file(dir + "/" + net_filename(), parts.net_model); !s) return s;
    }

    const std::size_t users = parts.state.users.size();
    const std::size_t shard_count = (users + users_per_shard - 1) / users_per_shard;
    manifest.shards.resize(shard_count);
    for (std::size_t s = 0; s < shard_count; ++s) {
      const std::size_t first = s * users_per_shard;
      const std::size_t last = std::min(first + users_per_shard, users);
      std::vector<unsigned char> bytes;
      for (std::size_t u = first; u < last; ++u) {
        logstore::write_record(bytes, encode_user_state(u, parts.state.users[u]));
        if (parts.cursors != nullptr) {
          logstore::write_record(bytes, encode_capture_cursor(u, (*parts.cursors)[u]));
        }
      }
      auto& info = manifest.shards[s];
      info.first_user = first;
      info.user_count = last - first;
      info.byte_count = bytes.size();
      info.crc = crc32(bytes.data(), bytes.size());
      if (auto st = write_file(dir + "/" + state_filename(s), bytes); !st) {
        return st;
      }
    }
  }

  if (!commit_stage(SaveStage::kStateFilesStaged)) return simulated_crash();

  // The manifest is written LAST: a directory holding a valid manifest is
  // complete by construction, which is what lets recovery content-validate
  // `.tmp`/`.old` leftovers as first-class candidates.
  {
    OBS_TIMED("snapshot.save.manifest_us");
    std::vector<unsigned char> framed;
    logstore::write_record(framed, encode_manifest(manifest));
    if (auto s = write_file(dir + "/" + manifest_filename(), framed); !s) {
      return s;
    }
  }
  if (!commit_stage(SaveStage::kManifestStaged)) return simulated_crash();
  return {};
}

/// Both save_snapshot forms once their capture segments are durable (they
/// must be before any manifest can list them): the staged directory and its
/// commit.
Status commit_snapshot(const Parts& parts, const std::string& dir,
                       std::size_t users_per_shard) {
  const std::string staging = dir + ".tmp";
  std::error_code ec;
  std::filesystem::remove_all(staging, ec);
  if (ec) return Error::io("cannot clear stale snapshot staging: " + staging);
  std::filesystem::create_directories(staging, ec);
  if (ec) return Error::io("cannot create snapshot staging directory: " + staging);
  if (auto s = stage_snapshot(parts, staging, users_per_shard); !s) return s;
  {
    OBS_TIMED("snapshot.save.durable_us");
    if (auto s = fsync_directory(staging); !s) return s;
  }
  if (!commit_stage(SaveStage::kStagingDurable)) return simulated_crash();
  {
    OBS_TIMED("snapshot.save.commit_us");
    if (auto s = commit_directory(staging, dir); !s) return s;
  }
  commit_stage(SaveStage::kCommitted);
  return {};
}

/// Read and decode `dir`'s manifest.
Expected<Manifest> read_manifest(const std::string& dir) {
  auto manifest_bytes = read_file(dir + "/" + manifest_filename());
  if (!manifest_bytes) return manifest_bytes.error();
  std::size_t pos = 0;
  auto payload = logstore::read_record(*manifest_bytes, pos);
  if (!payload) return payload.error();
  if (pos != manifest_bytes->size()) {
    return Error::corrupt("trailing bytes after snapshot manifest");
  }
  return decode_manifest(*payload);
}

/// Check every segment the manifest lists against the store without holding
/// any: present at its listed size, each user's slices summing to its cursor
/// length (`byte_counts`), then every CRC, streamed.
Status check_segments(const std::string& store, const Manifest& m,
                      const std::vector<std::uint64_t>& byte_counts) {
  OBS_TIMED("snapshot.load.capture_us");
  std::vector<std::string> paths;
  paths.reserve(m.segments.size());
  std::vector<std::uint64_t> listed(byte_counts.size(), 0);
  for (const CaptureSegment& seg : m.segments) {
    paths.push_back(store + "/" + telemetry::segment_filename(m.seed, m.resume_digest, seg));
    std::error_code ec;
    const std::uintmax_t size = std::filesystem::file_size(paths.back(), ec);
    if (ec) return Error::corrupt("listed capture segment is missing: " + paths.back());
    if (size != seg.byte_count) {
      return Error::corrupt("capture segment size disagrees with manifest: " + paths.back());
    }
    for (std::size_t i = 0; i < seg.user_bytes.size(); ++i) {
      listed[seg.first_user + i] += seg.user_bytes[i];
    }
  }
  if (listed != byte_counts) {
    return Error::corrupt("capture cursor length disagrees with the segment table");
  }
  for (std::size_t k = 0; k < m.segments.size(); ++k) {
    if (auto s = telemetry::read_segment(paths[k], m.segments[k], nullptr); !s) return s;
  }
  return {};
}

}  // namespace

Status save_snapshot(const FleetSnapshot& snapshot, const std::string& dir,
                     std::size_t users_per_shard) {
  OBS_SPAN("snapshot.save");
  OBS_TIMED("snapshot.save.total_us");
  if (users_per_shard == 0) return Error::invalid_arg("users_per_shard must be >= 1");
  telemetry::CaptureLog log;
  if (snapshot.has_capture) {
    const Cursors& cursors = snapshot.capture.cursors;
    if (cursors.size() != snapshot.state.users.size()) {
      return Error::invalid_arg("capture cursor count disagrees with user state count");
    }
    OBS_TIMED("snapshot.save.capture_us");
    log = snapshot.capture.log;
    auto written =
        telemetry::append_segments(cursors, users_per_shard, snapshot.seed,
                                   snapshot.resume_digest, snapshot.state.next_day,
                                   capture_store_dir(dir), log);
    if (!written) return written.error();
    count_logged(*written);
  }
  const Parts parts{snapshot.seed,
                    snapshot.resume_digest,
                    snapshot.state,
                    snapshot.net_model,
                    snapshot.net_model.empty()
                        ? 0u
                        : crc32(snapshot.net_model.data(), snapshot.net_model.size()),
                    snapshot.has_capture ? &snapshot.capture.cursors : nullptr,
                    &log.segments};
  return commit_snapshot(parts, dir, users_per_shard);
}

Status save_snapshot(const RunConstants& run, const sim::FleetDayState& state,
                     const std::string& dir, std::size_t users_per_shard,
                     telemetry::ShardedCapture* capture) {
  OBS_SPAN("snapshot.save");
  OBS_TIMED("snapshot.save.total_us");
  if (users_per_shard == 0) return Error::invalid_arg("users_per_shard must be >= 1");
  if (capture != nullptr) {
    if (capture->cursors().size() != state.users.size()) {
      return Error::invalid_arg("capture cursor count disagrees with user state count");
    }
    OBS_TIMED("snapshot.save.capture_us");
    auto written = capture->commit(capture_store_dir(dir), state.next_day);
    if (!written) return written.error();
    count_logged(*written);
  }
  const Parts parts{run.seed,
                    run.resume_digest,
                    state,
                    run.net_model,
                    run.net_crc,
                    capture != nullptr ? &capture->cursors() : nullptr,
                    capture != nullptr ? &capture->log().segments : nullptr};
  return commit_snapshot(parts, dir, users_per_shard);
}

Expected<std::vector<std::string>> listed_segment_files(const std::string& dir) {
  auto manifest = read_manifest(dir);
  if (!manifest) return manifest.error();
  std::vector<std::string> names;
  for (const CaptureSegment& seg : manifest->segments) {
    names.push_back(segment_filename(manifest->seed, manifest->resume_digest, seg));
  }
  return names;
}

Expected<FleetSnapshot> load_snapshot(const std::string& dir) {
  OBS_SPAN("snapshot.load");
  OBS_TIMED("snapshot.load.total_us");
  auto manifest = read_manifest(dir);
  if (!manifest) return manifest.error();

  FleetSnapshot snapshot;
  snapshot.seed = manifest->seed;
  snapshot.resume_digest = manifest->resume_digest;
  snapshot.state.next_day = static_cast<std::size_t>(manifest->next_day);
  snapshot.state.accumulated = manifest->accumulated;
  snapshot.state.users.assign(static_cast<std::size_t>(manifest->users),
                              sim::UserFleetState{});
  snapshot.has_capture = manifest->has_capture;
  std::vector<std::uint64_t> byte_counts;
  if (manifest->has_capture) {
    snapshot.capture.cursors.assign(snapshot.state.users.size(),
                                    telemetry::ShardedCapture::CaptureCursor{});
    byte_counts.assign(snapshot.state.users.size(), 0);
  }

  if (manifest->has_net) {
    auto net = read_file(dir + "/" + net_filename());
    if (!net) return net.error();
    if (crc32(net->data(), net->size()) != manifest->net_crc) {
      return Error::corrupt("snapshot net container CRC mismatch");
    }
    // Validate the container end to end now, not at resume time inside a
    // predictor factory that has no error channel: the frame, then that its
    // tensors fit the net (count, shapes, finite values).
    auto tensors = nn::deserialize_model(nn::kModelKindStallExitNet, *net);
    if (!tensors) return tensors.error();
    if (auto fits = predictor::StallExitNet::validate_weights(*tensors); !fits) {
      return fits.error();
    }
    snapshot.net_model = std::move(*net);
  }

  for (std::size_t s = 0; s < manifest->shards.size(); ++s) {
    const auto& info = manifest->shards[s];
    const std::string path = dir + "/" + state_filename(s);
    auto bytes = read_file(path);
    if (!bytes) return bytes.error();
    if (bytes->size() != info.byte_count ||
        crc32(bytes->data(), bytes->size()) != info.crc) {
      return Error::corrupt("snapshot state file disagrees with manifest: " + path);
    }
    std::size_t shard_pos = 0;
    for (std::uint64_t u = info.first_user; u < info.first_user + info.user_count; ++u) {
      auto record = logstore::read_record(*bytes, shard_pos);
      if (!record) return record.error();
      if (logstore::record_type(*record) != kUserStateRecord) {
        return Error::corrupt("unexpected record type in snapshot state file");
      }
      auto user_state = decode_user_state(*record);
      if (!user_state) return user_state.error();
      if (user_state->first != u) {
        return Error::corrupt("snapshot user state out of order");
      }
      snapshot.state.users[static_cast<std::size_t>(u)] = std::move(user_state->second);
      if (manifest->has_capture) {
        auto cursor_record = logstore::read_record(*bytes, shard_pos);
        if (!cursor_record) return cursor_record.error();
        if (logstore::record_type(*cursor_record) != kCaptureCursorRecord) {
          return Error::corrupt("missing capture cursor record");
        }
        auto cursor = decode_capture_cursor(*cursor_record);
        if (!cursor) return cursor.error();
        if (cursor->user != u) return Error::corrupt("capture cursor out of order");
        cursor->cursor.logged = cursor->byte_count;
        snapshot.capture.cursors[static_cast<std::size_t>(u)] = std::move(cursor->cursor);
        byte_counts[static_cast<std::size_t>(u)] = cursor->byte_count;
      }
    }
    if (shard_pos != bytes->size()) {
      return Error::corrupt("trailing bytes in snapshot state file: " + path);
    }
  }
  if (manifest->has_capture) {
    snapshot.capture.log.store = capture_store_dir(dir);
    if (auto s = check_segments(snapshot.capture.log.store, *manifest, byte_counts); !s) {
      return s.error();
    }
    snapshot.capture.log.segments = std::move(manifest->segments);
  }
  return snapshot;
}

Status check_compatible(const FleetSnapshot& snapshot, const sim::FleetConfig& config,
                        std::uint64_t seed) {
  if (snapshot.seed != seed) return Error::invalid_arg("snapshot seed mismatch");
  if (snapshot.state.users.size() != config.users) {
    return Error::invalid_arg("snapshot user count disagrees with fleet config");
  }
  if (snapshot.resume_digest != resume_digest(config)) {
    return Error::invalid_arg("snapshot config digest mismatch");
  }
  if (snapshot.state.next_day >= config.days) {
    return Error::invalid_arg("snapshot day boundary is past the configured horizon");
  }
  return {};
}

sim::FleetRunner::PredictorFactory resume_predictor_factory(
    sim::FleetRunner::PredictorFactory base, std::vector<unsigned char> net_model) {
  if (net_model.empty() || base == nullptr) return base;
  auto tensors = nn::deserialize_model(nn::kModelKindStallExitNet, net_model);
  // load_snapshot validated the container; a hand-built blob must be valid.
  LINGXI_ASSERT(tensors.has_value());
  auto weights = std::make_shared<std::vector<nn::Tensor>>(std::move(*tensors));
  return [base = std::move(base), weights]() {
    predictor::HybridExitPredictor predictor = base();
    const bool loaded = predictor.net().load_weights(*weights);
    LINGXI_ASSERT(loaded);
    return predictor;
  };
}

Status restore_capture(telemetry::ShardedCapture& capture, const sim::FleetConfig& config,
                       std::uint64_t seed, telemetry::ShardedCapture::Position position) {
  if (position.cursors.size() != config.users) {
    return Error::invalid_arg("snapshot capture user count disagrees with fleet config");
  }
  capture.begin_fleet(config, seed);
  capture.restore(std::move(position));
  return {};
}

}  // namespace lingxi::snapshot
