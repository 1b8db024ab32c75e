#include "telemetry/archive.h"

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/bytes.h"
#include "common/crc32.h"
#include "logstore/record.h"

namespace lingxi::telemetry {
namespace {

// Shard record type tags (leading u32 of every shard record payload).
constexpr std::uint32_t kSessionRecord = 1;
constexpr std::uint32_t kUserRecord = 2;

// Fixed prefix of a kSessionRecord: type, user, day, session_in_day,
// measured, three QoE parameters. scan_shard checks the user and day here
// before decoding the embedded trajectory, which the reader is left
// positioned at (and skips that decode when no session callback is set).
struct SessionPrefix {
  std::uint64_t user = 0;
  std::uint32_t day = 0;
  std::uint32_t session_in_day = 0;
  bool measured = false;
  abr::QoeParams params;
};

bool decode_session_prefix(ByteReader& in, SessionPrefix& out) {
  in.u32();  // type tag
  out.user = in.u64();
  out.day = in.u32();
  out.session_in_day = in.u32();
  out.measured = in.u32() != 0;
  out.params.stall_penalty = in.f64();
  out.params.switch_penalty = in.f64();
  out.params.hyb_beta = in.f64();
  return in.ok();
}

Expected<ArchiveSessionRecord> decode_session_record(const SessionPrefix& prefix,
                                                     ByteReader& in) {
  auto entry = logstore::decode_session(in);
  if (!entry) return entry.error();
  ArchiveSessionRecord rec;
  rec.user = prefix.user;
  rec.day = prefix.day;
  rec.session_in_day = prefix.session_in_day;
  rec.measured = prefix.measured;
  rec.params_after = prefix.params;
  rec.entry = std::move(*entry);
  return rec;
}

Expected<ArchiveUserRecord> decode_user_record(ByteSpan payload) {
  ByteReader in(payload);
  in.u32();  // type tag
  ArchiveUserRecord rec;
  rec.user = in.u64();
  rec.tolerable_stall = in.f64();
  rec.adjusted_days = in.u64();
  rec.stats.triggers = in.u64();
  rec.stats.optimizations_run = in.u64();
  rec.stats.pruned_preplay = in.u64();
  rec.stats.mc_evaluations = in.u64();
  rec.stats.mc_rollouts_pruned = in.u64();
  if (!in.done()) return Error::corrupt("malformed user record");
  return rec;
}

}  // namespace

std::vector<unsigned char> ArchiveManifest::encode() const {
  std::vector<unsigned char> p;
  put_u32(p, kArchiveFormatVersion);
  put_u64(p, seed);
  put_u32(p, config_digest);
  put_u64(p, users);
  put_u64(p, days);
  put_u64(p, sessions_per_user_day);
  put_u64(p, warmup_sessions);
  put_u64(p, intervention_day);
  put_u32(p, enable_lingxi ? 1u : 0u);
  put_u64(p, users_per_shard);
  put_u64(p, shards.size());
  for (const auto& shard : shards) {
    put_u64(p, shard.first_user);
    put_u64(p, shard.user_count);
    put_u64(p, shard.record_count);
    put_u64(p, shard.byte_count);
  }
  return p;
}

Expected<ArchiveManifest> ArchiveManifest::decode(ByteSpan payload) {
  // u64 first_user, user_count, record_count, byte_count per shard.
  constexpr std::size_t kShardWireSize = 4 * 8;
  ByteReader in(payload);
  const std::uint32_t format = in.u32();
  ArchiveManifest m;
  m.seed = in.u64();
  m.config_digest = in.u32();
  m.users = in.u64();
  m.days = in.u64();
  m.sessions_per_user_day = in.u64();
  m.warmup_sessions = in.u64();
  m.intervention_day = in.u64();
  m.enable_lingxi = in.u32() != 0;
  m.users_per_shard = in.u64();
  const std::uint64_t shard_count = in.u64();
  if (!in.ok()) return Error::corrupt("truncated archive manifest");
  if (format != kArchiveFormatVersion) {
    return Error::corrupt("unsupported archive format version");
  }
  m.shards.resize(in.count(shard_count, kShardWireSize));
  if (!in.ok()) return Error::corrupt("archive shard count exceeds manifest size");
  for (auto& shard : m.shards) {
    shard.first_user = in.u64();
    shard.user_count = in.u64();
    shard.record_count = in.u64();
    shard.byte_count = in.u64();
  }
  if (!in.done()) return Error::corrupt("trailing bytes in archive manifest");
  return m;
}

std::uint32_t config_digest(const sim::FleetConfig& config) {
  // The result-shaping scalar knobs of every sub-config, in declaration
  // order; scheduling knobs (threads, users_per_shard) deliberately excluded
  // so equal results hash equal. Custom user/abr/predictor factories are
  // code, not config, and cannot be hashed — archives produced with
  // different factories but equal configs share a digest.
  std::vector<unsigned char> p;
  put_u64(p, config.users);
  put_u64(p, config.days);
  put_u64(p, config.sessions_per_user_day);
  put_u64(p, config.warmup_sessions);
  put_u64(p, config.intervention_day);
  put_u32(p, config.enable_lingxi ? 1u : 0u);
  put_u32(p, config.drift_user_tolerance ? 1u : 0u);
  put_f64(p, config.session_jitter_sigma);
  for (const abr::QoeParams* params : {&config.fixed_params, &config.lingxi.default_params}) {
    put_f64(p, params->stall_penalty);
    put_f64(p, params->switch_penalty);
    put_f64(p, params->hyb_beta);
  }
  // Population mixture (user::UserPopulation::Config).
  for (double f : {config.population.sensitive_fraction, config.population.threshold_fraction,
                   config.population.insensitive_fraction,
                   config.population.low_tolerance_fraction,
                   config.population.mid_tolerance_fraction,
                   config.population.high_tolerance_fraction,
                   config.population.very_high_tolerance_fraction,
                   config.population.stable_fraction, config.population.moderate_fraction}) {
    put_f64(p, f);
  }
  // Network world (trace::PopulationModel::Config).
  for (double f : {config.network.median_bandwidth, config.network.sigma,
                   config.network.min_bandwidth, config.network.max_bandwidth,
                   config.network.relative_sd, config.network.rho}) {
    put_f64(p, f);
  }
  // Video world (trace::VideoGenerator::Config), ladder included.
  for (Kbps bitrate : config.video.ladder.bitrates()) put_f64(p, bitrate);
  for (double f : {config.video.mean_duration, config.video.min_duration,
                   config.video.max_duration, config.video.segment_duration,
                   config.video.duration_sigma, config.video.vbr_sigma}) {
    put_f64(p, f);
  }
  // LingXi controller knobs that move the assigned parameters.
  put_u32(p, config.lingxi.space.optimize_stall ? 1u : 0u);
  put_u32(p, config.lingxi.space.optimize_switch ? 1u : 0u);
  put_u32(p, config.lingxi.space.optimize_beta ? 1u : 0u);
  for (double f : {config.lingxi.space.stall_min, config.lingxi.space.stall_max,
                   config.lingxi.space.switch_min, config.lingxi.space.switch_max,
                   config.lingxi.space.beta_min, config.lingxi.space.beta_max}) {
    put_f64(p, f);
  }
  put_u64(p, config.lingxi.trigger_stall_threshold);
  put_u64(p, config.lingxi.obo_rounds);
  put_u64(p, config.lingxi.monte_carlo.samples);
  put_f64(p, config.lingxi.monte_carlo.sample_duration);
  put_u32(p, config.lingxi.enable_preplay_pruning ? 1u : 0u);
  put_f64(p, config.lingxi.rollout_rho);
  put_f64(p, config.lingxi.rollout_pessimism);
  put_f64(p, config.lingxi.adoption_margin);
  // Session simulator / player.
  const sim::SessionSimulator::Config& session = config.session;
  put_u64(p, session.throughput_window);
  put_f64(p, session.stall_event_threshold);
  put_u32(p, session.adaptive_buffer_max ? 1u : 0u);
  for (double f : {session.player.rtt, session.player.base_buffer_max,
                   session.player.min_buffer_max, session.player.max_buffer_max,
                   session.player.reference_bandwidth, session.player.startup_buffer}) {
    put_f64(p, f);
  }
  // Scenario script — every event, in script order, so archives and
  // snapshots pin the exact world the run simulated and a resumed leg can
  // only splice onto the same script. GATED on a non-empty script: empty
  // scripts hash byte-identically to pre-scenario digests, keeping every
  // existing archive and snapshot readable.
  if (!config.scenario.empty()) {
    const auto put_cohort = [&p](const scenario::Cohort& cohort) {
      put_u64(p, cohort.first_user);
      put_u64(p, cohort.last_user);
      put_u64(p, cohort.stride);
      put_u64(p, cohort.phase);
    };
    put_u64(p, config.scenario.shocks.size());
    for (const auto& shock : config.scenario.shocks) {
      put_cohort(shock.cohort);
      put_u64(p, shock.first_day);
      put_u64(p, shock.last_day);
      put_f64(p, shock.bandwidth_scale);
      put_f64(p, shock.sd_scale);
    }
    put_u64(p, config.scenario.curves.size());
    for (const auto& curve : config.scenario.curves) {
      put_cohort(curve.cohort);
      put_u64(p, curve.multipliers.size());
      for (double m : curve.multipliers) put_f64(p, m);
    }
    put_u64(p, config.scenario.flash_crowds.size());
    for (const auto& crowd : config.scenario.flash_crowds) {
      put_cohort(crowd.cohort);
      put_u64(p, crowd.arrival_day);
    }
    put_u64(p, config.scenario.churns.size());
    for (const auto& churn : config.scenario.churns) {
      put_cohort(churn.cohort);
      put_u64(p, churn.day);
    }
    put_u64(p, config.scenario.cohorts.size());
    for (const auto& cohort : config.scenario.cohorts) {
      put_cohort(cohort.cohort);
      for (double f :
           {cohort.population.sensitive_fraction, cohort.population.threshold_fraction,
            cohort.population.insensitive_fraction, cohort.population.low_tolerance_fraction,
            cohort.population.mid_tolerance_fraction, cohort.population.high_tolerance_fraction,
            cohort.population.very_high_tolerance_fraction, cohort.population.stable_fraction,
            cohort.population.moderate_fraction}) {
        put_f64(p, f);
      }
    }
  }
  return crc32(p.data(), p.size());
}

std::string manifest_filename() { return "manifest.lxa"; }

std::string shard_filename(std::size_t shard_index) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "shard-%04zu.lxs", shard_index);
  return buf;
}

std::vector<unsigned char> encode_session_record(const ArchiveSessionRecord& rec) {
  std::vector<unsigned char> p;
  put_u32(p, kSessionRecord);
  put_u64(p, rec.user);
  put_u32(p, rec.day);
  put_u32(p, rec.session_in_day);
  put_u32(p, rec.measured ? 1u : 0u);
  put_f64(p, rec.params_after.stall_penalty);
  put_f64(p, rec.params_after.switch_penalty);
  put_f64(p, rec.params_after.hyb_beta);
  logstore::append_session(p, rec.entry);
  return p;
}

std::vector<unsigned char> encode_user_record(const ArchiveUserRecord& rec) {
  std::vector<unsigned char> p;
  put_u32(p, kUserRecord);
  put_u64(p, rec.user);
  put_f64(p, rec.tolerable_stall);
  put_u64(p, rec.adjusted_days);
  put_u64(p, rec.stats.triggers);
  put_u64(p, rec.stats.optimizations_run);
  put_u64(p, rec.stats.pruned_preplay);
  put_u64(p, rec.stats.mc_evaluations);
  put_u64(p, rec.stats.mc_rollouts_pruned);
  return p;
}

namespace {

// The smallest shard record is a user record: a 68-byte payload in a frame
// with a 12-byte header and a 4-byte CRC.
constexpr std::uint64_t kMinRecordFrame = 12 + 68 + 4;

// Longest horizon an archive may claim (65536 days, about 180 years) and
// most (user, day) cells it may span (16M, a kMaxSnapshotUsers-sized fleet
// for one day): Replay's SessionRecords::finish sizes `daily` from `days`
// and reserves one record per user-day, and zero-session days write no
// bytes, so the shard sizes cannot bound either. A corrupt count surfaces
// as Error::kCorrupt at open(), never as bad_alloc.
constexpr std::uint64_t kMaxArchiveDays = std::uint64_t{1} << 16;
constexpr std::uint64_t kMaxArchiveUserDays = std::uint64_t{1} << 24;

/// A structurally valid manifest whose shard table does not actually cover
/// the users it claims would make every scan silently yield nothing (each
/// scan iterates the shard table, so missing coverage is skipped, not
/// reported). Reject it at open() instead: the shard ranges must tile
/// [0, users) contiguously in order. Each shard's counts must also fit its
/// bytes — every user writes one user record, and every record is at least
/// kMinRecordFrame bytes — so, with open() matching byte_count to the file,
/// the users Replay sizes its buffers for are bounded by the bytes on disk.
/// The days, and users x days, are bounded by the constants above.
Status validate_manifest(const ArchiveManifest& manifest) {
  if (manifest.days > kMaxArchiveDays) {
    return Error::corrupt("archive day count out of range");
  }
  std::uint64_t next_user = 0;
  for (const auto& shard : manifest.shards) {
    if (shard.first_user != next_user) {
      return Error::corrupt("archive shard table does not tile the user range");
    }
    if (shard.user_count == 0) {
      return Error::corrupt("archive shard table has an empty shard");
    }
    if (shard.user_count > shard.record_count ||
        shard.record_count > shard.byte_count / kMinRecordFrame) {
      return Error::corrupt("archive shard counts exceed its bytes");
    }
    next_user += shard.user_count;
  }
  if (next_user != manifest.users) {
    return Error::corrupt("archive shard table disagrees with manifest user count");
  }
  if (manifest.days != 0 && manifest.users > kMaxArchiveUserDays / manifest.days) {
    return Error::corrupt("archive user-day count out of range");
  }
  return {};
}

}  // namespace

Expected<ArchiveReader> ArchiveReader::open(const std::string& dir) {
  auto bytes = read_file(dir + "/" + manifest_filename());
  if (!bytes) return bytes.error();
  std::size_t pos = 0;
  auto payload = logstore::read_record(*bytes, pos);
  if (!payload) return payload.error();
  if (pos != bytes->size()) return Error::corrupt("trailing bytes after archive manifest");
  auto manifest = ArchiveManifest::decode(*payload);
  if (!manifest) return manifest.error();
  if (auto s = validate_manifest(*manifest); !s) return s.error();
  for (std::size_t i = 0; i < manifest->shards.size(); ++i) {
    std::error_code ec;
    const std::uint64_t size = std::filesystem::file_size(dir + "/" + shard_filename(i), ec);
    if (ec) return Error::io("cannot stat archive shard: " + shard_filename(i));
    if (size != manifest->shards[i].byte_count) {
      return Error::corrupt("archive shard size disagrees with manifest: " + shard_filename(i));
    }
  }
  return ArchiveReader(dir, std::move(*manifest));
}

Status ArchiveReader::scan(const SessionCallback& on_session,
                           const UserCallback& on_user) const {
  for (std::size_t i = 0; i < manifest_.shards.size(); ++i) {
    if (auto s = scan_shard(i, on_session, on_user); !s) return s;
  }
  return {};
}

Status ArchiveReader::scan_shard(std::size_t shard_index, const SessionCallback& on_session,
                                 const UserCallback& on_user) const {
  const std::string path = dir_ + "/" + shard_filename(shard_index);
  std::ifstream in(path, std::ios::binary);
  if (!in) return Error::io("cannot open archive shard: " + path);
  // A record outside its shard's users or past the manifest's days is
  // corrupt even when its CRC holds: replay indexes per-user, per-day
  // buffers by these fields.
  const ArchiveShardInfo& shard = manifest_.shards[shard_index];
  const auto misrouted = [&](std::uint64_t user) {
    return user < shard.first_user || user - shard.first_user >= shard.user_count;
  };
  std::uint64_t records = 0;
  while (in.peek() != std::char_traits<char>::eof()) {
    auto payload = logstore::read_record(in);
    if (!payload) return payload.error();
    ++records;
    switch (logstore::record_type(*payload)) {
      case kSessionRecord: {
        ByteReader in(*payload);
        SessionPrefix prefix;
        if (!decode_session_prefix(in, prefix)) {
          return Error::corrupt("truncated session record prefix");
        }
        if (misrouted(prefix.user)) {
          return Error::corrupt("session record user outside its shard: " + path);
        }
        if (prefix.day >= manifest_.days) {
          return Error::corrupt("session record day past the manifest's day count: " + path);
        }
        if (!on_session) break;
        auto rec = decode_session_record(prefix, in);
        if (!rec) return rec.error();
        on_session(*rec);
        break;
      }
      case kUserRecord: {
        auto rec = decode_user_record(*payload);
        if (!rec) return rec.error();
        if (misrouted(rec->user)) {
          return Error::corrupt("user record outside its shard: " + path);
        }
        if (on_user) on_user(*rec);
        break;
      }
      default:
        return Error::corrupt("unknown telemetry record type");
    }
  }
  // peek() returning EOF means either a clean end-of-stream or an I/O error
  // mid-scan (a failing read also trips eofbit on some libs, so check badbit
  // and an eof-less failbit explicitly): only the former may fall through to
  // the record-count check, otherwise a truncated-by-IO shard could
  // masquerade as a clean-but-short one.
  if (in.bad() || (in.fail() && !in.eof())) {
    return Error::io("archive shard stream failed mid-scan: " + path);
  }
  if (records != shard.record_count) {
    return Error::corrupt("shard record count disagrees with manifest: " + path);
  }
  return {};
}

}  // namespace lingxi::telemetry
