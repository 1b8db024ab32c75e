#include "telemetry/capture.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <filesystem>

#include "common/assert.h"
#include "common/bytes.h"
#include "common/crc32.h"
#include "logstore/record.h"
#include "obs/metrics.h"
#include "obs/timer.h"

namespace lingxi::telemetry {

namespace {
constexpr std::uint64_t kSecondsPerDay = 86400;
/// Read-back chunk for streamed CRC checks.
constexpr std::size_t kStreamChunk = std::size_t{1} << 16;

/// Read exactly `n` bytes into `dst`; false on a short read or an error.
bool read_exact(int fd, unsigned char* dst, std::size_t n) {
  while (n > 0) {
    const ssize_t got = ::read(fd, dst, n);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return false;
    dst += got;
    n -= static_cast<std::size_t>(got);
  }
  return true;
}

bool same_directory(const std::string& a, const std::string& b) {
  std::error_code ec;
  const auto ca = std::filesystem::weakly_canonical(a, ec);
  if (ec) return a == b;
  const auto cb = std::filesystem::weakly_canonical(b, ec);
  return ec ? a == b : ca == cb;
}
}  // namespace

std::uint32_t resume_digest(const sim::FleetConfig& config) {
  sim::FleetConfig undated = config;
  undated.days = 0;
  return config_digest(undated);
}

std::string segment_filename(std::uint64_t seed, std::uint32_t resume_digest,
                             const CaptureSegment& segment) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "seg-%016llx-%08x-users-%llu-%llu-days-%llu-%llu.lxcs",
                static_cast<unsigned long long>(seed), static_cast<unsigned>(resume_digest),
                static_cast<unsigned long long>(segment.first_user),
                static_cast<unsigned long long>(segment.first_user + segment.user_bytes.size()),
                static_cast<unsigned long long>(segment.first_day),
                static_cast<unsigned long long>(segment.end_day));
  return buf;
}

Status read_segment(const std::string& path, const CaptureSegment& segment,
                    const std::function<unsigned char*(std::size_t)>& place) {
  std::uint64_t listed = 0;
  for (const std::uint64_t n : segment.user_bytes) {
    if (n > segment.byte_count - listed) {
      return Error::corrupt("capture segment per-user counts exceed its size: " + path);
    }
    listed += n;
  }
  if (listed != segment.byte_count) {
    return Error::corrupt("capture segment per-user counts do not sum to its size: " + path);
  }
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Error::corrupt("listed capture segment is missing: " + path);
  struct stat st {};
  if (::fstat(fd, &st) != 0 || static_cast<std::uint64_t>(st.st_size) != segment.byte_count) {
    ::close(fd);
    return Error::corrupt("capture segment size disagrees with manifest: " + path);
  }
  std::uint32_t crc = 0;
  bool read = true;
  std::vector<unsigned char> chunk;
  for (std::size_t i = 0; read && i < segment.user_bytes.size(); ++i) {
    std::uint64_t left = segment.user_bytes[i];
    if (unsigned char* dst = place ? place(i) : nullptr; dst != nullptr) {
      read = read_exact(fd, dst, left);
      if (read) crc = crc32_update(crc, dst, left);
      continue;
    }
    if (chunk.empty() && left > 0) chunk.resize(kStreamChunk);
    while (read && left > 0) {
      const std::size_t n = static_cast<std::size_t>(std::min<std::uint64_t>(left, chunk.size()));
      read = read_exact(fd, chunk.data(), n);
      crc = crc32_update(crc, chunk.data(), n);
      left -= n;
    }
  }
  ::close(fd);
  if (!read || crc != segment.crc) {
    return Error::corrupt("capture segment disagrees with manifest: " + path);
  }
  return {};
}

Status FleetArchive::visit_shards(const ShardVisitor& visit) const {
  if (!status) return status;
  std::vector<unsigned char> bytes;  // the one shard being built
  std::vector<std::uint64_t> at;     // each shard user's next write offset
  for (std::size_t s = 0; s < manifest.shards.size(); ++s) {
    const ArchiveShardInfo& info = manifest.shards[s];
    if (info.first_user > tails.size() || info.user_count > tails.size() - info.first_user) {
      return Error::invalid_arg("archive shard table names users the archive lacks");
    }
    const std::uint64_t first = info.first_user;
    const std::uint64_t last = first + info.user_count;
    const auto overlaps = [&](const CaptureSegment& seg) {
      return seg.first_user < last && seg.first_user + seg.user_bytes.size() > first;
    };
    // Each user's bytes: its slices of the log in table order, then its tail.
    at.assign(info.user_count, 0);
    for (const CaptureSegment& seg : log.segments) {
      if (!overlaps(seg)) continue;
      for (std::size_t i = 0; i < seg.user_bytes.size(); ++i) {
        const std::uint64_t u = seg.first_user + i;
        if (u >= first && u < last) at[u - first] += seg.user_bytes[i];
      }
    }
    std::uint64_t size = 0;
    for (std::uint64_t u = first; u < last; ++u) {
      const std::uint64_t user_size = at[u - first] + tails[u].size();
      at[u - first] = size;
      size += user_size;
    }
    bytes.resize(size);
    for (const CaptureSegment& seg : log.segments) {
      if (!overlaps(seg)) continue;
      const auto place = [&](std::size_t i) -> unsigned char* {
        const std::uint64_t u = seg.first_user + i;
        if (u < first || u >= last) return nullptr;
        unsigned char* dst = bytes.data() + at[u - first];
        at[u - first] += seg.user_bytes[i];
        return dst;
      };
      const std::string path =
          log.store + "/" + segment_filename(manifest.seed, resume_digest, seg);
      if (auto st = read_segment(path, seg, place); !st) return st;
    }
    for (std::uint64_t u = first; u < last; ++u) {
      std::copy(tails[u].begin(), tails[u].end(),
                bytes.begin() + static_cast<std::ptrdiff_t>(at[u - first]));
    }
    if (auto st = visit(s, bytes); !st) return st;
  }
  return {};
}

Status FleetArchive::write(const std::string& dir) const {
  if (!status) return status;
  namespace fs = std::filesystem;
  std::error_code ec;
  const bool existed = fs::exists(dir, ec);
  fs::create_directories(dir, ec);
  if (ec) return Error::io("cannot create archive directory: " + dir);
  // A directory holding a manifest is a complete archive: drop an old one
  // before overwriting any shard, and write the new one last.
  const std::string manifest_path = dir + "/" + manifest_filename();
  fs::remove(manifest_path, ec);
  std::vector<std::string> written;
  Status st = visit_shards([&](std::size_t shard, ByteSpan bytes) -> Status {
    const std::string path = dir + "/" + shard_filename(shard);
    {
      OBS_TIMED("telemetry.archive.shard_write_us");
      if (auto w = write_file(path, bytes); !w) return w;
    }
    written.push_back(path);
    if (obs::Registry* reg = obs::Registry::active()) {
      reg->add("telemetry.archive.shards_written");
      reg->add("telemetry.archive.bytes_written", bytes.size());
    }
    return {};
  });
  if (st) {
    std::vector<unsigned char> manifest_bytes;
    logstore::write_record(manifest_bytes, manifest.encode());
    st = write_file(manifest_path, manifest_bytes);
    if (st) written.push_back(manifest_path);
  }
  if (st) st = fsync_directory(dir);
  if (st && !existed) {
    // The new directory's own entry must survive power loss too.
    const fs::path parent = fs::path(dir).parent_path();
    st = fsync_directory(parent.empty() ? "." : parent.string());
  }
  if (!st) {
    for (const std::string& path : written) fs::remove(path, ec);
    if (!existed) fs::remove_all(dir, ec);
  }
  return st;
}

Expected<std::uint32_t> FleetArchive::checksum() const {
  const auto manifest_payload = manifest.encode();
  std::uint32_t crc = crc32(manifest_payload.data(), manifest_payload.size());
  const Status st = visit_shards([&crc](std::size_t, ByteSpan bytes) -> Status {
    // Chain per-shard CRCs through a fixed 8-byte block instead of copying
    // shard bytes: crc32(crc_so_far || crc32(shard)).
    std::vector<unsigned char> link;
    put_u32(link, crc);
    put_u32(link, crc32(bytes.data(), bytes.size()));
    crc = crc32(link.data(), link.size());
    return {};
  });
  if (!st) return st.error();
  return crc;
}

std::uint64_t FleetArchive::total_bytes() const noexcept {
  std::uint64_t total = 0;
  for (const auto& shard : manifest.shards) total += shard.byte_count;
  return total;
}

ShardedCapture::ShardedCapture() : ShardedCapture(Config{}) {}

ShardedCapture::ShardedCapture(Config config) : config_(config) {
  LINGXI_ASSERT(config_.users_per_shard > 0);
}

void ShardedCapture::begin_fleet(const sim::FleetConfig& config, std::uint64_t seed) {
  manifest_ = ArchiveManifest{};
  manifest_.seed = seed;
  manifest_.config_digest = config_digest(config);
  manifest_.users = config.users;
  manifest_.days = config.days;
  manifest_.sessions_per_user_day = config.sessions_per_user_day;
  manifest_.warmup_sessions = config.warmup_sessions;
  manifest_.intervention_day = config.intervention_day;
  manifest_.enable_lingxi = config.enable_lingxi;
  manifest_.users_per_shard = config_.users_per_shard;
  resume_digest_ = telemetry::resume_digest(config);
  users_.assign(config.users, CaptureCursor{});
  log_ = CaptureLog{};
  finished_ = false;
}

void ShardedCapture::record_session(const SessionContext& ctx,
                                    const sim::SessionResult& session) {
  LINGXI_ASSERT(ctx.user_index < users_.size());
  ArchiveSessionRecord rec;
  rec.user = ctx.user_index;
  rec.day = static_cast<std::uint32_t>(ctx.day);
  rec.session_in_day = static_cast<std::uint32_t>(ctx.session_in_day);
  rec.measured = ctx.measured;
  rec.params_after = ctx.params_after;
  rec.entry.user_id = ctx.user_index;
  rec.entry.timestamp = ctx.day * kSecondsPerDay + ctx.session_in_day;
  rec.entry.video_duration = ctx.video_duration;
  rec.entry.session = session;
  CaptureCursor& buffer = users_[ctx.user_index];
  // Workers interleave users, never one user's sessions: records for a
  // user must arrive in strictly increasing (day, session) order or the
  // archive bytes would depend on the schedule.
  const std::uint64_t at =
      (static_cast<std::uint64_t>(ctx.day) << 32) | static_cast<std::uint64_t>(ctx.session_in_day);
  LINGXI_DASSERT(at >= buffer.next_expected_at_least);
  buffer.next_expected_at_least = at + 1;
  logstore::write_record(buffer.tail, encode_session_record(rec));
  ++buffer.records;
}

void ShardedCapture::record_user(const UserTelemetry& user) {
  LINGXI_ASSERT(user.user_index < users_.size());
  ArchiveUserRecord rec;
  rec.user = user.user_index;
  rec.tolerable_stall = user.tolerable_stall;
  rec.adjusted_days = user.adjusted_days;
  rec.stats = user.stats;
  CaptureCursor& buffer = users_[user.user_index];
  logstore::write_record(buffer.tail, encode_user_record(rec));
  ++buffer.records;
}

Expected<std::uint64_t> ShardedCapture::commit(const std::string& store,
                                               std::uint64_t end_day) {
  if (finished_) {
    return Error::invalid_arg("capture already finished; begin_fleet() starts the next");
  }
  if (!log_.segments.empty() && !same_directory(log_.store, store)) {
    return Error::invalid_arg("capture log lives in another store: " + log_.store);
  }
  std::uint64_t first_day = 0;
  for (const CaptureSegment& seg : log_.segments) first_day = std::max(first_day, seg.end_day);
  std::error_code ec;
  std::filesystem::create_directories(store, ec);
  if (ec) return Error::io("cannot create capture segment store: " + store);

  std::vector<CaptureSegment> fresh;
  std::uint64_t written = 0;
  std::vector<unsigned char> bytes;
  for (std::size_t first = 0; first < users_.size(); first += config_.users_per_shard) {
    const std::size_t last = std::min(first + config_.users_per_shard, users_.size());
    CaptureSegment seg;
    seg.first_user = first;
    seg.first_day = first_day;
    seg.end_day = end_day;
    bytes.clear();
    for (std::size_t u = first; u < last; ++u) {
      const std::vector<unsigned char>& tail = users_[u].tail;
      bytes.insert(bytes.end(), tail.begin(), tail.end());
      seg.user_bytes.push_back(tail.size());
    }
    if (bytes.empty()) continue;
    if (seg.first_day >= seg.end_day) {
      return Error::invalid_arg("new capture bytes at a day boundary the log already covers");
    }
    seg.byte_count = bytes.size();
    seg.crc = crc32(bytes.data(), bytes.size());
    const std::string path =
        store + "/" + segment_filename(manifest_.seed, resume_digest_, seg);
    if (auto s = write_file(path, bytes); !s) return s.error();
    written += bytes.size();
    fresh.push_back(std::move(seg));
  }
  if (written > 0) {
    if (auto s = fsync_directory(store); !s) return s.error();
  }
  log_.store = store;
  log_.segments.insert(log_.segments.end(), std::make_move_iterator(fresh.begin()),
                       std::make_move_iterator(fresh.end()));
  for (CaptureCursor& cursor : users_) {
    cursor.logged = cursor.byte_count();
    cursor.tail.clear();
  }
  return written;
}

FleetArchive ShardedCapture::finish() {
  FleetArchive archive;
  archive.manifest = manifest_;
  if (finished_) {
    archive.status = Error::invalid_arg("capture already finished; begin_fleet() starts the next");
    return archive;
  }
  finished_ = true;
  // The table must list exactly the bytes each cursor logged.
  std::vector<std::uint64_t> listed(users_.size(), 0);
  bool agrees = true;
  for (const CaptureSegment& seg : log_.segments) {
    for (std::size_t i = 0; i < seg.user_bytes.size(); ++i) {
      const std::uint64_t u = seg.first_user + i;
      if (u < listed.size()) {
        listed[u] += seg.user_bytes[i];
      } else {
        agrees = false;
      }
    }
  }
  for (std::size_t u = 0; u < users_.size(); ++u) agrees = agrees && listed[u] == users_[u].logged;
  if (!agrees) {
    archive.status = Error::corrupt("capture segment table disagrees with the logged bytes");
  }
  const std::size_t shard_count =
      (users_.size() + config_.users_per_shard - 1) / config_.users_per_shard;
  archive.manifest.shards.resize(shard_count);
  for (std::size_t s = 0; s < shard_count; ++s) {
    const std::size_t first = s * config_.users_per_shard;
    const std::size_t last = std::min(first + config_.users_per_shard, users_.size());
    auto& info = archive.manifest.shards[s];
    info.first_user = first;
    info.user_count = last - first;
    for (std::size_t u = first; u < last; ++u) {
      info.record_count += users_[u].records;
      info.byte_count += users_[u].byte_count();
    }
  }
  archive.log = log_;
  archive.resume_digest = resume_digest_;
  archive.tails.reserve(users_.size());
  for (CaptureCursor& cursor : users_) archive.tails.push_back(std::move(cursor.tail));
  return archive;
}

std::size_t ShardedCapture::session_count() const noexcept {
  std::size_t sessions = 0;
  // One of each user's records is the user summary; the rest are sessions.
  for (const auto& user : users_) {
    sessions += user.records > 0 ? user.records - 1 : 0;
  }
  return sessions;
}

void ShardedCapture::restore(Position position) {
  LINGXI_ASSERT(position.cursors.size() == users_.size());
  users_ = std::move(position.cursors);
  log_ = std::move(position.log);
}

}  // namespace lingxi::telemetry
