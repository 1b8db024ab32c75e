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
                    std::vector<unsigned char>* bytes) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Error::corrupt("listed capture segment is missing: " + path);
  struct stat st {};
  if (::fstat(fd, &st) != 0 || static_cast<std::uint64_t>(st.st_size) != segment.byte_count) {
    ::close(fd);
    return Error::corrupt("capture segment size disagrees with manifest: " + path);
  }
  std::uint32_t crc = 0;
  bool read = true;
  if (bytes != nullptr) {
    bytes->resize(segment.byte_count);
    read = read_exact(fd, bytes->data(), bytes->size());
    if (read) crc = crc32(bytes->data(), bytes->size());
  } else {
    std::vector<unsigned char> chunk(kStreamChunk);
    for (std::uint64_t left = segment.byte_count; read && left > 0;) {
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
  // Cross-user waves interleave users, never one user's sessions: records
  // for a user must arrive in strictly increasing (day, session) order or
  // the archive bytes would depend on the schedule.
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

FleetArchive ShardedCapture::finish() const {
  FleetArchive archive;
  archive.manifest = manifest_;
  const std::size_t shard_count =
      (users_.size() + config_.users_per_shard - 1) / config_.users_per_shard;
  archive.manifest.shards.resize(shard_count);
  archive.shards.resize(shard_count);
  std::vector<unsigned char> segment;  // one segment read back at a time
  std::vector<std::uint64_t> at;       // each shard user's next write offset
  std::vector<std::uint64_t> end;      // and the end of its bytes
  for (std::size_t s = 0; s < shard_count; ++s) {
    const std::size_t first = s * config_.users_per_shard;
    const std::size_t last = std::min(first + config_.users_per_shard, users_.size());
    auto& info = archive.manifest.shards[s];
    auto& bytes = archive.shards[s];
    info.first_user = first;
    info.user_count = last - first;
    at.clear();
    end.clear();
    std::uint64_t size = 0;
    for (std::size_t u = first; u < last; ++u) {
      at.push_back(size);
      size += users_[u].byte_count();
      end.push_back(size);
      info.record_count += users_[u].records;
    }
    bytes.resize(size);
    info.byte_count = size;
    // The shard's slices of the log in table order, then the tails.
    for (const CaptureSegment& seg : log_.segments) {
      if (seg.first_user >= last || seg.first_user + seg.user_bytes.size() <= first) continue;
      const std::string path =
          log_.store + "/" + segment_filename(manifest_.seed, resume_digest_, seg);
      if (auto st = read_segment(path, seg, &segment); !st) {
        archive.status = st;
        return archive;
      }
      std::uint64_t from = 0;
      for (std::size_t i = 0; i < seg.user_bytes.size(); ++i) {
        const std::uint64_t u = seg.first_user + i;
        const std::uint64_t n = seg.user_bytes[i];
        if (u >= first && u < last) {
          const std::size_t k = u - first;
          if (n > end[k] - at[k]) {
            archive.status = Error::corrupt("capture segments exceed the logged bytes");
            return archive;
          }
          std::copy_n(segment.begin() + static_cast<std::ptrdiff_t>(from), n,
                      bytes.begin() + static_cast<std::ptrdiff_t>(at[k]));
          at[k] += n;
        }
        from += n;
      }
    }
    for (std::size_t u = first; u < last; ++u) {
      const std::vector<unsigned char>& tail = users_[u].tail;
      const std::size_t k = u - first;
      if (at[k] + tail.size() != end[k]) {
        archive.status = Error::corrupt("capture segments fall short of the logged bytes");
        return archive;
      }
      std::copy(tail.begin(), tail.end(), bytes.begin() + static_cast<std::ptrdiff_t>(at[k]));
    }
  }
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
