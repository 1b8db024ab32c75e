// Fleet telemetry archives — the on-disk capture format and its reader.
//
// An archive is a directory holding one manifest plus N shard files, all
// sequences of LXRC records (logstore/record.h: the common/bytes.h frame
// magic "LXRC" | u32 version | u32 payload_len | payload |
// u32 crc32(payload)), decoded through the bounds-checked ByteReader, so
// every corruption mode surfaces as Error::kCorrupt.
//
// ## Archive format spec (version 1)
//
//   <dir>/manifest.lxa     one framed record
//   <dir>/shard-NNNN.lxs   framed telemetry records for users
//                          [NNNN * users_per_shard, (NNNN+1) * users_per_shard)
//
// Manifest payload (little-endian, common/bytes.h codec):
//   u32 format_version   kArchiveFormatVersion
//   u64 seed             fleet seed the archive was captured at
//   u32 config_digest    CRC32 over the result-shaping FleetConfig fields
//                        (never threads / users_per_shard: those do not
//                        change the captured bytes)
//   u64 users, days, sessions_per_user_day, warmup_sessions,
//       intervention_day
//   u32 enable_lingxi    0/1
//   u64 users_per_shard  archive sharding granularity (users per shard file)
//   u64 shard_count
//   per shard:           u64 first_user | u64 user_count |
//                        u64 record_count | u64 byte_count
//
// Shard record payload, discriminated by a leading u32 type tag:
//   kSessionRecord (1):  u64 user | u32 day | u32 session_in_day |
//                        u32 measured | f64 stall_penalty |
//                        f64 switch_penalty | f64 hyb_beta |
//                        logstore::encode_session(entry) bytes to the end
//   kUserRecord (2):     u64 user | f64 tolerable_stall | u64 adjusted_days |
//                        u64 triggers | u64 optimizations | u64 pruned_preplay |
//                        u64 mc_evaluations | u64 mc_rollouts_pruned
//
// Within a shard, records are user-major in ascending user order; a user's
// sessions appear in chronological (day, session) order and are followed by
// that user's kUserRecord. The embedded SessionLogEntry carries
// timestamp = day * 86400 + session_in_day, so generic logstore tooling can
// recover the fleet calendar.
//
// Because the layout is a pure function of (fleet config, seed), the archive
// is byte-for-byte identical at any worker-thread count and any runner shard
// size — the property the fleet parity harness (test_properties.cpp) pins.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "abr/qoe.h"
#include "common/bytes.h"
#include "common/expected.h"
#include "core/lingxi.h"
#include "logstore/session_log.h"
#include "sim/fleet_runner.h"

namespace lingxi::telemetry {

inline constexpr std::uint32_t kArchiveFormatVersion = 1;

/// Decoded kSessionRecord.
struct ArchiveSessionRecord {
  std::uint64_t user = 0;
  std::uint32_t day = 0;
  std::uint32_t session_in_day = 0;
  bool measured = false;
  abr::QoeParams params_after;
  logstore::SessionLogEntry entry;
};

/// Decoded kUserRecord.
struct ArchiveUserRecord {
  std::uint64_t user = 0;
  double tolerable_stall = 0.0;
  std::uint64_t adjusted_days = 0;
  core::LingXiStats stats;
};

struct ArchiveShardInfo {
  std::uint64_t first_user = 0;
  std::uint64_t user_count = 0;
  std::uint64_t record_count = 0;
  std::uint64_t byte_count = 0;
};

struct ArchiveManifest {
  std::uint64_t seed = 0;
  std::uint32_t config_digest = 0;
  std::uint64_t users = 0;
  std::uint64_t days = 0;
  std::uint64_t sessions_per_user_day = 0;
  std::uint64_t warmup_sessions = 0;
  std::uint64_t intervention_day = 0;
  bool enable_lingxi = false;
  std::uint64_t users_per_shard = 0;  ///< archive granularity, not the runner's
  std::vector<ArchiveShardInfo> shards;

  std::vector<unsigned char> encode() const;
  static Expected<ArchiveManifest> decode(ByteSpan payload);
};

/// Digest of the FleetConfig fields that shape captured results. Excludes
/// pure scheduling knobs (threads, users_per_shard) by design.
std::uint32_t config_digest(const sim::FleetConfig& config);

/// File names inside an archive directory.
std::string manifest_filename();
std::string shard_filename(std::size_t shard_index);

/// Shard record codecs (exposed for tests).
std::vector<unsigned char> encode_session_record(const ArchiveSessionRecord& rec);
std::vector<unsigned char> encode_user_record(const ArchiveUserRecord& rec);

/// An archive materialized in memory: the deterministic output of a capture
/// (telemetry/capture.h), ready to be written out or checksummed.
struct FleetArchive {
  ArchiveManifest manifest;
  /// Framed record stream per shard, index-aligned with manifest.shards.
  std::vector<std::vector<unsigned char>> shards;
  /// A capture read-back failure (ShardedCapture::finish): the shards are
  /// incomplete and write() returns this before writing any file.
  Status status;

  /// Write manifest + shard files into `dir` (created if missing).
  Status write(const std::string& dir) const;
  /// CRC32 over the manifest payload and every shard byte stream in order —
  /// the determinism probe used by tests and benches.
  std::uint32_t checksum() const;
  std::uint64_t total_bytes() const noexcept;
};

/// Streams archives back without materializing whole files: records are read
/// frame by frame from disk, CRC-validated, and handed to callbacks.
class ArchiveReader {
 public:
  using SessionCallback = std::function<void(const ArchiveSessionRecord&)>;
  using UserCallback = std::function<void(const ArchiveUserRecord&)>;

  /// Read the manifest and check its shard table against the shard files:
  /// kCorrupt unless the shards tile [0, users) and each has
  /// user_count <= record_count, room for record_count records in
  /// byte_count, and a file of exactly byte_count bytes.
  static Expected<ArchiveReader> open(const std::string& dir);

  const ArchiveManifest& manifest() const noexcept { return manifest_; }

  /// Full scan over every shard, in user order — the one read path (Replay
  /// uses it). Either callback may be null. Fails with kCorrupt on a record
  /// whose user lies outside its shard's [first_user, first_user +
  /// user_count) or whose day is at or past manifest().days, even when its
  /// CRC holds, and on a shard whose record count disagrees with the
  /// manifest; kIo when a shard cannot be opened or fails mid-read.
  Status scan(const SessionCallback& on_session, const UserCallback& on_user) const;

 private:
  ArchiveReader(std::string dir, ArchiveManifest manifest)
      : dir_(std::move(dir)), manifest_(std::move(manifest)) {}

  Status scan_shard(std::size_t shard_index, const SessionCallback& on_session,
                    const UserCallback& on_user) const;

  std::string dir_;
  ArchiveManifest manifest_;
};

}  // namespace lingxi::telemetry
