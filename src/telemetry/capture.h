// Sharded session capture: the TelemetrySink that builds fleet archives.
//
// ShardedCapture keeps, per user, only the tail of encoded records recorded
// since its last commit. Per user is the finest shard, which makes
// concurrent capture lock-free: FleetRunner drives each user from exactly
// one worker, so each tail has a single writer and the cursor table itself
// is pre-sized in begin_fleet() before any worker starts.
//
// Everything older lives in the capture's durable log: commit(), called at a
// day boundary (snapshot::AutoCheckpointer does), appends every tail to an
// append-only segment store as one immutable file per archive shard, makes
// the files durable, and only then empties the tails. A tail keeps its
// capacity, so the next day reuses it: at most the days since the last
// commit are buffered, however long the run. A capture without a store is
// one whose segment table is empty; its tails hold the whole run.
//
// finish() merges nothing: it fills the archive manifest's shard table from
// the cursors and hands the archive the store, a copy of the segment table
// and the tails (moved out, so the capture waits for the next begin_fleet()).
// The archive builds one shard at a time, when it is written or checksummed:
// that shard's slices of the log, read back and checked against the table,
// then its tails, in deterministic ascending user order, regrouped into shard
// files of `users_per_shard` users each. No code path holds more than one
// archive shard's bytes.
//
// The single-writer-per-user property: workers run different users
// concurrently, but each user's sessions are recorded by one worker in
// chronological (day, session) order (a debug assertion pins this), so
// per-user tails — and therefore the log and the archive bytes — cannot
// observe the schedule.
//
// Consequently the archive bytes depend only on (fleet config, seed, archive
// users_per_shard) — never on the thread count, the runner's scheduling
// shard size or the commit cadence. That is what lets one capture serve any
// number of replays as the ground truth for paired comparisons.
//
// ## Segment store
//
//   <store>/seg-<seed>-<digest>-users-<a>-<b>-days-<c>-<d>.lxcs
//                          raw capture bytes: the framed archive records of
//                          users [a, b) appended during days [c, d), user-major
//                          in ascending user order (seed: 16 hex digits;
//                          digest: resume_digest of the fleet config, 8 hex
//                          digits; a..d decimal)
//
// A segment's name is a function of what it holds, so two fleets never share
// a name and a file, once written, is never rewritten with other bytes. A
// user's captured bytes are the concatenation of its slices of the table's
// segments, in table order, then its tail.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/expected.h"
#include "telemetry/archive.h"
#include "telemetry/sink.h"

namespace lingxi::telemetry {

/// One immutable file of a capture segment store: the framed archive records
/// of users [first_user, first_user + user_bytes.size()) appended during days
/// [first_day, end_day), user-major in ascending user order.
struct CaptureSegment {
  std::uint64_t first_user = 0;
  std::uint64_t first_day = 0;
  std::uint64_t end_day = 0;
  std::uint64_t byte_count = 0;
  std::uint32_t crc = 0;
  /// Each user's share of byte_count, in user order.
  std::vector<std::uint64_t> user_bytes;
};

/// A capture's durable log: the store directory and the segments committed
/// into it, in append order. Empty until the first commit.
struct CaptureLog {
  std::string store;
  std::vector<CaptureSegment> segments;
};

/// config_digest with the calendar length (`days`) zeroed out: a resumed run
/// must match every result-shaping knob but may extend the horizon. Segment
/// names carry it.
std::uint32_t resume_digest(const sim::FleetConfig& config);

/// File name of `segment` inside the store of a fleet with this seed and
/// resume digest.
std::string segment_filename(std::uint64_t seed, std::uint32_t resume_digest,
                             const CaptureSegment& segment);

/// Read the segment file at `path` back and check it against `segment`:
/// kCorrupt unless it exists with exactly byte_count bytes, its per-user
/// counts sum to byte_count and the bytes carry its CRC. The bytes stream in
/// file order, one user's slice at a time: slice i lands at `place(i)` (called
/// once per slice, in order) when that is non-null, otherwise it passes
/// through a fixed buffer, so a hostile table never sizes an allocation.
Status read_segment(const std::string& path, const CaptureSegment& segment,
                    const std::function<unsigned char*(std::size_t)>& place = {});

/// A finished capture's archive, built one shard at a time: the manifest,
/// plus what each shard's bytes come from — the slices of the capture's log
/// (read back from its store and CRC-checked as they stream) and each user's
/// tail. The store must outlive every write() and checksum(); a damaged
/// segment surfaces there. An archive outlives its capture's reuse.
struct FleetArchive {
  ArchiveManifest manifest;
  CaptureLog log;
  /// Names the log's segment files with manifest.seed (segment_filename).
  std::uint32_t resume_digest = 0;
  /// Each user's records since the last commit (index == user index).
  std::vector<std::vector<unsigned char>> tails;
  /// A failure ShardedCapture::finish() found; every call below returns it.
  Status status;

  using ShardVisitor = std::function<Status(std::size_t shard, ByteSpan bytes)>;
  /// Build each shard of manifest.shards in order into one reused buffer and
  /// hand it to `visit`, stopping at the first failure (`visit`'s, or a
  /// segment's kCorrupt read-back). The bytes are valid only during the call.
  Status visit_shards(const ShardVisitor& visit) const;
  /// Write the shard files, then the manifest, into `dir` (created if
  /// missing; an old manifest there is removed first), then fsync `dir` (and
  /// its parent when this call created it). On failure every file this call
  /// wrote is removed, and `dir` too if this call created it.
  Status write(const std::string& dir) const;
  /// CRC32 over the manifest payload and every shard byte stream in order —
  /// the determinism probe used by tests and benches.
  Expected<std::uint32_t> checksum() const;
  /// Sum of the manifest's shard byte counts.
  std::uint64_t total_bytes() const noexcept;
};

class ShardedCapture final : public TelemetrySink {
 public:
  struct Config {
    /// Users per archive shard file (archive granularity; independent of the
    /// runner's scheduling shard size). Also the users per segment.
    std::size_t users_per_shard = 64;
  };

  ShardedCapture();
  explicit ShardedCapture(Config config);

  // TelemetrySink -----------------------------------------------------------
  void begin_fleet(const sim::FleetConfig& config, std::uint64_t seed) override;
  void record_session(const SessionContext& ctx,
                      const sim::SessionResult& session) override;
  void record_user(const UserTelemetry& user) override;

  /// One user's capture position: the framed records recorded since the
  /// last commit, the byte count already in the log, and the chronological
  /// cursor.
  struct CaptureCursor {
    std::vector<unsigned char> tail;  ///< framed records, chronological
    std::uint64_t logged = 0;         ///< bytes in the log's segments
    std::uint64_t records = 0;
    /// (day << 32) | session of the last record + 1, for the debug-only
    /// chronological-order assertion under interleaved execution.
    std::uint64_t next_expected_at_least = 0;

    std::uint64_t byte_count() const noexcept { return logged + tail.size(); }
    bool operator==(const CaptureCursor&) const = default;
  };

  /// Everything a resumed leg continues from: one cursor per user and the
  /// log. The snapshot subsystem persists it at a day boundary, so a resumed
  /// fleet appends days [D, ...) and its archive's bytes are identical to an
  /// unsplit run's.
  struct Position {
    std::vector<CaptureCursor> cursors;
    CaptureLog log;
  };

  /// Append every tail to the log as one new segment per archive shard,
  /// days [end of the log, end_day), in `store`; make the files and the
  /// directory durable; only then empty the tails (keeping their capacity).
  /// Returns the bytes written. `store` must be the log's store unless the
  /// log is empty: a commit anywhere else is kInvalidArg and writes nothing.
  /// On failure the capture is unchanged (files already written are orphans
  /// no table lists). Call at a day boundary, between FleetRunner::run_days
  /// legs.
  Expected<std::uint64_t> commit(const std::string& store, std::uint64_t end_day);

  /// Hand the run over as an archive: the manifest's shard table (from the
  /// cursors), the store, a copy of the segment table and the tails, moved
  /// out. Reads no segment. Call after FleetRunner::run() returns; the
  /// capture then waits for a new begin_fleet() — until then commit() and a
  /// second finish() are kInvalidArg (the latter as the archive's status).
  /// A segment table that disagrees with the cursors is the archive's
  /// kCorrupt status.
  FleetArchive finish();

  /// Session records captured so far, assuming one trailing user record per
  /// user slot. Scenario churn emits an extra user record per departed
  /// generation, so under a churn script this undercounts by the number of
  /// departures — use the replayed accumulator for exact scenario tallies.
  std::size_t session_count() const noexcept;

  /// Every user's cursor (index == user index). Read at a day boundary.
  const std::vector<CaptureCursor>& cursors() const noexcept { return users_; }
  const CaptureLog& log() const noexcept { return log_; }
  /// The seed and resume digest of the fleet begun last: every segment name
  /// carries them, so a checkpoint's manifest must be stamped with the same.
  std::uint64_t seed() const noexcept { return manifest_.seed; }
  std::uint32_t resume_digest() const noexcept { return resume_digest_; }
  /// Re-arm on a position loaded from a snapshot (snapshot::resume does).
  /// Must follow a begin_fleet() with the same fleet config and seed (which
  /// pre-sizes the user table); `position` must hold one cursor per user.
  void restore(Position position);

 private:
  Config config_;
  ArchiveManifest manifest_;  ///< shard index filled in by finish()
  std::uint32_t resume_digest_ = 0;
  std::vector<CaptureCursor> users_;
  CaptureLog log_;
  bool finished_ = false;  ///< finish() moved the tails out
};

}  // namespace lingxi::telemetry
