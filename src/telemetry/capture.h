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
// finish() builds each archive shard from that shard's segments, read back
// and checked against the table, plus the tails, in deterministic ascending
// user order, regrouped into shard files of `users_per_shard` users each.
//
// The single-writer-per-user property survives the cohort waves: a cohort
// interleaves the *users* of a shard on one worker, but each user's sessions
// are still recorded in chronological (day, session) order (a debug
// assertion pins this), so per-user tails — and therefore the log and the
// merged archive bytes — cannot observe the interleaving.
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
/// kCorrupt unless it exists with exactly byte_count bytes and their CRC.
/// The bytes land in `*bytes`, sized from the file only once its size
/// matched; with `bytes` null they stream through a fixed buffer, so a
/// hostile table never sizes an allocation.
Status read_segment(const std::string& path, const CaptureSegment& segment,
                    std::vector<unsigned char>* bytes);

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
  /// fleet appends days [D, ...) and finish() emits archive bytes identical
  /// to an unsplit run.
  struct Position {
    std::vector<CaptureCursor> cursors;
    CaptureLog log;
  };

  /// Append every tail to the log as one new segment per archive shard,
  /// days [end of the log, end_day), in `store`; make the files and the
  /// directory durable; only then empty the tails (keeping their capacity).
  /// Returns the bytes written. The first commit into a store other than
  /// the log's carries the whole history over. On failure the capture is
  /// unchanged (files already written are orphans no table lists). Call at
  /// a day boundary, between FleetRunner::run_days legs.
  Expected<std::uint64_t> commit(const std::string& store, std::uint64_t end_day);

  /// Merge the log and the tails into the final archive. Call after
  /// FleetRunner::run() returns; the capture can then be reused via a new
  /// begin_fleet(). Reads one archive shard's segments at a time and checks
  /// each against the table; a failure is the archive's `status`, and its
  /// write() then writes nothing.
  FleetArchive finish() const;

  /// Session records captured so far, assuming one trailing user record per
  /// user slot. Scenario churn emits an extra user record per departed
  /// generation, so under a churn script this undercounts by the number of
  /// departures — use the replayed accumulator for exact scenario tallies.
  std::size_t session_count() const noexcept;

  /// Every user's cursor (index == user index). Read at a day boundary.
  const std::vector<CaptureCursor>& cursors() const noexcept { return users_; }
  const CaptureLog& log() const noexcept { return log_; }
  /// A copy of the cursors and the log (tails included).
  Position position() const { return {users_, log_}; }
  /// Re-arm on a position exported by position() or loaded from a snapshot.
  /// Must follow a begin_fleet() with the same fleet config and seed (which
  /// pre-sizes the user table); `position` must hold one cursor per user.
  void restore(Position position);

 private:
  Config config_;
  ArchiveManifest manifest_;  ///< shard index filled in by finish()
  std::uint32_t resume_digest_ = 0;
  std::vector<CaptureCursor> users_;
  CaptureLog log_;
};

/// Write every cursor's tail as one new segment of `users_per_shard` users,
/// days [end of `log`, end_day), into `store`, durable, and append them to
/// `log` (whose store must be empty or `store`). Returns the bytes written;
/// `log` is unchanged on failure. ShardedCapture::commit and
/// snapshot::save_snapshot both write through it.
Expected<std::uint64_t> append_segments(const std::vector<ShardedCapture::CaptureCursor>& cursors,
                                        std::size_t users_per_shard, std::uint64_t seed,
                                        std::uint32_t resume_digest, std::uint64_t end_day,
                                        const std::string& store, CaptureLog& log);

}  // namespace lingxi::telemetry
