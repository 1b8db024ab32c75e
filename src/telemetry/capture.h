// Sharded session capture: the TelemetrySink that builds fleet archives.
//
// ShardedCapture buffers encoded records per user — the finest shard, which
// makes concurrent capture lock-free: FleetRunner drives each user from
// exactly one worker, so each buffer has a single writer and the buffer
// table itself is pre-sized in begin_fleet() before any worker starts.
// finish() then merges the buffers in deterministic ascending user order and
// regroups them into archive shard files of `users_per_shard` users each.
//
// The single-writer-per-user property survives the cohort waves: a cohort interleaves the *users* of a shard on one worker, but
// each user's sessions are still recorded in chronological (day, session)
// order (a debug assertion pins this), so per-user buffers — and therefore
// the merged archive bytes — cannot observe the interleaving.
//
// Consequently the archive bytes depend only on (fleet config, seed, archive
// users_per_shard) — never on the thread count or the runner's scheduling
// shard size. That is what lets one capture serve any
// number of replays as the ground truth for paired comparisons.
#pragma once

#include <cstdint>
#include <vector>

#include "telemetry/archive.h"
#include "telemetry/sink.h"

namespace lingxi::telemetry {

class ShardedCapture final : public TelemetrySink {
 public:
  struct Config {
    /// Users per archive shard file (archive granularity; independent of the
    /// runner's scheduling shard size).
    std::size_t users_per_shard = 64;
  };

  ShardedCapture();
  explicit ShardedCapture(Config config);

  // TelemetrySink -----------------------------------------------------------
  void begin_fleet(const sim::FleetConfig& config, std::uint64_t seed) override;
  void record_session(const SessionContext& ctx,
                      const sim::SessionResult& session) override;
  void record_user(const UserTelemetry& user) override;

  /// Merge the per-user buffers into the final archive. Call after
  /// FleetRunner::run() returns; the capture can then be reused via a new
  /// begin_fleet().
  FleetArchive finish() const;

  /// Session records buffered so far, assuming one trailing user record per
  /// user slot. Scenario churn emits an extra user record per departed
  /// generation, so under a churn script this undercounts by the number of
  /// departures — use the replayed accumulator for exact scenario tallies.
  std::size_t session_count() const noexcept;

  /// One user's capture position: the framed records buffered so far plus
  /// the chronological cursor. The snapshot subsystem persists these at a
  /// day boundary so a resumed fleet appends days [D, ...) to the restored
  /// buffers and finish() emits archive bytes identical to an unsplit run.
  struct CaptureCursor {
    std::vector<unsigned char> bytes;  ///< framed records, chronological
    std::uint64_t records = 0;
    /// (day << 32) | session of the last record + 1, for the debug-only
    /// chronological-order assertion under interleaved execution.
    std::uint64_t next_expected_at_least = 0;

    bool operator==(const CaptureCursor&) const = default;
  };

  /// Every user's capture position (index == user index). Read at a day
  /// boundary, i.e. between FleetRunner::run_days legs; a snapshot that
  /// must outlive further recording copies it.
  const std::vector<CaptureCursor>& cursors() const noexcept { return users_; }
  /// Users per archive shard (Config::users_per_shard).
  std::size_t users_per_shard() const noexcept { return config_.users_per_shard; }
  /// Restore positions exported by cursors(). Must follow a begin_fleet()
  /// with the same fleet config and seed (which pre-sizes the user table);
  /// `cursors` must hold exactly one entry per user.
  void restore_cursors(std::vector<CaptureCursor> cursors);

 private:
  Config config_;
  ArchiveManifest manifest_;  ///< shard index filled in by finish()
  std::vector<CaptureCursor> users_;
};

}  // namespace lingxi::telemetry
