// Replay: recompute the offline analyses from a fleet archive instead of
// live simulation (the "analyze many times" half of capture-once /
// query-many).
//
// One streaming pass over an archive rebuilds:
//   * a sim::FleetAccumulator that is bitwise identical (checksum()) to the
//     accumulator the live FleetRunner produced at capture time — the proof
//     that nothing was lost on the way to disk;
//   * the analytics::SessionRecords outputs — per-day MetricAccumulator
//     series (Fig. 12 A/B deltas), per-user-day records (Figs. 13/14) and,
//     opt-in, per-stall-event trajectories (Fig. 15). The archive feeds the
//     same assembler a live PopulationExperiment arm does, so these equal
//     the live records bitwise.
#pragma once

#include <string>
#include <vector>

#include "analytics/experiment.h"
#include "analytics/metrics.h"
#include "common/expected.h"
#include "sim/fleet_runner.h"
#include "telemetry/archive.h"

namespace lingxi::telemetry {

/// Options for Replay::run. (A namespace-scope struct so it can serve as a
/// defaulted argument; nested classes with default member initializers
/// cannot.)
struct ReplayOptions {
  /// Record Fig. 15 stall events (LingXi archives, days from the
  /// intervention day on).
  bool collect_stall_events = false;
};

struct ReplayResult {
  /// Bitwise reconstruction of the live run's accumulator.
  sim::FleetAccumulator fleet;
  /// Per-day aggregates, indexed by day (size == manifest.days).
  std::vector<analytics::MetricAccumulator> daily;
  /// One record per (user, day), user-major, zero-session days included.
  std::vector<analytics::UserDayRecord> user_days;
  /// Per-stall-event trajectories; filled only when
  /// Options::collect_stall_events.
  std::vector<analytics::StallEventRecord> stall_events;
};

class Replay {
 public:
  using Options = ReplayOptions;

  /// One streaming pass over the archive.
  static Expected<ReplayResult> run(const ArchiveReader& reader, Options options = {});
  /// Convenience: open `dir` and replay it.
  static Expected<ReplayResult> run(const std::string& dir, Options options = {});
};

// A/B deltas between two replayed archives: feed the `daily` series of each
// arm to analytics::relative_daily_gap (the vector overload).

}  // namespace lingxi::telemetry
