// Fleet observability: durable per-day health timeline.
//
// A TimelineWriter turns the exit-time Registry dump into an append-only
// time series: one CRC-framed record per fleet day (schema
// `lingxi.obs.timeline/v1`), written at the same day-boundary seam the
// checkpoint hook rides, so a long-lived fleet daemon leaves a replayable
// "what has this deployment been doing, day over day" trail instead of a
// single snapshot at exit.
//
// Each day record is partitioned into two sections:
//
//   * a DETERMINISTIC section — the fleet-day gauges PeriodicSampler derives
//     from the merged FleetAccumulator (`sim.fleet.*` except
//     `sim.fleet.sessions_per_sec`; see timeline_deterministic()). These are
//     pure functions of (config, seed, day), so the section's bytes are
//     bitwise identical across threads x users_per_shard x predictor_batch
//     AND across checkpoint/kill/resume splices — the
//     ObservabilityParity contract extended onto disk, pinned by the
//     DeterministicTimeline grid in tests/test_properties.cpp;
//   * a WALL-CLOCK section — everything else in the registry (latency
//     histograms, RSS, sessions/sec, batching counters), which measures the
//     machine rather than the simulation and legitimately differs run to run.
//
// Records are common/bytes.h frames with magic "LXTL", version 1 — the
// same codec as the logstore LXRC records — so truncated frames, flipped
// bits and unknown schema versions surface as Error::kCorrupt from the
// reader, never as UB.
//
// The writer is a runtime-nullable process-global install, like Registry
// and Tracer: when one is active (and a Registry is installed),
// PeriodicSampler appends a day record per fleet day. FleetRunner collects
// fleet-wide per-day accumulator totals in-band during each leg and emits
// the interior day records post-hoc at leg end, so every fleet day gets a
// record without forcing per-day leg chaining — the deterministic section
// is exact per day, while the wall-clock section of interior records is
// sampled at leg-end (its resolution is the leg cadence). Writing is
// serving-style:
// the first I/O error is latched in status() and later appends become
// no-ops — a lost timeline costs observability, never the run.
#pragma once

#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/expected.h"
#include "obs/metrics.h"

namespace lingxi::obs {

/// The timeline schema identifier, stored in the file header record.
inline constexpr std::string_view kTimelineSchema = "lingxi.obs.timeline/v1";

/// True when `name`/`kind` belongs to the deterministic section of a day
/// record: the accumulator-derived `sim.fleet.*` gauges, minus the
/// wall-clock rate. Everything else — histograms, RSS, occupancy, every
/// counter (registry counters reset on process restart, so they cannot
/// splice) — goes to the wall-clock section.
bool timeline_deterministic(std::string_view name, MetricKind kind);

/// One structured SLO violation (see obs/health.h for the rules that emit
/// them). Alerts ride the timeline as their own record type.
struct HealthAlert {
  std::uint64_t day = 0;
  std::string rule;     ///< rule name (unique per monitor)
  std::string metric;   ///< registry metric the rule watches
  double observed = 0.0;
  double threshold = 0.0;
  std::string message;  ///< human-readable "what fired and why"

  bool operator==(const HealthAlert&) const = default;
};

/// One decoded timeline record.
struct TimelineRecord {
  enum class Type : std::uint32_t { kDay = 1, kAlert = 2 };

  Type type = Type::kDay;
  std::uint64_t day = 0;

  // kDay payload.
  std::vector<MetricSnapshot> deterministic;
  std::vector<MetricSnapshot> wallclock;
  /// The deterministic section's raw encoded bytes — the unit of the
  /// bitwise-parity contract (compare these, not re-encodings).
  std::vector<unsigned char> deterministic_bytes;

  // kAlert payload.
  HealthAlert alert;
};

/// Appends day snapshots and health alerts to one timeline file.
class TimelineWriter {
 public:
  /// Opens (truncates) `path` and writes the schema header record. A failed
  /// open is reported through status(); every later append is then a no-op.
  explicit TimelineWriter(const std::string& path);
  ~TimelineWriter();
  TimelineWriter(const TimelineWriter&) = delete;
  TimelineWriter& operator=(const TimelineWriter&) = delete;

  /// The process-wide active writer, or nullptr when no timeline is being
  /// kept. Install/uninstall while no fleet is running.
  static TimelineWriter* active() noexcept;
  static void install(TimelineWriter* w) noexcept;

  /// Append one day record: `snapshot` is partitioned by
  /// timeline_deterministic() into the two sections.
  void append_day(std::uint64_t day, const RegistrySnapshot& snapshot);
  /// Append one health.alert record.
  void append_alert(const HealthAlert& alert);

  /// Flush and report the first write error (OK while everything landed).
  /// Idempotent; also invoked by the destructor.
  Status close();

  /// First I/O error, if any. Appends after a failure are dropped.
  const Status& status() const noexcept { return status_; }
  /// Day records appended so far (header and alert records excluded).
  std::uint64_t days_written() const noexcept { return days_written_; }

 private:
  void append(const std::vector<unsigned char>& payload);

  std::string path_;
  std::ofstream out_;
  Status status_;
  std::uint64_t days_written_ = 0;
  bool closed_ = false;
};

/// Streaming reader over one timeline file.
class TimelineReader {
 public:
  /// Opens `path` and validates the schema header record. Unknown schema or
  /// a torn header is Error::kCorrupt; an unopenable file Error::kIo.
  static Expected<TimelineReader> open(const std::string& path);

  /// True while records remain (clean end-of-file not yet reached).
  bool has_next();
  /// Decode the next record. A file ending mid-frame, a CRC mismatch or a
  /// malformed payload is Error::kCorrupt.
  Expected<TimelineRecord> next();

  /// Drain every remaining record, in file order.
  Expected<std::vector<TimelineRecord>> read_all();

 private:
  explicit TimelineReader(std::shared_ptr<std::ifstream> in) : in_(std::move(in)) {}

  /// Shared_ptr so the reader stays copyable/movable through Expected.
  std::shared_ptr<std::ifstream> in_;
};

}  // namespace lingxi::obs
