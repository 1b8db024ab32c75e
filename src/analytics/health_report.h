// Post-hoc analytics over an obs timeline file.
//
// A TimelineWriter (src/obs/timeline.h) leaves one CRC-framed record per
// fleet day; this module turns that archive back into operator-facing
// answers: how did each metric move day over day, where did the latency
// distribution sit (bucket-interpolated p50/p95/p99), which SLO alerts
// fired, and — given two timelines from two builds — which metrics moved
// between them. bench/bench_health_report.cpp is the CLI wrapper; the
// two-timeline comparator backs build-to-build regression triage.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/expected.h"
#include "obs/timeline.h"

namespace lingxi::analytics {

/// One metric's trajectory across the timeline's day records.
struct MetricDaySeries {
  std::string name;
  obs::MetricKind kind = obs::MetricKind::kGauge;
  bool deterministic = false;  ///< came from the deterministic section
  std::vector<std::uint64_t> days;
  /// One point per day: gauge value, counter value, or histogram
  /// observation count.
  std::vector<double> values;

  // Day-over-day summary of `values`.
  double first = 0.0;
  double last = 0.0;
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
};

/// Final-day latency digest for one histogram metric.
struct HistogramDigest {
  std::string name;
  std::uint64_t count = 0;
  double sum = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

/// Everything a single timeline says, summarized.
struct TimelineSummary {
  std::uint64_t day_records = 0;
  std::uint64_t first_day = 0;
  std::uint64_t last_day = 0;
  std::vector<MetricDaySeries> series;        ///< sorted by name
  std::vector<HistogramDigest> histograms;    ///< sorted by name, final day
  std::vector<obs::HealthAlert> alerts;       ///< in file order

  /// Series by exact name; nullptr when absent.
  const MetricDaySeries* find(std::string_view name) const noexcept;

  /// Human-readable report.
  void write_text(std::ostream& os) const;
  /// Stable JSON schema `lingxi.obs.health_report/v1`:
  ///   {"schema": ..., "day_records": n, "first_day": d, "last_day": d,
  ///    "metrics": [{"name", "kind", "deterministic", "first", "last",
  ///                 "min", "max", "mean"}...],
  ///    "histograms": [{"name", "count", "sum", "p50", "p95", "p99"}...],
  ///    "alerts": [{"day", "rule", "metric", "observed", "threshold",
  ///                "message"}...]}
  void write_json(std::ostream& os) const;
};

/// Read and summarize one timeline file (corruption propagates from
/// obs::TimelineReader).
Expected<TimelineSummary> summarize_timeline(const std::string& path);

/// One metric whose final-day value moved between two timelines.
struct MetricDelta {
  std::string name;
  double base = 0.0;       ///< final-day value in the base timeline
  double candidate = 0.0;  ///< final-day value in the candidate timeline
  /// (candidate - base) / |base|; candidate/0 reports +/-inf direction via
  /// a +/-1e9 sentinel so sorting stays finite.
  double rel_change = 0.0;
};

/// Two-timeline A/B comparison: final-day values of every metric present in
/// both summaries, flagged when |rel_change| exceeds `threshold`.
struct TimelineComparison {
  std::vector<MetricDelta> flagged;    ///< |rel_change| > threshold, by magnitude
  std::vector<std::string> base_only;  ///< metrics missing from the candidate
  std::vector<std::string> candidate_only;
  std::uint64_t base_alerts = 0;
  std::uint64_t candidate_alerts = 0;

  bool clean() const noexcept {
    return flagged.empty() && base_only.empty() && candidate_only.empty();
  }
  void write_text(std::ostream& os) const;
};

TimelineComparison compare_timelines(const TimelineSummary& base,
                                     const TimelineSummary& candidate,
                                     double threshold);

}  // namespace lingxi::analytics
