// Fleet observability: declarative SLO watchdog.
//
// A HealthMonitor holds a small set of declarative SLO rules and evaluates
// them against the merged Registry snapshot at each fleet-day boundary (the
// same checkpoint-hook seam the timeline rides). Four rule kinds cover the
// operational questions a long-lived fleet daemon needs answered:
//
//   kGaugeFloor    — gauge must stay >= threshold (sessions/sec floor)
//   kGaugeCeiling  — gauge must stay <= threshold (RSS ceiling)
//   kRateCeiling   — a counter may grow by at most `threshold` per day
//                    (checkpoint.commit.failures > 0, error budgets)
//   kStall         — a counter must grow every day (progress watchdog)
//
// Rules LATCH: an alert is emitted on the transition into violation and the
// rule stays silent while the violation persists, so a permanently degraded
// metric raises exactly one alert, not one per remaining day (the rule
// re-arms when the metric recovers). Alerts are appended to the active
// TimelineWriter as `health.alert` records and retained in memory; drivers
// turn healthy() == false into a non-zero exit.
//
// Rules over deterministic metrics (the `sim.fleet.*` gauges) inherit the
// determinism contract: the same rule first fires on the same fleet day in
// every cell of the threads x shard x batch grid and across a kill/resume
// splice (pinned in tests/test_properties.cpp).
//
// A resumed leg re-alerts. The latches (and counter baselines) are
// process-local and not part of a snapshot, so a monitor in a process
// resumed from a checkpoint starts with every rule armed and fires again
// for any violation still standing at the checkpoint: an uninterrupted run
// and the same run split into legs raise the same first alert per rule,
// but the split run may raise more. That is why the parity harness compares
// each rule's first alert.
//
// Like Registry and TimelineWriter, the monitor is a runtime-nullable
// process-global install consulted by PeriodicSampler once per day boundary.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/expected.h"
#include "obs/metrics.h"
#include "obs/timeline.h"

namespace lingxi::obs {

enum class SloKind {
  kGaugeFloor,    ///< gauge < threshold violates
  kGaugeCeiling,  ///< gauge > threshold violates
  kRateCeiling,   ///< counter delta per day > threshold violates
  kStall,         ///< counter delta per day == 0 violates (threshold unused)
};

/// One declarative SLO rule.
struct SloRule {
  SloKind kind = SloKind::kGaugeFloor;
  std::string metric;     ///< registry metric name to watch
  double threshold = 0.0;
  std::string name;       ///< display name; defaults from kind:metric when empty
};

/// Parse a rule from the CLI grammar `kind:metric:threshold[:name]` with
/// kind one of floor | ceiling | rate | stall (stall takes no threshold:
/// `stall:metric[:name]`). Malformed specs are Error::kParse.
Expected<SloRule> parse_slo_rule(std::string_view spec);

class HealthMonitor {
 public:
  explicit HealthMonitor(std::vector<SloRule> rules);

  /// The process-wide active monitor, or nullptr when no SLOs are armed.
  static HealthMonitor* active() noexcept;
  static void install(HealthMonitor* m) noexcept;

  /// Evaluate every rule against `snapshot` for fleet day `day`, emitting
  /// alerts for rules newly entering violation (into the active
  /// TimelineWriter, if any, and the in-memory list). Gauge rules skip
  /// absent metrics; rate/stall rules treat an absent counter as 0 and
  /// need two evaluations before they can fire (the first establishes the
  /// baseline for the day-over-day delta).
  void evaluate(std::uint64_t day, const RegistrySnapshot& snapshot);

  /// False once any rule has fired at least once.
  bool healthy() const noexcept { return alerts_.empty(); }
  const std::vector<HealthAlert>& alerts() const noexcept { return alerts_; }
  const std::vector<SloRule>& rules() const noexcept { return rules_; }

 private:
  struct RuleState {
    bool violated = false;       ///< latch: inside a violation episode
    bool have_last = false;      ///< counter baseline established
    std::uint64_t last_count = 0;
  };

  void fire(std::uint64_t day, const SloRule& rule, double observed, std::string message);

  std::vector<SloRule> rules_;
  std::vector<RuleState> states_;  ///< parallel to rules_
  std::vector<HealthAlert> alerts_;
};

}  // namespace lingxi::obs
