// Population experiment driver — the synthetic stand-in for the paper's
// production A/B infrastructure (§5.3-§5.5).
//
// Simulates a fixed population of users over D days. Each user keeps a
// persistent network profile, user model (with optional day-to-day tolerance
// drift), and — in the treatment arm — a persistent LingXi instance whose
// long-term state carries across days. LingXi activates on
// `intervention_day` (AA period before, AB period after), exactly mirroring
// the difference-in-differences protocol of Fig. 12.
//
// The driver is a thin shell over sim::FleetRunner: each arm is one fleet
// run (control pins the default parameters, treatment enables LingXi), and
// a telemetry sink feeds the runner's worker callbacks to SessionRecords,
// which assembles the ExperimentResult. Results are deterministic for a
// given seed and independent of `threads` / `predictor_batch` — the
// FleetRunner guarantees.
//
// SessionRecords is the only code that turns sessions into these records:
//   * per-day aggregate metrics (watch time, bitrate, stall) per arm,
//   * per-user-per-day records (assigned parameter, stall exit rate, mean
//     bandwidth) for Figs. 13 and 14,
//   * per-stall-event trajectories (stall time, parameter after update,
//     exit) for Fig. 15.
// Live runs feed it through PopulationExperiment; telemetry::Replay feeds
// it from an archive scan, so a replayed archive yields the live records
// bit for bit.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "abr/abr.h"
#include "analytics/metrics.h"
#include "core/lingxi.h"
#include "predictor/hybrid.h"
#include "scenario/scenario.h"
#include "sim/fleet_runner.h"
#include "telemetry/sink.h"
#include "trace/population.h"
#include "trace/video.h"
#include "user/user_population.h"

namespace lingxi::analytics {

struct ExperimentConfig {
  std::size_t users = 150;
  std::size_t days = 10;
  std::size_t sessions_per_user_day = 12;
  /// Day (0-based) on which LingXi activates in the treatment arm; use
  /// days (== one past the end) for a pure AA run.
  std::size_t intervention_day = 5;
  bool drift_user_tolerance = true;
  bool record_stall_events = false;
  /// FleetRunner worker pool driving each arm (0 = hardware concurrency).
  /// Purely a throughput knob: results are identical at any value. Note the
  /// predictor factory is invoked from worker threads when > 1.
  std::size_t threads = 1;
  /// Lockstep batch for LingXi's Monte Carlo rollouts (0 = keep
  /// `lingxi.monte_carlo.batch_size`); results identical at any value.
  std::size_t predictor_batch = 0;

  user::UserPopulation::Config population;
  trace::PopulationModel::Config network;
  trace::VideoGenerator::Config video;
  core::LingXiConfig lingxi;
  sim::SessionSimulator::Config session;
  /// Scripted world events, applied identically to BOTH arms (the paired
  /// A/B design: the same shocks, arrivals and churn hit control and
  /// treatment, so arm differences isolate LingXi's response). Empty by
  /// default — byte-for-byte the unscripted experiment.
  scenario::ScenarioScript scenario;

  ExperimentConfig();
};

struct UserDayRecord {
  std::size_t user = 0;
  std::size_t day = 0;
  double mean_stall_penalty = 0.0;  ///< LingXi-assigned (or default) params
  double mean_beta = 0.0;
  double stall_events = 0.0;
  double stall_exits = 0.0;         ///< stalls followed by an exit
  double stall_time = 0.0;
  double watch_time = 0.0;
  Kbps mean_bandwidth = 0.0;
  double stall_exit_rate() const noexcept {
    return stall_events > 0.0 ? stall_exits / stall_events : 0.0;
  }
};

struct StallEventRecord {
  std::size_t user = 0;
  std::size_t event_index = 0;  ///< running stall-event count for this user
  double stall_time = 0.0;
  double param_beta_after = 0.0;
  double param_stall_after = 0.0;
  bool exited = false;
  /// Ground truth for the Fig. 15 narrative: the base user's tolerable
  /// stall (UserTelemetry::tolerable_stall, the value archives carry). A
  /// churned slot's events carry the final generation's tolerance.
  double user_tolerance = 0.0;
};

struct ExperimentResult {
  std::vector<MetricAccumulator> daily;   ///< indexed by day
  std::vector<UserDayRecord> user_days;
  std::vector<StallEventRecord> stall_events;
};

/// Assembles an ExperimentResult from (user, day, params_after,
/// SessionResult) tuples plus one tolerance per user. Buffers are per user
/// and per (user, day): calls for different users may run concurrently
/// (the FleetRunner sink contract), calls for one user must come in
/// chronological (day, session) order. Every sum is scoped to one
/// (user, day) and merged in user order by finish(), so the result is
/// independent of thread count, scheduling and of where a run was split.
class SessionRecords {
 public:
  /// `stall_events`: record Fig. 15 stall events for sessions on days
  /// >= `intervention_day` (pass false for a control arm).
  SessionRecords(std::size_t users, bool stall_events, std::size_t intervention_day);

  void add(std::size_t user, std::size_t day, const abr::QoeParams& params_after,
           const sim::SessionResult& session);
  /// Label the user's stall events with `tolerable_stall`. A churned slot
  /// calls this once per generation; the last call wins.
  void end_user(std::size_t user, double tolerable_stall);

  /// Records for days [0, days): one UserDayRecord per (user, day),
  /// zero-session days included, user-major; per-day metrics merged in
  /// user order; stall events user-major.
  ExperimentResult finish(std::size_t days) const;

 private:
  struct DayBuffer {
    MetricAccumulator metrics;
    UserDayRecord rec;
    double param_beta_sum = 0.0;
    double param_stall_sum = 0.0;
    double bw_sum = 0.0;
    std::size_t bw_count = 0;
    std::size_t session_count = 0;
  };
  struct UserBuffer {
    std::vector<DayBuffer> days;  ///< grows to the last day played
    std::vector<StallEventRecord> stall_events;
    double tolerable_stall = 0.0;
  };

  bool stall_events_;
  std::size_t intervention_day_;
  std::vector<UserBuffer> users_;
};

/// The live-run adapter: a FleetRunner telemetry sink feeding SessionRecords
/// (record_session -> add, record_user -> end_user). Not owning.
class SessionRecordsSink final : public telemetry::TelemetrySink {
 public:
  explicit SessionRecordsSink(SessionRecords& records) : records_(records) {}

  void begin_fleet(const sim::FleetConfig&, std::uint64_t) override {}
  void record_session(const telemetry::SessionContext& ctx,
                      const sim::SessionResult& session) override {
    records_.add(ctx.user_index, ctx.day, ctx.params_after, session);
  }
  void record_user(const telemetry::UserTelemetry& user) override {
    records_.end_user(user.user_index, user.tolerable_stall);
  }

 private:
  SessionRecords& records_;
};

class PopulationExperiment {
 public:
  using AbrFactory = std::function<std::unique_ptr<abr::AbrAlgorithm>()>;

  /// `make_predictor` supplies the (shared) hybrid predictor LingXi uses in
  /// the treatment arm.
  PopulationExperiment(ExperimentConfig config, AbrFactory abr_factory,
                       std::function<predictor::HybridExitPredictor()> make_predictor);

  /// Run one arm. `treatment` enables LingXi from intervention_day onward.
  /// The same `seed` reproduces the same user population / network worlds,
  /// so control and treatment arms are paired.
  ExperimentResult run(bool treatment, std::uint64_t seed) const;

  const ExperimentConfig& config() const noexcept { return config_; }

 private:
  sim::FleetConfig fleet_config(bool treatment) const;

  ExperimentConfig config_;
  AbrFactory abr_factory_;
  std::function<predictor::HybridExitPredictor()> make_predictor_;
};

/// Relative per-day gaps (treatment - control) / control for a metric series.
/// The vector overload also serves day series replayed from telemetry
/// archives (telemetry::Replay).
std::vector<double> relative_daily_gap(const std::vector<MetricAccumulator>& treatment,
                                       const std::vector<MetricAccumulator>& control,
                                       double (MetricAccumulator::*metric)() const);
std::vector<double> relative_daily_gap(const ExperimentResult& treatment,
                                       const ExperimentResult& control,
                                       double (MetricAccumulator::*metric)() const);

}  // namespace lingxi::analytics
