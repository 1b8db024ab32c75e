#include "analytics/experiment.h"

#include "common/assert.h"

namespace lingxi::analytics {
namespace {

/// Stall shorter than this is sub-perceptual: it is neither a stall event
/// nor a stall exit.
constexpr Seconds kStallThreshold = 0.05;

}  // namespace

SessionRecords::SessionRecords(std::size_t users, bool stall_events,
                               std::size_t intervention_day)
    : stall_events_(stall_events), intervention_day_(intervention_day), users_(users) {}

void SessionRecords::add(std::size_t user_index, std::size_t day,
                         const abr::QoeParams& params_after,
                         const sim::SessionResult& session) {
  UserBuffer& user = users_[user_index];
  if (day >= user.days.size()) user.days.resize(day + 1);
  DayBuffer& buf = user.days[day];
  buf.metrics.add(session);

  UserDayRecord& rec = buf.rec;
  rec.watch_time += session.watch_time;
  rec.stall_time += session.total_stall;
  rec.stall_events += static_cast<double>(session.stall_events);
  // At most one per session: the session ends at the exit.
  if (sim::exited_during_stall(session, kStallThreshold)) rec.stall_exits += 1.0;
  for (const auto& seg : session.segments) {
    buf.bw_sum += seg.throughput;
    ++buf.bw_count;
  }
  buf.param_beta_sum += params_after.hyb_beta;
  buf.param_stall_sum += params_after.stall_penalty;
  ++buf.session_count;

  if (!stall_events_ || day < intervention_day_) return;
  for (const auto& seg : session.segments) {
    if (seg.stall_time <= kStallThreshold) continue;
    StallEventRecord ev;
    ev.user = user_index;
    ev.event_index = user.stall_events.size();
    ev.stall_time = seg.stall_time;
    ev.param_beta_after = params_after.hyb_beta;
    ev.param_stall_after = params_after.stall_penalty;
    ev.exited = session.exited && seg.index + 2 >= session.segments.size();
    user.stall_events.push_back(ev);
  }
}

void SessionRecords::end_user(std::size_t user, double tolerable_stall) {
  users_[user].tolerable_stall = tolerable_stall;
}

ExperimentResult SessionRecords::finish(std::size_t days) const {
  ExperimentResult result;
  result.daily.resize(days);
  result.user_days.reserve(users_.size() * days);
  const DayBuffer absent;
  for (std::size_t u = 0; u < users_.size(); ++u) {
    const UserBuffer& user = users_[u];
    LINGXI_ASSERT(user.days.size() <= days);
    for (std::size_t d = 0; d < days; ++d) {
      const DayBuffer& buf = d < user.days.size() ? user.days[d] : absent;
      result.daily[d].merge(buf.metrics);
      UserDayRecord rec = buf.rec;
      rec.user = u;
      rec.day = d;
      // Divide by the sessions the day actually ran — under a scenario the
      // curve / flash-crowd count differs from the configured base (and a
      // zero-session day keeps the default-zero means).
      const double sessions = static_cast<double>(buf.session_count);
      rec.mean_beta = buf.session_count > 0 ? buf.param_beta_sum / sessions : 0.0;
      rec.mean_stall_penalty = buf.session_count > 0 ? buf.param_stall_sum / sessions : 0.0;
      rec.mean_bandwidth =
          buf.bw_count > 0 ? buf.bw_sum / static_cast<double>(buf.bw_count) : 0.0;
      result.user_days.push_back(rec);
    }
    for (StallEventRecord ev : user.stall_events) {
      ev.user_tolerance = user.tolerable_stall;
      result.stall_events.push_back(ev);
    }
  }
  return result;
}

ExperimentConfig::ExperimentConfig() {
  // The production A/B test tunes HYB's beta (§5.3): search beta only.
  lingxi.space.optimize_stall = false;
  lingxi.space.optimize_switch = false;
  lingxi.space.optimize_beta = true;
}

PopulationExperiment::PopulationExperiment(
    ExperimentConfig config, AbrFactory abr_factory,
    std::function<predictor::HybridExitPredictor()> make_predictor)
    : config_(std::move(config)),
      abr_factory_(std::move(abr_factory)),
      make_predictor_(std::move(make_predictor)) {
  LINGXI_ASSERT(abr_factory_ != nullptr);
  LINGXI_ASSERT(make_predictor_ != nullptr);
  LINGXI_ASSERT(config_.users > 0 && config_.days > 0);
}

sim::FleetConfig PopulationExperiment::fleet_config(bool treatment,
                                                    std::size_t days) const {
  sim::FleetConfig fleet;
  fleet.users = config_.users;
  fleet.days = days;
  fleet.sessions_per_user_day = config_.sessions_per_user_day;
  fleet.threads = config_.threads;
  fleet.enable_lingxi = treatment;
  fleet.intervention_day = treatment ? config_.intervention_day : 0;
  fleet.drift_user_tolerance = config_.drift_user_tolerance;
  fleet.predictor_batch = config_.predictor_batch;
  fleet.fixed_params = config_.lingxi.default_params;  // control arm pins defaults
  fleet.population = config_.population;
  fleet.network = config_.network;
  fleet.video = config_.video;
  fleet.lingxi = config_.lingxi;
  fleet.session = config_.session;
  fleet.scenario = config_.scenario;
  return fleet;
}

SessionRecords PopulationExperiment::make_records(bool treatment) const {
  return SessionRecords(config_.users, config_.record_stall_events && treatment,
                        config_.intervention_day);
}

ExperimentResult PopulationExperiment::run(bool treatment, std::uint64_t seed) const {
  // One fleet run per arm. Population, network and per-session worlds derive
  // from (seed, user, day, session) streams inside the runner, so control
  // and treatment arms are paired for a given seed: the treatment series
  // differs from control only through LingXi's parameter changes — the
  // variance-reduction analogue of the paper's 30M-user population.
  sim::FleetRunner runner(fleet_config(treatment, config_.days), abr_factory_);
  if (treatment) runner.set_predictor_factory(make_predictor_);
  SessionRecords records = make_records(treatment);
  SessionRecordsSink sink(records);
  runner.set_telemetry_sink(&sink);
  sim::FleetRunStats stats;
  runner.run(seed, &stats);
  ExperimentResult result = records.finish(config_.days);
  result.batching = stats;
  return result;
}

PopulationExperiment::ArmCheckpoint PopulationExperiment::run_to_day(
    bool treatment, std::uint64_t seed, std::size_t day) const {
  LINGXI_ASSERT(day > 0 && day < config_.days);
  sim::FleetRunner runner(fleet_config(treatment, config_.days), abr_factory_);
  if (treatment) runner.set_predictor_factory(make_predictor_);
  ArmCheckpoint checkpoint{{}, make_records(treatment), {}};
  SessionRecordsSink sink(checkpoint.records);
  runner.set_telemetry_sink(&sink);
  runner.run_days(seed, 0, day, nullptr, &checkpoint.fleet, &checkpoint.batching);
  return checkpoint;
}

ExperimentResult PopulationExperiment::resume(bool treatment, std::uint64_t seed,
                                              const ArmCheckpoint& checkpoint,
                                              std::size_t total_days) const {
  const std::size_t total = total_days != 0 ? total_days : config_.days;
  const std::size_t boundary = checkpoint.fleet.next_day;
  LINGXI_ASSERT(boundary > 0 && boundary < total);
  LINGXI_ASSERT(checkpoint.fleet.users.size() == config_.users);

  // Days before `boundary` never re-simulate: the fleet resumes from the
  // checkpointed per-user state and the continuation feeds the checkpoint's
  // assembler. A horizon beyond config().days is legal — no pre-boundary
  // draw depends on the calendar length.
  sim::FleetRunner runner(fleet_config(treatment, total), abr_factory_);
  if (treatment) runner.set_predictor_factory(make_predictor_);
  SessionRecords records = checkpoint.records;
  SessionRecordsSink sink(records);
  runner.set_telemetry_sink(&sink);
  sim::FleetRunStats continuation_stats;
  runner.run_days(seed, boundary, total, &checkpoint.fleet, nullptr,
                  &continuation_stats);
  ExperimentResult result = records.finish(total);
  // Batching counters merge across legs — a resumed experiment reports the
  // same pool totals as an uninterrupted one (test_analytics.cpp pins this).
  result.batching = checkpoint.batching;
  result.batching.merge(continuation_stats);
  return result;
}

std::vector<double> relative_daily_gap(const std::vector<MetricAccumulator>& treatment,
                                       const std::vector<MetricAccumulator>& control,
                                       double (MetricAccumulator::*metric)() const) {
  LINGXI_ASSERT(treatment.size() == control.size());
  std::vector<double> gaps;
  gaps.reserve(control.size());
  for (std::size_t d = 0; d < control.size(); ++d) {
    const double c = (control[d].*metric)();
    const double t = (treatment[d].*metric)();
    gaps.push_back(c != 0.0 ? (t - c) / c : 0.0);
  }
  return gaps;
}

std::vector<double> relative_daily_gap(const ExperimentResult& treatment,
                                       const ExperimentResult& control,
                                       double (MetricAccumulator::*metric)() const) {
  return relative_daily_gap(treatment.daily, control.daily, metric);
}

}  // namespace lingxi::analytics
