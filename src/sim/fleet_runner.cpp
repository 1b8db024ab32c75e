#include "sim/fleet_runner.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "common/assert.h"
#include "common/crc32.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/sampler.h"
#include "obs/timeline.h"
#include "obs/timer.h"
#include "obs/trace.h"
#include "telemetry/sink.h"
#include "user/data_driven.h"

namespace lingxi::sim {
namespace {

// Purpose tags for mix_seed's third argument: the high bits name the stream
// kind so a drift stream can never alias a session stream for any
// (day, session) combination. The low 48 bits carry (day << 16) | session
// for sessions, or the day for drift.
constexpr std::uint64_t kPopulationStream = 0ULL << 48;
constexpr std::uint64_t kDriftStream = 1ULL << 48;
constexpr std::uint64_t kSessionStream = 2ULL << 48;

std::int64_t to_ticks(double value, double scale) {
  return static_cast<std::int64_t>(std::llround(value * scale));
}

/// min(a + b, INT64_MAX) for non-negative addends, latching `overflowed` on
/// clamp. Saturating addition of non-negatives is exactly
/// min(true_total, INT64_MAX), so it stays associative and commutative — the
/// property that keeps clamped sums (and the latch) partition-independent.
std::int64_t saturating_add_ticks(std::int64_t a, std::int64_t b,
                                  std::uint64_t& overflowed) {
  std::int64_t sum = 0;
  if (__builtin_add_overflow(a, b, &sum)) {
    overflowed = 1;
    return std::numeric_limits<std::int64_t>::max();
  }
  return sum;
}

}  // namespace

void FleetAccumulator::add_session(const SessionResult& session, bool measured) {
  ++sessions;
  if (session.completed()) ++completed;
  if (measured) {
    ++measured_sessions;
    if (session.completed()) ++measured_completed;
  }
  stall_events += session.stall_events;
  if (exited_during_stall(session)) ++stall_exits;
  quality_switches += session.quality_switches;

  watch_ticks = saturating_add_ticks(watch_ticks, to_ticks(session.watch_time, kTicksPerSecond),
                                     overflowed);
  stall_ticks = saturating_add_ticks(stall_ticks, to_ticks(session.total_stall, kTicksPerSecond),
                                     overflowed);
  startup_ticks = saturating_add_ticks(
      startup_ticks, to_ticks(session.startup_delay, kTicksPerSecond), overflowed);
  const std::int64_t bitrate_time =
      to_ticks(session.mean_bitrate * session.watch_time, kBitrateTicksPerKbpsSec);
  // The documented ~5e10 session-second bound on the kbps-ms product is
  // enforced in every build type: past it the sums saturate and `overflowed`
  // latches (a detectable run error) instead of wrapping into silently
  // corrupt mean_bitrate.
  LINGXI_DASSERT(bitrate_time >= 0);
  bitrate_time_ticks = saturating_add_ticks(bitrate_time_ticks, bitrate_time, overflowed);
}

void FleetAccumulator::add_lingxi_stats(const core::LingXiStats& stats) {
  lingxi_triggers += stats.triggers;
  lingxi_optimizations += stats.optimizations_run;
  lingxi_pruned_preplay += stats.pruned_preplay;
  lingxi_mc_evaluations += stats.mc_evaluations;
  lingxi_mc_rollouts_pruned += stats.mc_rollouts_pruned;
}

void FleetAccumulator::merge(const FleetAccumulator& other) {
  sessions += other.sessions;
  completed += other.completed;
  measured_sessions += other.measured_sessions;
  measured_completed += other.measured_completed;
  stall_events += other.stall_events;
  stall_exits += other.stall_exits;
  quality_switches += other.quality_switches;
  users += other.users;
  watch_ticks = saturating_add_ticks(watch_ticks, other.watch_ticks, overflowed);
  stall_ticks = saturating_add_ticks(stall_ticks, other.stall_ticks, overflowed);
  startup_ticks = saturating_add_ticks(startup_ticks, other.startup_ticks, overflowed);
  bitrate_time_ticks =
      saturating_add_ticks(bitrate_time_ticks, other.bitrate_time_ticks, overflowed);
  lingxi_triggers += other.lingxi_triggers;
  lingxi_optimizations += other.lingxi_optimizations;
  lingxi_pruned_preplay += other.lingxi_pruned_preplay;
  lingxi_mc_evaluations += other.lingxi_mc_evaluations;
  lingxi_mc_rollouts_pruned += other.lingxi_mc_rollouts_pruned;
  adjusted_user_days += other.adjusted_user_days;
  overflowed |= other.overflowed;
}

double FleetAccumulator::total_watch_time() const noexcept {
  return static_cast<double>(watch_ticks) / kTicksPerSecond;
}

double FleetAccumulator::total_stall_time() const noexcept {
  return static_cast<double>(stall_ticks) / kTicksPerSecond;
}

double FleetAccumulator::total_startup_delay() const noexcept {
  return static_cast<double>(startup_ticks) / kTicksPerSecond;
}

double FleetAccumulator::mean_bitrate() const noexcept {
  if (watch_ticks == 0) return 0.0;
  const double kbps_seconds =
      static_cast<double>(bitrate_time_ticks) / kBitrateTicksPerKbpsSec;
  return kbps_seconds / total_watch_time();
}

double FleetAccumulator::completion_rate() const noexcept {
  return sessions == 0 ? 0.0
                       : static_cast<double>(completed) / static_cast<double>(sessions);
}

double FleetAccumulator::measured_completion_rate() const noexcept {
  return measured_sessions == 0 ? 0.0
                                : static_cast<double>(measured_completed) /
                                      static_cast<double>(measured_sessions);
}

double FleetAccumulator::exit_rate() const noexcept {
  return sessions == 0 ? 0.0
                       : static_cast<double>(sessions - completed) /
                             static_cast<double>(sessions);
}

double FleetAccumulator::stall_exit_rate() const noexcept {
  return stall_events == 0
             ? 0.0
             : static_cast<double>(stall_exits) / static_cast<double>(stall_events);
}

double FleetAccumulator::stall_per_10k() const noexcept {
  return watch_ticks == 0
             ? 0.0
             : 1e4 * static_cast<double>(stall_ticks) / static_cast<double>(watch_ticks);
}

std::uint32_t FleetAccumulator::checksum() const {
  // Serialize the integer state in declaration order. Field values, not the
  // struct bytes, so padding can never leak in.
  const std::uint64_t fields[] = {
      sessions,
      completed,
      measured_sessions,
      measured_completed,
      stall_events,
      stall_exits,
      quality_switches,
      users,
      static_cast<std::uint64_t>(watch_ticks),
      static_cast<std::uint64_t>(stall_ticks),
      static_cast<std::uint64_t>(startup_ticks),
      static_cast<std::uint64_t>(bitrate_time_ticks),
      lingxi_triggers,
      lingxi_optimizations,
      lingxi_pruned_preplay,
      lingxi_mc_evaluations,
      lingxi_mc_rollouts_pruned,
      adjusted_user_days,
      overflowed,
  };
  return crc32(reinterpret_cast<const unsigned char*>(fields), sizeof(fields));
}

void FleetRunStats::merge(const FleetRunStats& other) noexcept {
  pool_flushes += other.pool_flushes;
  pool_queries += other.pool_queries;
}

FleetRunner::FleetRunner(FleetConfig config, AbrFactory abr_factory)
    : config_(std::move(config)), abr_factory_(std::move(abr_factory)) {
  LINGXI_ASSERT(abr_factory_ != nullptr);
  LINGXI_ASSERT(config_.days > 0 && config_.days < (1ULL << 32));
  LINGXI_ASSERT(config_.sessions_per_user_day > 0);
  // Session index must fit the 16-bit slot of the session stream key.
  LINGXI_ASSERT(config_.sessions_per_user_day < (1ULL << 16));
  // users_per_shard is documented as "results identical for any value";
  // honour that for the 0 edge too by clamping it to the smallest
  // well-defined granularity instead of dividing by zero downstream.
  if (config_.users_per_shard == 0) config_.users_per_shard = 1;
  if (config_.predictor_batch > 0) {
    config_.lingxi.monte_carlo.batch_size = config_.predictor_batch;
  }
  if (!config_.scenario.empty()) {
    const Status valid = config_.scenario.validate(config_.users, config_.days);
    LINGXI_ASSERT(valid.ok());
  }
  // Default factory: the fleet population, or the scenario cohort override
  // for slots a CohortOverride names. Captured by value — the runner may be
  // moved/copied after construction.
  std::vector<std::pair<scenario::Cohort, user::UserPopulation>> overrides;
  overrides.reserve(config_.scenario.cohorts.size());
  for (const auto& cohort : config_.scenario.cohorts) {
    overrides.emplace_back(cohort.cohort, user::UserPopulation(cohort.population));
  }
  const user::UserPopulation population(config_.population);
  user_factory_ = [population, overrides](std::size_t user, Rng& rng) {
    for (const auto& [cohort, pop] : overrides) {
      if (cohort.contains(user)) return pop.sample(rng);
    }
    return population.sample(rng);
  };
}

void FleetRunner::set_user_factory(UserFactory factory) {
  LINGXI_ASSERT(factory != nullptr);
  user_factory_ = std::move(factory);
}

void FleetRunner::set_predictor_factory(PredictorFactory factory) {
  predictor_factory_ = std::move(factory);
}

FleetAccumulator FleetRunner::run(std::uint64_t seed, FleetRunStats* stats) const {
  return run_days(seed, 0, config_.days, nullptr, nullptr, stats);
}

void FleetRunner::set_checkpoint_hook(CheckpointHook hook, std::size_t every_k_days) {
  checkpoint_hook_ = std::move(hook);
  checkpoint_every_k_days_ = every_k_days;
}

namespace {

/// Fleet facts for one day boundary — every field a pure function of
/// (config, seed, day) via the merged accumulator, so the sampler's
/// `sim.fleet.*` gauges (the timeline's deterministic section) splice
/// bitwise across chained legs and resumed runs.
obs::FleetDayFacts day_facts(std::size_t day, std::size_t live_users,
                             const FleetAccumulator& acc) {
  obs::FleetDayFacts facts;
  facts.day = day;
  facts.live_users = live_users;
  facts.sessions_total = acc.sessions;
  facts.completed_total = acc.completed;
  facts.stall_events_total = acc.stall_events;
  facts.stall_exits_total = acc.stall_exits;
  facts.quality_switches_total = acc.quality_switches;
  facts.lingxi_optimizations_total = acc.lingxi_optimizations;
  facts.adjusted_user_days_total = acc.adjusted_user_days;
  facts.watch_seconds_total = acc.total_watch_time();
  facts.stall_seconds_total = acc.total_stall_time();
  facts.mean_bitrate_kbps = acc.mean_bitrate();
  facts.completion_rate = acc.completion_rate();
  return facts;
}

}  // namespace

FleetAccumulator FleetRunner::run_days(std::uint64_t seed, std::size_t first_day,
                                       std::size_t last_day, const FleetDayState* resume,
                                       FleetDayState* out_state,
                                       FleetRunStats* stats) const {
  LINGXI_ASSERT(first_day < last_day && last_day <= config_.days);
  // Resuming mid-calendar requires the matching day-boundary state; a fresh
  // start must begin at day 0.
  LINGXI_ASSERT((first_day == 0) == (resume == nullptr));
  // Fleet-health sampler, fed one record per fleet day. A resumed run seeds
  // the rate window with the sessions already banked so sessions/sec
  // reflects only this run's work. No-op unless a Registry is installed.
  obs::PeriodicSampler sampler(
      obs::Registry::active(),
      resume != nullptr ? resume->accumulated.sessions : 0);
  // Legs follow the checkpoint cadence: <= k-day legs chained through the
  // day-boundary state, the hook called at every interior boundary. Without
  // a hook the run is one leg. Chaining is bitwise invisible (the run_days
  // resume contract).
  const bool hook_armed = checkpoint_hook_ != nullptr && checkpoint_every_k_days_ > 0;
  const std::size_t leg_len = hook_armed ? checkpoint_every_k_days_ : last_day - first_day;

  // One private-net predictor per worker slot, cloned once for the whole
  // run and reused by every leg: each clone is driven by exactly one worker
  // thread per leg and forwards are pure in (weights, input), so reuse is
  // bitwise invisible, while each clone (the fc1 weight matrix) is
  // ms-scale.
  std::vector<predictor::HybridExitPredictor> worker_predictors;
  if (config_.enable_lingxi && config_.users > 0) {
    LINGXI_ASSERT(predictor_factory_ != nullptr);
    const std::size_t pool = worker_pool_size();
    worker_predictors.reserve(pool);
    for (std::size_t t = 0; t < pool; ++t) {
      worker_predictors.emplace_back(predictor_factory_().with_private_net());
    }
  }

  FleetRunStats run_stats;
  FleetAccumulator acc = resume != nullptr ? resume->accumulated : FleetAccumulator{};
  FleetDayState boundary;
  const FleetDayState* leg_resume = resume;
  for (std::size_t a = first_day; a < last_day; a += leg_len) {
    const std::size_t b = std::min(a + leg_len, last_day);
    const bool last_leg = b == last_day;
    FleetDayState next;
    FleetDayState* leg_out = last_leg ? out_state : &next;
    std::vector<FleetAccumulator> days =
        run_days_leg(seed, a, b, leg_resume, leg_out, run_stats, worker_predictors);
    // The running sum over the leg's per-day tallies: each prefix is the
    // day-boundary aggregate, the last one the leg result. Merge order is
    // free (see FleetAccumulator), so this equals any other summation.
    for (FleetAccumulator& day : days) {
      acc.merge(day);
      day = acc;
    }
    if (leg_out != nullptr) leg_out->accumulated = acc;
    if (!last_leg) checkpoint_hook_(next);
    // The deterministic section of each day record is exact per day; the
    // wall-clock section (RSS, counters, sessions/sec) is sampled when the
    // leg ends, so its resolution is the leg cadence. A leg's samples share
    // one timestamp: the first carries the leg-window rate and the rest hit
    // the sampler's zero-window guard instead of fabricating rates.
    const std::uint64_t now_us = obs::Tracer::now_us();
    for (std::size_t i = 0; i < days.size(); ++i) {
      sampler.sample_at(day_facts(a + i + 1, config_.users, days[i]), now_us);
    }
    if (!last_leg) {
      boundary = std::move(next);
      leg_resume = &boundary;
    }
  }
  if (stats != nullptr) *stats = run_stats;
  return acc;
}

std::size_t FleetRunner::worker_pool_size() const noexcept {
  const std::size_t shard_count =
      (config_.users + config_.users_per_shard - 1) / config_.users_per_shard;
  std::size_t pool = config_.threads != 0
                         ? config_.threads
                         : std::max<std::size_t>(1, std::thread::hardware_concurrency());
  return std::min(pool, shard_count);
}

// ---------------------------------------------------------------------------
// UserTask: one user, run to completion.
// ---------------------------------------------------------------------------

/// One user's simulation over one leg — THE per-user simulation
/// implementation. Live sessions run in order; after each, a triggered
/// LingXi optimization runs to completion before the next session. Every
/// random draw comes from (seed, user, day, session) streams only, so the
/// result cannot depend on which worker runs the user or on what it ran
/// before.
class FleetRunner::UserTask {
 public:
  /// Runs days [first_day, stop_day). `resume`, when non-null, is the
  /// day-boundary state exported at first_day by an earlier task for this
  /// user; the task continues bitwise identically to one that simulated the
  /// earlier days itself (static context re-derives from (seed, user)
  /// streams, evolving state restores from `resume`).
  /// `day_slots` is the worker's leg-relative per-day slot array: every
  /// tally is banked into the slot of the day it is attributed to.
  /// `predictor` is the worker's private-net predictor (null when LingXi is
  /// off) and `scratch` its exit-net flush buffers, both shared by every
  /// user the worker runs — forwards are pure functions of (weights, input),
  /// so the sharing is bitwise invisible.
  UserTask(const FleetRunner& runner, const FleetWorld& world, std::uint64_t seed,
           std::size_t user_index, FleetAccumulator* day_slots,
           const predictor::HybridExitPredictor* predictor,
           predictor::ExitFlushScratch* scratch, std::size_t first_day, std::size_t stop_day,
           const UserFleetState* resume)
      : runner_(runner),
        cfg_(runner.config()),
        world_(world),
        seed_(seed),
        user_(user_index),
        day_slots_(day_slots),
        leg_first_day_(first_day),
        predictor_(predictor),
        scratch_(scratch),
        scenario_(runner.config().scenario.empty() ? nullptr : &runner.config().scenario),
        day_(first_day),
        stop_day_(stop_day) {
    if (scenario_ != nullptr) {
      // A churn scheduled exactly at first_day belongs to THIS leg (it rolls
      // over in begin_day), so construction rebuilds the generation that was
      // live strictly before first_day — the one the resume state describes.
      generation_ = scenario_->generations_before(user_, day_);
      session_index_ = scenario_->sessions_before(user_, day_, cfg_.sessions_per_user_day);
      if (const auto* pop = scenario_->population_override(user_)) {
        drift_population_.emplace(*pop);
      }
    } else {
      session_index_ = day_ * cfg_.sessions_per_user_day;
    }
    build_identity();

    if (resume != nullptr) {
      session_rng_.restore(resume->session_rng);
      abr_->set_params(resume->params);
      adjusted_days_ = resume->adjusted_days;
      if (lingxi_) {
        LINGXI_ASSERT(resume->has_lingxi);
        lingxi_->restore_persistent(resume->lingxi);
      }
    }
  }

  /// Simulate the user's days [first_day, stop_day).
  void run() {
    while (day_ < stop_day_) {
      begin_day();
      while (session_ < day_sessions_) run_session();
      end_day();
    }
    // Per-user summaries belong to the leg that completes the calendar; a
    // day-boundary leg exports state instead (export_state).
    if (stop_day_ == cfg_.days) finish_user();
  }

  /// Day-boundary state for a later resume; call only after run() on a
  /// task whose stop_day precedes the configured horizon.
  void export_state(UserFleetState& out) const {
    out.session_rng = session_rng_.state();
    out.params = abr_->params();
    out.adjusted_days = adjusted_days_;
    out.has_lingxi = lingxi_ != nullptr;
    if (lingxi_) out.lingxi = lingxi_->persistent_state();
  }

 private:
  /// Stream identity of the slot's current occupant: the slot index with
  /// the churn generation folded into the high bits. Generation 0 is the
  /// bare slot index, so unscripted runs keep their exact streams.
  std::uint64_t stream_user() const noexcept {
    return static_cast<std::uint64_t>(user_) |
           (static_cast<std::uint64_t>(generation_) << scenario::kGenerationShift);
  }

  /// (Re)build the (seed, user, generation)-derived static context: user
  /// model, network profile, ABR at start params, and a cold LingXi. Called
  /// at construction and again at every churn rollover.
  void build_identity() {
    Rng pop_rng(mix_seed(seed_, stream_user(), kPopulationStream));
    base_user_ = runner_.user_factory_(user_, pop_rng);
    LINGXI_ASSERT(base_user_ != nullptr);
    profile_ = world_.networks.sample(pop_rng);

    abr_ = runner_.abr_factory_();
    const abr::QoeParams start_params =
        cfg_.enable_lingxi ? cfg_.lingxi.default_params : cfg_.fixed_params;
    abr_->set_params(start_params);

    if (cfg_.enable_lingxi) {
      LINGXI_ASSERT(predictor_ != nullptr);
      // The shard's users BORROW the worker's private net copy (LingXi never
      // mutates it): forwards are pure per row and the shard runs on one
      // worker, so sharing is bitwise invisible — and not copying the net
      // per user keeps identity (re)builds cheap when the checkpoint cadence
      // chains legs or churn rolls a slot over.
      lingxi_ = std::make_unique<core::LingXi>(cfg_.lingxi, *predictor_, cfg_.video.ladder);
    }
  }

  void begin_day() {
    if (scenario_ != nullptr) {
      // Churn rollover: the departing generation's summary is emitted here
      // — the same tallies finish_user would bank at the horizon — and the
      // replacement arrives with fresh identity streams and a cold LingXi.
      const std::size_t generation = scenario_->generations_through(user_, day_);
      if (generation != generation_) {
        retire_generation();
        generation_ = generation;
        build_identity();
      }
      day_sessions_ = scenario_->sessions_on(user_, day_, cfg_.sessions_per_user_day);
    } else {
      day_sessions_ = cfg_.sessions_per_user_day;
    }
    // Day-to-day tolerance drift (§2.3) for data-driven users; rule-based
    // users have no drift notion and replay their base behaviour. Inactive
    // days (pre-arrival or a zero diurnal multiplier) skip the drift draw —
    // an absent user has no day — which stays split-invariant because each
    // day's drift rng is derived fresh from (seed, user, day).
    day_user_.reset();
    if (day_sessions_ == 0) {
      lingxi_active_ = false;
      return;
    }
    if (cfg_.drift_user_tolerance && day_ > 0) {
      if (const auto* dd = dynamic_cast<const user::DataDrivenUser*>(base_user_.get())) {
        Rng drift_rng(mix_seed(seed_, stream_user(), kDriftStream | day_));
        day_user_ = std::make_unique<user::DataDrivenUser>(
            dd->drifted(drift_population().sample_drift(drift_rng)));
      }
    }
    if (!day_user_) day_user_ = base_user_->clone();
    // AA period of the A/B protocol: before intervention_day the ABR stays
    // pinned to the defaults while LingXi only accumulates engagement.
    lingxi_active_ = lingxi_ != nullptr && day_ >= cfg_.intervention_day;
  }

  /// The population this slot's drift is sampled from: the scenario cohort
  /// override when one names the slot, else the fleet default.
  const user::UserPopulation& drift_population() const noexcept {
    return drift_population_ ? *drift_population_ : world_.population;
  }

  /// Simulate the next live session, feed LingXi and let it optimize, then
  /// hand the session to telemetry (which sees params_after) and advance
  /// the session cursor.
  void run_session() {
    session_rng_ = Rng(mix_seed(
        seed_, stream_user(),
        kSessionStream | (static_cast<std::uint64_t>(day_) << 16) | (session_ + 1)));
    const trace::Video video = world_.videos.sample(session_rng_);

    trace::NetworkProfile session_profile = profile_;
    if (scenario_ != nullptr) {
      // Scripted bandwidth shock: a pure (user, day) rescale of the
      // profiled mean (clamped to the population band) and variability.
      const double bandwidth_scale = scenario_->bandwidth_scale(user_, day_);
      if (bandwidth_scale != 1.0) {
        session_profile.mean_bandwidth =
            std::clamp(profile_.mean_bandwidth * bandwidth_scale,
                       cfg_.network.min_bandwidth, cfg_.network.max_bandwidth);
      }
      const double sd_scale = scenario_->sd_scale(user_, day_);
      if (sd_scale != 1.0) session_profile.relative_sd *= sd_scale;
    }
    if (cfg_.session_jitter_sigma > 0.0) {
      session_profile.mean_bandwidth =
          std::clamp(session_profile.mean_bandwidth *
                         session_rng_.lognormal(0.0, cfg_.session_jitter_sigma),
                     cfg_.network.min_bandwidth, cfg_.network.max_bandwidth);
    }
    const auto bandwidth = session_profile.make_session_model();

    if (lingxi_) {
      lingxi_->begin_session();
      if (!lingxi_active_) abr_->set_params(cfg_.lingxi.default_params);
    }
    SessionResult result;
    {
      OBS_TIMED("sim.session.step_us");
      result = world_.simulator.run(video, *abr_, *bandwidth, day_user_.get(), session_rng_);
    }
    const bool measured = session_index_ >= cfg_.warmup_sessions;
    day_slots_[day_ - leg_first_day_].add_session(result, measured);

    if (lingxi_) {
      for (const auto& seg : result.segments) lingxi_->on_segment(seg);
      lingxi_->end_session(exited_during_stall(result));
      if (lingxi_active_) {
        const Seconds buffer_seed =
            result.segments.empty() ? 0.0 : result.segments.back().buffer_after;
        lingxi_->maybe_optimize(*abr_, buffer_seed, session_rng_, scratch_);
      }
    }

    if (runner_.sink_) {
      telemetry::SessionContext ctx;
      ctx.user_index = user_;
      ctx.day = day_;
      ctx.session_in_day = session_;
      ctx.measured = measured;
      ctx.video_duration = video.duration();
      ctx.params_after = abr_->params();
      runner_.sink_->record_session(ctx, result);
    }
    ++session_;
    ++session_index_;
  }

  void end_day() {
    // Only days the user actually played can count as adjusted: a departed
    // or not-yet-arrived slot has no user-day. (Unscripted runs always have
    // day_sessions_ > 0, so the guard is invisible to them.)
    if (lingxi_ && day_sessions_ > 0 && abr_->params() != cfg_.lingxi.default_params) {
      ++adjusted_days_;
    }
    ++day_;
    session_ = 0;
  }

  /// Bank the current occupant's summary: accumulator tallies plus the
  /// telemetry user record. Emitted at the horizon (finish_user) and at
  /// every churn departure (retire_generation). `slot_day` attributes the
  /// tallies to one calendar day; the attribution (rollover day for churn,
  /// final day for the horizon) reproduces exactly which 1-day-leg boundary
  /// accumulators would have contained them, so the per-day running sums
  /// stay bitwise equal to leg chaining.
  void emit_user_summary(std::size_t slot_day) {
    FleetAccumulator& slot = day_slots_[slot_day - leg_first_day_];
    slot.adjusted_user_days += adjusted_days_;
    if (lingxi_) slot.add_lingxi_stats(lingxi_->stats());
    ++slot.users;
    if (runner_.sink_) {
      telemetry::UserTelemetry user;
      user.user_index = user_;
      user.tolerable_stall = base_user_->tolerable_stall();
      user.adjusted_days = adjusted_days_;
      if (lingxi_) user.stats = lingxi_->stats();
      runner_.sink_->record_user(user);
    }
  }

  void finish_user() { emit_user_summary(stop_day_ - 1); }

  /// Churn departure: the occupant leaves the fleet mid-run, so its summary
  /// is banked now and the per-user tallies reset for the replacement.
  void retire_generation() {
    emit_user_summary(day_);
    adjusted_days_ = 0;
  }

  const FleetRunner& runner_;
  const FleetConfig& cfg_;
  const FleetWorld& world_;
  std::uint64_t seed_;
  std::size_t user_;
  /// The worker's per-day accumulator slots (leg-relative): the only sink.
  FleetAccumulator* day_slots_;
  std::size_t leg_first_day_;
  const predictor::HybridExitPredictor* predictor_;  ///< kept for churn rebuilds
  predictor::ExitFlushScratch* scratch_;  ///< the worker's, shared by its users

  // Scenario context: null for an empty script, which keeps every
  // scenario branch off the unscripted path. generation_ counts the slot's
  // churn rollovers; drift_population_ is the cohort-override population.
  const scenario::ScenarioScript* scenario_;
  std::size_t generation_ = 0;
  std::optional<user::UserPopulation> drift_population_;

  // Per-user persistent state.
  std::unique_ptr<user::UserModel> base_user_;
  trace::NetworkProfile profile_;
  std::unique_ptr<abr::AbrAlgorithm> abr_;
  std::unique_ptr<core::LingXi> lingxi_;

  // Cursor over (day, session); session_index_ counts across days; the task
  // stops at stop_day_ (== cfg_.days unless this leg ends at a snapshot).
  // day_sessions_ is the current day's scripted session count (== the
  // configured base without a scenario).
  std::size_t day_ = 0;
  std::size_t session_ = 0;
  std::size_t session_index_ = 0;
  std::size_t stop_day_ = 0;
  std::size_t day_sessions_ = 0;
  std::uint64_t adjusted_days_ = 0;
  std::unique_ptr<user::UserModel> day_user_;
  bool lingxi_active_ = false;
  /// The current session's stream; its last position is exported with the
  /// day-boundary state.
  Rng session_rng_{0};
};

std::vector<FleetAccumulator> FleetRunner::run_days_leg(
    std::uint64_t seed, std::size_t first_day, std::size_t last_day,
    const FleetDayState* resume, FleetDayState* out_state, FleetRunStats& stats,
    const std::vector<predictor::HybridExitPredictor>& worker_predictors) const {
  if (resume != nullptr) {
    LINGXI_ASSERT(resume->next_day == first_day);
    LINGXI_ASSERT(resume->users.size() == config_.users);
  }
  if (out_state != nullptr) {
    out_state->next_day = last_day;
    out_state->users.assign(config_.users, UserFleetState{});
  }
  const std::size_t leg_days = last_day - first_day;
  std::vector<FleetAccumulator> days(leg_days);
  // A resumed leg must not reset the sink: its capture buffers carry the
  // earlier days' records (restored from a snapshot or reused in-process).
  if (sink_ && first_day == 0) sink_->begin_fleet(config_, seed);
  if (config_.users == 0) return days;

  // Immutable config-derived context, built once and read concurrently by
  // every worker instead of being reconstructed per user.
  const FleetWorld world{trace::PopulationModel(config_.network),
                         trace::VideoGenerator(config_.video),
                         SessionSimulator(config_.session),
                         user::UserPopulation(config_.population)};

  const std::size_t shard_count =
      (config_.users + config_.users_per_shard - 1) / config_.users_per_shard;
  const std::size_t pool = worker_pool_size();
  LINGXI_ASSERT(!config_.enable_lingxi || worker_predictors.size() >= pool);
  // Per-worker per-day slots: a worker banks every tally of every shard it
  // pulls into its own array, so the LSQ pull queue needs no coordination
  // beyond the shard counter, and memory scales with workers x leg days
  // instead of shards.
  std::vector<std::vector<FleetAccumulator>> slots(pool,
                                                   std::vector<FleetAccumulator>(leg_days));
  std::vector<FleetRunStats> worker_stats(pool);

  std::atomic<std::size_t> next_shard{0};
  const auto worker = [&](std::size_t slot) {
    const predictor::HybridExitPredictor* predictor =
        config_.enable_lingxi ? &worker_predictors[slot] : nullptr;
    // The worker's exit-net flush buffers, shared by every optimization of
    // every user it runs (one user at a time).
    predictor::ExitFlushScratch scratch;
    for (;;) {
      const std::size_t shard = next_shard.fetch_add(1, std::memory_order_relaxed);
      if (shard >= shard_count) break;
      const std::size_t first = shard * config_.users_per_shard;
      const std::size_t last = std::min(first + config_.users_per_shard, config_.users);
      for (std::size_t u = first; u < last; ++u) {
        UserTask task(*this, world, seed, u, slots[slot].data(), predictor, &scratch,
                      first_day, last_day, resume != nullptr ? &resume->users[u] : nullptr);
        task.run();
        if (out_state != nullptr) task.export_state(out_state->users[u]);
      }
    }
    worker_stats[slot] = FleetRunStats{scratch.flushes, scratch.queries};
  };

  if (pool <= 1) {
    worker(0);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(pool);
    for (std::size_t t = 0; t < pool; ++t) threads.emplace_back(worker, t);
    for (auto& t : threads) t.join();
  }

  // Merge order is free (see FleetAccumulator).
  for (std::size_t w = 0; w < pool; ++w) {
    for (std::size_t d = 0; d < leg_days; ++d) days[d].merge(slots[w][d]);
    stats.merge(worker_stats[w]);
  }
  return days;
}

}  // namespace lingxi::sim
