// FleetRunner: population-scale simulation of user fleets.
//
// The Fig. 10-12 experiments roll core::LingXi forward over whole user
// populations, day by day and session by session. FleetRunner is the shared
// substrate for those experiments: it samples N users, shards them into
// fixed-size contiguous blocks, and dispatches the shards to a pool of
// worker threads (an LSQ-style work queue: many short heterogeneous jobs,
// one dispatcher, idle workers pull the next shard).
//
// Determinism is independent of the thread count by construction:
//   * every per-user random stream is derived only from (seed, user index,
//     day, session) — never from thread identity or execution order;
//   * sharding is a pure function of the user count, not of the pool size;
//   * tallies go into FleetAccumulator, whose state is integer (fixed-point)
//     so that merging is exactly associative and commutative.
// Hence the merged result is bitwise identical at 1, 4 or 64 threads, which
// is what makes the parallel fleet usable for paired A/B comparisons.
//
// Within a shard, users run as cohort waves (ShardScheduler below): every
// user of the shard advances as a pausable task — live sessions run inline,
// and whenever a user's Monte Carlo optimization stalls on exit-predictor
// queries the task parks and the next user runs. Between waves one pooled
// flush (predictor::ExitQueryPool) evaluates every parked query across ALL
// the shard's users — rollouts of different users and candidates — as
// per-net sub-batches, so batch occupancy is bounded by the shard's
// concurrent optimizations instead of a single user's rollouts.
// users_per_shard = 1 is per-user order: one user at a time, each flush
// scoped to that user's optimization. Any shard size produces
// bitwise-identical FleetAccumulator checksums and telemetry archive bytes:
// per-user state (rng streams, OBO, engagement) is task-private, predictor
// forwards are bitwise independent of batch composition, the accumulator is
// integer, and telemetry buffers per user.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "abr/abr.h"
#include "common/rng.h"
#include "core/lingxi.h"
#include "predictor/hybrid.h"
#include "scenario/scenario.h"
#include "sim/session.h"
#include "trace/population.h"
#include "trace/video.h"
#include "user/user_model.h"
#include "user/user_population.h"

namespace lingxi::telemetry {
class TelemetrySink;
}

namespace lingxi::predictor {
class ExitQueryPool;
}

namespace lingxi::sim {

/// Immutable config-derived simulation context shared (read-only) by all
/// fleet workers.
struct FleetWorld {
  trace::PopulationModel networks;
  trace::VideoGenerator videos;
  SessionSimulator simulator;
  user::UserPopulation population;
};

/// Mergeable aggregate over simulated sessions.
///
/// All state is integral: times are stored in microsecond ticks and the
/// bitrate-time product in kbps-milliseconds, quantized once per session at
/// add_session() time. Every field is an integer sum (saturating for the
/// fixed-point ones) or the OR-ed overflow latch, so merge order is free:
/// any shard partitioning, any worker assignment and any merge tree produce
/// the same bits — the property the fleet tests assert and the scaling
/// bench checksums. A field of any other kind (a float sum, say) would void
/// that and must not be added. (Bounds: ~5e10 session-seconds of watch time
/// before the bitrate-time product can overflow 63 bits at ladder-top
/// bitrates; past that bound the fixed-point sums saturate at INT64_MAX and
/// `overflowed` latches — see below — instead of silently wrapping.)
struct FleetAccumulator {
  static constexpr double kTicksPerSecond = 1e6;       ///< time resolution
  static constexpr double kBitrateTicksPerKbpsSec = 1e3;

  // Session tallies.
  std::uint64_t sessions = 0;
  std::uint64_t completed = 0;           ///< sessions the user watched to the end
  std::uint64_t measured_sessions = 0;   ///< sessions past the warmup window
  std::uint64_t measured_completed = 0;
  std::uint64_t stall_events = 0;
  std::uint64_t stall_exits = 0;         ///< stall-driven exits (§5.5.1)
  std::uint64_t quality_switches = 0;
  std::uint64_t users = 0;

  // Fixed-point sums.
  std::int64_t watch_ticks = 0;          ///< microseconds of media watched
  std::int64_t stall_ticks = 0;          ///< microseconds stalled
  std::int64_t startup_ticks = 0;        ///< microseconds of startup delay
  std::int64_t bitrate_time_ticks = 0;   ///< kbps-milliseconds (rate x watch)

  // LingXi counters summed over users (zero for control fleets).
  std::uint64_t lingxi_triggers = 0;
  std::uint64_t lingxi_optimizations = 0;
  std::uint64_t lingxi_pruned_preplay = 0;
  std::uint64_t lingxi_mc_evaluations = 0;
  std::uint64_t lingxi_mc_rollouts_pruned = 0;
  std::uint64_t adjusted_user_days = 0;  ///< user-days ending off the default params

  /// Sticky overflow latch (0/1): set whenever a fixed-point sum saturates at
  /// INT64_MAX in add_session() or merge(). Saturating addition of
  /// non-negative addends is min(true_total, INT64_MAX) — associative and
  /// commutative — so both the clamped sums and this flag are independent of
  /// the shard partitioning and merge order, keeping the bitwise-parity
  /// contract even past the overflow bound. Release builds detect overflow
  /// through this latch (callers treat has_overflow() as a run error); it is
  /// part of the checksum and of the snapshot serialization.
  std::uint64_t overflowed = 0;

  void add_session(const SessionResult& session, bool measured);
  void add_lingxi_stats(const core::LingXiStats& stats);
  void merge(const FleetAccumulator& other);

  // Derived metrics (same definitions as analytics::MetricAccumulator).
  double total_watch_time() const noexcept;
  double total_stall_time() const noexcept;
  double total_startup_delay() const noexcept;
  /// Watch-time-weighted mean bitrate (kbps).
  double mean_bitrate() const noexcept;
  double completion_rate() const noexcept;
  double measured_completion_rate() const noexcept;
  /// Sessions the user abandoned / all sessions.
  double exit_rate() const noexcept;
  /// Stall-driven exits per stall event.
  double stall_exit_rate() const noexcept;
  /// Stall seconds per 10000 watch seconds (the unit of Fig. 3(b)).
  double stall_per_10k() const noexcept;

  /// True when any fixed-point sum saturated: the derived time/bitrate
  /// metrics are lower bounds, not exact, and callers should fail the run.
  bool has_overflow() const noexcept { return overflowed != 0; }

  /// CRC32 over the raw integer state in field order — a cheap bitwise
  /// identity probe for "same result regardless of thread count".
  std::uint32_t checksum() const;
};

/// Batching telemetry for one FleetRunner::run — deliberately OUTSIDE
/// FleetAccumulator: occupancy depends on the schedule, and the accumulator
/// checksum must not.
struct FleetRunStats {
  std::uint64_t pool_flushes = 0;      ///< pooled flushes with >= 1 query
  std::uint64_t pool_queries = 0;      ///< stalled queries batch-evaluated
  std::uint64_t pool_net_batches = 0;  ///< per-net predict_batch calls
  std::uint64_t pool_max_flush = 0;    ///< largest single flush
  void merge(const FleetRunStats& other) noexcept;
};

/// Evolving per-user state at a day boundary — everything a resumed run
/// needs beyond the (config, seed)-derived world to continue a user bitwise
/// identically. The static per-user context (user model, network profile,
/// predictor nets) is deliberately NOT here: it derives from (seed, user)
/// streams and the pure factories, so a resumed run reconstructs it equal.
struct UserFleetState {
  /// Last session's rng position. Re-derived at the next session start, so
  /// it only matters to mid-session resumption; kept for a faithful
  /// checkpoint of the task.
  Rng::State session_rng;
  /// ABR parameters at the day boundary (LingXi's adopted params, or the
  /// pinned fixed/default params).
  abr::QoeParams params;
  std::uint64_t adjusted_days = 0;  ///< user-days ended off the defaults so far
  bool has_lingxi = false;
  core::LingXi::PersistentState lingxi;  ///< valid when has_lingxi
};

/// Fleet state at a day boundary: the per-user evolving states plus the
/// accumulator over every session already simulated (days [0, next_day)).
/// Produced by FleetRunner::run_days(out_state) and consumed by a later
/// run_days(resume); the snapshot subsystem (src/snapshot/) persists it.
struct FleetDayState {
  std::size_t next_day = 0;  ///< first day a resumed run will simulate
  std::vector<UserFleetState> users;
  FleetAccumulator accumulated;
};

struct FleetConfig {
  std::size_t users = 100;
  std::size_t days = 1;
  std::size_t sessions_per_user_day = 12;
  /// Per-user sessions (counted across days) excluded from measured_*:
  /// LingXi needs history before its first optimization, and steady-state
  /// comparisons exclude cold start.
  std::size_t warmup_sessions = 0;
  /// Worker pool size; 0 = std::thread::hardware_concurrency().
  std::size_t threads = 1;
  /// Shard granularity in users. Purely a scheduling knob: results are
  /// identical for any value (0 is clamped to 1 at construction; values
  /// beyond the fleet size behave as one whole-fleet shard); smaller shards
  /// balance heterogeneous users better, larger shards amortize per-shard
  /// setup and pool more users per predictor flush; 1 runs users in
  /// per-user order, each flush scoped to one optimization.
  std::size_t users_per_shard = 8;
  /// Treatment switch: run LingXi per user (config `lingxi`) vs pinning
  /// `fixed_params` on the ABR.
  bool enable_lingxi = false;
  /// First day (0-based) on which LingXi may optimize. Before it the ABR is
  /// pinned to `lingxi.default_params` while engagement history still
  /// accrues — the AA period of the Fig. 12 difference-in-differences
  /// protocol. 0 (default) activates LingXi immediately; >= days gives a
  /// pure AA run.
  std::size_t intervention_day = 0;
  /// Day-to-day tolerance drift for data-driven users (§2.3).
  bool drift_user_tolerance = false;
  /// Batched-inference knob: lockstep batch size for LingXi's Monte Carlo
  /// rollouts — per optimization, up to this many candidate sessions advance
  /// together and their predictor forwards run as one batch. 0 keeps
  /// `lingxi.monte_carlo.batch_size` as configured; any value yields a
  /// bitwise-identical fleet checksum (the scalar/batched parity contract,
  /// asserted by tests/test_properties.cpp).
  std::size_t predictor_batch = 0;
  /// Lognormal sigma jittering each session's mean bandwidth around the
  /// user's profile (cellular commute vs home Wi-Fi); 0 disables.
  double session_jitter_sigma = 0.0;
  abr::QoeParams fixed_params;
  user::UserPopulation::Config population;
  trace::PopulationModel::Config network;
  trace::VideoGenerator::Config video;
  core::LingXiConfig lingxi;
  SessionSimulator::Config session;
  /// Scripted world events (src/scenario/): bandwidth shocks, diurnal
  /// session curves, flash-crowd arrivals, churn and cohort overrides, all
  /// pure functions of (user, day). An empty script (the default) is
  /// byte-for-byte the unscripted run; a non-empty script still satisfies
  /// the full bitwise contract across threads / shard size / batch AND
  /// across checkpoint splices, and it is part of the telemetry
  /// config digest so archives and snapshots pin the script they ran.
  scenario::ScenarioScript scenario;
};

class FleetRunner {
 public:
  using AbrFactory = std::function<std::unique_ptr<abr::AbrAlgorithm>()>;
  /// Builds the user model for one user. Invoked once per user with an Rng
  /// derived from (seed, user index); must be callable concurrently.
  using UserFactory =
      std::function<std::unique_ptr<user::UserModel>(std::size_t user_index, Rng& rng)>;
  using PredictorFactory = std::function<predictor::HybridExitPredictor()>;
  /// Observes the whole-fleet day-boundary state at periodic boundaries of a
  /// run (see set_checkpoint_hook). Invoked between legs on the calling
  /// thread — never from workers — so the hook may do I/O (snapshot saves)
  /// while the fleet is quiescent. Hook failures are the hook owner's to
  /// record (snapshot::AutoCheckpointer keeps a Status); the simulation
  /// itself continues, serving-style: a failed checkpoint costs durability,
  /// not the run.
  using CheckpointHook = std::function<void(const FleetDayState&)>;

  /// Default user factory: sample from `config.population`, or from the
  /// first matching `config.scenario` cohort override for slots a
  /// CohortOverride names.
  FleetRunner(FleetConfig config, AbrFactory abr_factory);

  /// Override user sampling (e.g. the Fig. 10 rule-based 8x8 grid). A
  /// custom factory bypasses scenario cohort overrides by design; with
  /// churn it is re-invoked per generation with a fresh generation-derived
  /// rng (an index-only factory therefore rebuilds identical users).
  void set_user_factory(UserFactory factory);
  /// Required when `config.enable_lingxi`. Invoked once per worker per
  /// run_days() call, on the calling thread; the returned predictor's net is
  /// deep-copied before use, so a factory handing out a shared net is safe.
  /// A worker's shards and users share the deep copy: batched forwards are
  /// const and pure per row, and one shard is driven by one worker, so
  /// sharing changes no result bit while letting one flush serve the whole
  /// shard as a single net sub-batch. Because the invocation count depends
  /// on the thread count, the factory must be pure configuration: every
  /// call must return an equivalent predictor (same weights, same OS model,
  /// same blend config). A factory whose output varies call to call (e.g.
  /// an rng advanced across calls) would silently void the "results
  /// identical for any thread count / shard size" contract.
  void set_predictor_factory(PredictorFactory factory);

  /// Optional capture plane (telemetry/sink.h): the sink observes every
  /// completed session plus a per-user summary, from worker threads. Not
  /// owned; must outlive run(). Pass nullptr to detach.
  void set_telemetry_sink(telemetry::TelemetrySink* sink) { sink_ = sink; }

  /// Auto-checkpoint policy: with a hook installed and every_k_days > 0,
  /// run_days() executes as a chain of <= every_k_days-day legs and invokes
  /// the hook with the materialized FleetDayState at every interior boundary
  /// (first_day + k, first_day + 2k, ... < last_day). Chunking is bitwise
  /// invisible — a chained run equals an unchunked one (the run_days resume
  /// contract) — so arming checkpoints never changes results. Pass a null
  /// hook (or every_k_days == 0) to disarm.
  void set_checkpoint_hook(CheckpointHook hook, std::size_t every_k_days);

  /// Simulate the whole fleet. Bitwise-deterministic for a given seed,
  /// independent of `config().threads` and `config().users_per_shard`.
  /// `stats`, when non-null, receives the merged batching telemetry.
  FleetAccumulator run(std::uint64_t seed, FleetRunStats* stats = nullptr) const;

  /// Simulate days [first_day, last_day) only — the warm-start /
  /// incremental-day form of run() (run(seed) == run_days(seed, 0, days)).
  ///
  ///   * `resume`, when non-null, must be the FleetDayState a previous
  ///     run_days(seed, ..., first_day) exported (next_day == first_day, one
  ///     entry per user); per-user evolving state is restored from it and
  ///     its accumulator is merged into the result. Null requires
  ///     first_day == 0.
  ///   * `out_state`, when non-null, receives the day-boundary state at
  ///     last_day (including the merged accumulator so far) for a later
  ///     resume or a disk snapshot.
  ///
  /// Contract (pinned by tests/test_properties.cpp across the threads x
  /// users_per_shard x predictor_batch grid): splitting a run at
  /// any day boundary and resuming — in-process or through a disk snapshot —
  /// yields a bitwise-identical FleetAccumulator AND, with a restored
  /// ShardedCapture attached, bitwise-identical telemetry archive bytes.
  /// Per-user summaries (finish-time accumulator fields and record_user
  /// telemetry) are emitted only by the leg that reaches config().days —
  /// except scripted churn departures, whose summaries are emitted by the
  /// leg that simulates the churn day (so they splice identically too).
  ///
  /// The telemetry sink's begin_fleet() fires only when first_day == 0; a
  /// resumed leg expects the sink to carry the capture state of the prior
  /// legs (in-process reuse, or snapshot::restore_capture after loading).
  FleetAccumulator run_days(std::uint64_t seed, std::size_t first_day,
                            std::size_t last_day, const FleetDayState* resume = nullptr,
                            FleetDayState* out_state = nullptr,
                            FleetRunStats* stats = nullptr) const;

  const FleetConfig& config() const noexcept { return config_; }
  /// The configured predictor factory (null unless set). The snapshot
  /// subsystem serializes the factory net's weights from here.
  const PredictorFactory& predictor_factory() const noexcept { return predictor_factory_; }

 private:
  friend class ShardScheduler;

  /// One contiguous leg [first_day, last_day): restores `resume`, runs
  /// every shard on the worker pool and, when `out_state` is non-null,
  /// exports the per-user states at last_day (run_days sets its
  /// accumulator). `worker_predictors` holds one private-net predictor per
  /// worker slot (empty when LingXi is off). Returns the leg's tallies per
  /// day: slot i holds exactly what is attributed to day first_day + i, each
  /// the sum of the workers' slots for that day. `stats` gains the leg's
  /// batching telemetry.
  std::vector<FleetAccumulator> run_days_leg(
      std::uint64_t seed, std::size_t first_day, std::size_t last_day,
      const FleetDayState* resume, FleetDayState* out_state, FleetRunStats& stats,
      const std::vector<predictor::HybridExitPredictor>& worker_predictors) const;

  /// Size of the leg worker pool for the current config (threads capped by
  /// shard count); shared by run_days_leg and the run_days predictor clones.
  std::size_t worker_pool_size() const noexcept;

  FleetConfig config_;
  AbrFactory abr_factory_;
  UserFactory user_factory_;
  PredictorFactory predictor_factory_;
  telemetry::TelemetrySink* sink_ = nullptr;
  CheckpointHook checkpoint_hook_;
  std::size_t checkpoint_every_k_days_ = 0;
};

/// Executes the users of one shard as cohort waves of pausable per-user
/// tasks (UserTask — the one implementation of per-user simulation): every
/// task advances in waves — live sessions simulate inline, LingXi
/// optimizations (round-boundary GP fits included) run until each Monte
/// Carlo rollout parks a stalled exit query in the shared ExitQueryPool,
/// then the next user runs. One pooled flush per wave serves every parked
/// query across users, candidates and rollouts, sub-batched per net. A
/// one-user shard is per-user order.
///
/// Tasks step in ascending user order, so park order — and therefore every
/// batch composition — is a pure function of (config, seed, shard range):
/// replays are deterministic. Per-user outcomes cannot depend on the
/// interleaving at all (task state is private; forwards are pure), which is
/// what keeps results bitwise equal across shard sizes.
/// One ShardScheduler is driven by exactly one worker thread; only
/// FleetRunner::run_days_leg constructs one.
class ShardScheduler {
 public:
  /// Drives users [first_user, last_user) over days [first_day, last_day).
  /// `day_slots` is the driving worker's array of (last_day - first_day)
  /// accumulators: every tally is banked once, into the slot of the day it
  /// is attributed to. `resume` / `out_state`, when non-null, are the
  /// whole-fleet day-boundary states (indexed by absolute user index) this
  /// shard restores from / exports into; the scheduler touches only its own
  /// users' entries. `predictor` is the worker's private-net predictor
  /// (null when LingXi is off), shared by every shard and user the worker
  /// processes — forwards are pure functions of (weights, input) and weights
  /// never change during a run, so the sharing is bitwise invisible.
  ShardScheduler(const FleetRunner& runner, const FleetWorld& world, std::uint64_t seed,
                 std::size_t first_user, std::size_t last_user, FleetAccumulator* day_slots,
                 std::size_t first_day, std::size_t last_day,
                 const FleetDayState* resume, FleetDayState* out_state,
                 const predictor::HybridExitPredictor* predictor);
  ~ShardScheduler();
  ShardScheduler(const ShardScheduler&) = delete;
  ShardScheduler& operator=(const ShardScheduler&) = delete;

  /// Drive every user of the shard to completion.
  void run();
  /// Pool batching telemetry accumulated so far.
  FleetRunStats stats() const;

 private:
  class UserTask;

  const FleetRunner& runner_;
  const FleetWorld& world_;
  std::uint64_t seed_;
  std::size_t first_user_;
  std::size_t last_user_;
  FleetAccumulator* day_slots_;
  std::size_t first_day_;
  std::size_t last_day_;
  const FleetDayState* resume_;
  FleetDayState* out_state_;
  const predictor::HybridExitPredictor* predictor_;
  std::unique_ptr<predictor::ExitQueryPool> pool_;
};

}  // namespace lingxi::sim
