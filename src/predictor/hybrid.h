// Hybrid exit-rate predictor — Equation 4:
//
//   R_exit = NN(Stall) + OS(Quality, Smoothness)   if the segment stalled
//          = OS(Quality, Smoothness)               otherwise
//
// The NN term personalizes the dominant (1e-1) stall effect from the user's
// engagement history; the OS term pools the small (1e-3 / 1e-2) quality and
// smoothness effects across the population.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "predictor/engagement_state.h"
#include "predictor/exit_net.h"
#include "predictor/os_model.h"

namespace lingxi::predictor {

class HybridExitPredictor {
 public:
  struct Config {
    /// Blend between the learned stall term and the user's empirical
    /// stall-exit frequency (exits per stall event, smoothed toward
    /// `prior_rate`). The empirical term is the strongest personal signal —
    /// it is computed directly from the engagement counters the state
    /// already persists — while the net captures severity and context.
    double nn_weight = 0.35;
    double prior_rate = 0.25;
    double prior_strength = 4.0;
  };

  /// Both components are shared: the OS model is population-level, the net
  /// may be shared (global) or per-user (personalized fine-tune).
  HybridExitPredictor(std::shared_ptr<StallExitNet> net,
                      std::shared_ptr<const OverallStatsModel> os_model);
  HybridExitPredictor(std::shared_ptr<StallExitNet> net,
                      std::shared_ptr<const OverallStatsModel> os_model, Config config);

  /// One exit-probability evaluation in batched-friendly form: everything
  /// predict() reads, decoupled from SegmentRecord. `state` must already
  /// include the segment being queried.
  struct ExitQuery {
    const EngagementState* state = nullptr;
    std::size_t level = 0;
    Seconds stall_time = 0.0;
    SwitchType sw = SwitchType::kNone;
  };

  /// Stalls at or below this are sub-perceptual: predict() skips the net
  /// term, so only longer stalls are parked for a batched forward.
  static constexpr Seconds kNnStallThreshold = 0.05;

  /// R_exit for the segment just downloaded. `state` must already include
  /// this segment (EngagementState::on_segment called).
  double predict(const EngagementState& state, const sim::SegmentRecord& segment,
                 SwitchType sw) const;
  /// predict() in query form — the shared scalar implementation.
  double predict(const ExitQuery& query) const;
  /// Finish a stalled query given its net output (OS lookup + blend): with
  /// nn_term = net().predict(features) it is bitwise predict(query). The
  /// per-query tail of BatchPredictorExitEvaluator::flush, which runs the
  /// net forwards of many queries as one StallExitNet::predict_batch.
  double finish_stalled(const ExitQuery& query, double nn_term) const;

  StallExitNet& net() { return *net_; }
  const StallExitNet& net() const { return *net_; }
  const OverallStatsModel& os_model() const { return *os_model_; }

  /// Copy of this predictor whose net is deep-copied instead of shared.
  /// predict() runs forward passes that cache per-layer activations, so a
  /// shared net must not be used from multiple threads; each fleet worker
  /// takes one private copy (the OS model stays shared — it is const here).
  HybridExitPredictor with_private_net() const;

 private:
  /// Blend the net's stall term with the personal empirical rate and the OS
  /// term — shared tail of the scalar and batched paths.
  double combine(const EngagementState& state, double nn_term, double os) const;

  std::shared_ptr<StallExitNet> net_;
  std::shared_ptr<const OverallStatsModel> os_model_;
  Config config_;
};

/// Bridges the hybrid predictor into the session simulator / Monte Carlo
/// engine as a sim::ExitModel. Clones the seed engagement state at every
/// begin_session() so each rollout starts from the live user state
/// (Algorithm 2 line 3: S_sim <- S).
class PredictorExitModel final : public sim::ExitModel {
 public:
  PredictorExitModel(HybridExitPredictor predictor, EngagementState seed_state,
                     Seconds segment_duration);

  void begin_session() override;
  double exit_probability(const sim::SegmentRecord& segment) override;

  /// The state-mutation half of exit_probability(): advance the rollout
  /// state with `segment` and build the predict query for it. Split out so
  /// the lockstep Monte Carlo path can batch the predictor evaluation across
  /// rollouts; exit_probability() is predict(prepare(segment)).
  HybridExitPredictor::ExitQuery prepare(const sim::SegmentRecord& segment);

 private:
  HybridExitPredictor predictor_;
  EngagementState seed_state_;
  EngagementState state_;
  Seconds segment_duration_;
  bool prev_valid_ = false;
  std::size_t prev_level_ = 0;
};

/// Reusable buffers and counters of BatchPredictorExitEvaluator::flush.
/// The fleet keeps one per worker (sim::FleetRunner), so the gathered
/// feature matrix and the forward workspace are allocated once per worker,
/// not once per optimization. Not thread-safe: one scratch serves one
/// evaluator at a time.
struct ExitFlushScratch {
  std::vector<double> features;
  StallExitNet::BatchWorkspace ws;
  std::uint64_t flushes = 0;  ///< flushes with >= 1 query
  std::uint64_t queries = 0;  ///< stalled queries evaluated
};

/// Bridges the hybrid predictor into the lockstep Monte Carlo engine
/// (sim::MonteCarloEvaluator::evaluate_rollouts): hands out per-rollout
/// PredictorExitModel instances seeded with the live user state, resolves
/// sub-perceptual stalls inline and parks stalled queries until flush().
/// flush() is the one batched exit path: it gathers the parked queries'
/// features, runs one StallExitNet::predict_batch on the predictor's net,
/// and finishes each query through HybridExitPredictor::finish_stalled.
/// Per-row forwards are bitwise independent of batch composition, so every
/// probability is bitwise predict(query). The referenced predictor, seed
/// state and scratch must outlive the evaluator.
class BatchPredictorExitEvaluator final : public sim::BatchExitEvaluator {
 public:
  BatchPredictorExitEvaluator(const HybridExitPredictor& predictor,
                              const EngagementState& seed_state, Seconds segment_duration,
                              ExitFlushScratch& scratch)
      : predictor_(predictor),
        seed_state_(seed_state),
        segment_duration_(segment_duration),
        scratch_(scratch) {}

  std::unique_ptr<sim::ExitModel> make_model() const override;
  /// Advance `model` (a make_model() instance) with `segment`, then
  /// submit() its query.
  bool prepare(sim::ExitModel& model, const sim::SegmentRecord& segment,
               double& out) const override;
  /// Resolve a query that needs no net forward inline through the OS-only
  /// path (writes `out`, returns true); park a stalled one for the next
  /// flush() (returns false). `query.state` must stay valid until then.
  bool submit(const HybridExitPredictor::ExitQuery& query, double& out) const;
  std::size_t flush(double* out) const override;
  void discard_parked() const override { parked_.clear(); }

 private:
  const HybridExitPredictor& predictor_;
  const EngagementState& seed_state_;
  Seconds segment_duration_;
  ExitFlushScratch& scratch_;
  mutable std::vector<HybridExitPredictor::ExitQuery> parked_;  ///< park order
};

}  // namespace lingxi::predictor
