#include "core/lingxi.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include "common/assert.h"
#include "obs/metrics.h"
#include "trace/bandwidth.h"

namespace lingxi::core {

LingXiConfig::LingXiConfig() {
  // The paper's production integration tunes HYB's beta only; callers
  // targeting MPC/Pensieve flip the space flags.
  space.optimize_stall = true;
  space.optimize_switch = true;
  space.optimize_beta = false;
}

LingXi::LingXi(LingXiConfig config, const predictor::HybridExitPredictor& predictor,
               trace::BitrateLadder ladder)
    : config_(std::move(config)),
      predictor_(&predictor),
      ladder_(std::move(ladder)),
      current_params_(config_.default_params) {
  LINGXI_ASSERT(config_.obo_rounds >= 1);
  LINGXI_ASSERT(config_.space.dimensions() >= 1);
}

void LingXi::begin_session() { engagement_.begin_session(); }

void LingXi::on_segment(const sim::SegmentRecord& segment) {
  engagement_.on_segment(segment, config_.segment_duration);
  bandwidth_window_.push_back(segment.throughput);
  if (bandwidth_window_.size() > config_.bandwidth_window) bandwidth_window_.pop_front();
  if (segment.stall_time > config_.virtual_session.stall_event_threshold) {
    ++stalls_since_optimization_;
  }
}

void LingXi::end_session(bool exited_during_stall) {
  if (exited_during_stall) engagement_.on_stall_exit();
}

bool LingXi::should_optimize() const noexcept {
  return stalls_since_optimization_ > config_.trigger_stall_threshold;
}

std::pair<Kbps, Kbps> LingXi::bandwidth_estimate() const {
  if (bandwidth_window_.empty()) return {0.0, 0.0};
  double mean = 0.0;
  for (Kbps b : bandwidth_window_) mean += b;
  mean /= static_cast<double>(bandwidth_window_.size());
  double var = 0.0;
  for (Kbps b : bandwidth_window_) var += (b - mean) * (b - mean);
  var /= static_cast<double>(bandwidth_window_.size());
  return {mean, std::sqrt(var)};
}

std::optional<abr::QoeParams> LingXi::maybe_optimize(abr::AbrAlgorithm& abr,
                                                     Seconds current_buffer, Rng& rng,
                                                     predictor::ExitFlushScratch* scratch) {
  if (!should_optimize()) return std::nullopt;
  ++stats_.triggers;
  stalls_since_optimization_ = 0;

  const auto [bw_mean, bw_sd] = bandwidth_estimate();
  if (bw_mean <= 0.0) return std::nullopt;  // no bandwidth signal yet

  // Pre-playback pruning: when mu - 3*sigma clears the ladder top, stall
  // probability is negligible and personalization has nothing to gain.
  if (config_.enable_preplay_pruning && bw_mean - 3.0 * bw_sd > ladder_.max_bitrate()) {
    ++stats_.pruned_preplay;
    return std::nullopt;
  }
  ++stats_.optimizations_run;

  const sim::MonteCarloEvaluator evaluator(config_.monte_carlo, config_.virtual_session);
  // One VBR-jittered virtual video shared by every candidate: rollouts see
  // realistic segment-size spikes while the comparison stays paired.
  const trace::Video virtual_video =
      evaluator.make_virtual_video(ladder_, config_.segment_duration, &rng);
  // One exit-model factory for every candidate: each Monte Carlo rollout
  // gets a private PredictorExitModel seeded from the live engagement state
  // (Algorithm 2 line 3); stalled queries park for batched forwards.
  predictor::ExitFlushScratch local_scratch;
  const predictor::BatchPredictorExitEvaluator exits(
      *predictor_, engagement_, config_.segment_duration,
      scratch != nullptr ? *scratch : local_scratch);

  // OBO.init(x*, N, S, E_player): warm-start from the current parameters —
  // the previous optimum once one exists, the defaults otherwise. The warm
  // start is evaluated first, so on a flat exit-rate landscape the system
  // keeps its current behaviour instead of drifting to an arbitrary point.
  bayesopt::OnlineBayesOpt obo(config_.space.dimensions(), config_.obo);
  obo.warm_start(config_.space.to_unit(current_params_));

  const Kbps rollout_mean = std::max(50.0, bw_mean - config_.rollout_pessimism * bw_sd);
  std::unique_ptr<trace::BandwidthModel> bandwidth_model;
  if (config_.rollout_rho > 0.0) {
    trace::GaussMarkovBandwidth::Config gm;
    gm.mean = rollout_mean;
    gm.rho = config_.rollout_rho;
    gm.noise_sd = bw_sd * std::sqrt(std::max(0.0, 1.0 - gm.rho * gm.rho));
    gm.floor = std::max(10.0, 0.05 * rollout_mean);
    bandwidth_model = std::make_unique<trace::GaussMarkovBandwidth>(gm);
  } else {
    bandwidth_model =
        std::make_unique<trace::NormalBandwidth>(rollout_mean, std::max(0.0, bw_sd));
  }

  // Round 0 always evaluates the incumbent (the OBO warm start does this
  // implicitly; in fixed-candidate mode we prepend it).
  const bool fixed_mode = !config_.fixed_candidates.empty();
  const std::size_t rounds =
      fixed_mode ? config_.fixed_candidates.size() + 1 : config_.obo_rounds;
  double best_exit = std::numeric_limits<double>::infinity();
  abr::QoeParams best_params = current_params_;
  double incumbent_exit = std::numeric_limits<double>::infinity();
  for (std::size_t round = 0; round < rounds; ++round) {
    std::vector<double> x;  // the candidate in unit coordinates (OBO mode)
    abr::QoeParams candidate;
    if (fixed_mode) {
      candidate = round == 0 ? current_params_
                             : config_.space.clamp(config_.fixed_candidates[round - 1]);
    } else {
      x = obo.next_candidate(rng);
      candidate = config_.space.from_unit(x, config_.default_params);
    }
    // Rollout prototype carrying the candidate objective; each rollout
    // clones it.
    const std::unique_ptr<abr::AbrAlgorithm> rollout_abr = abr.clone();
    rollout_abr->set_params(candidate);
    // The incumbent round is never pruned: its estimate is the adoption
    // baseline and must be complete.
    const double prune_bound = round == 0 ? std::numeric_limits<double>::infinity() : best_exit;
    const sim::MonteCarloResult mc = evaluator.evaluate_rollouts(
        virtual_video, *rollout_abr, exits, *bandwidth_model, current_buffer, prune_bound, rng);

    if (obs::Registry* reg = obs::Registry::active()) {
      reg->add("core.optimization.rounds");
      if (mc.pruned) reg->add("core.optimization.rounds_pruned");
    }
    ++stats_.mc_evaluations;
    if (mc.pruned) ++stats_.mc_rollouts_pruned;
    if (round == 0) incumbent_exit = mc.exit_rate;
    if (!fixed_mode) obo.update(x, mc.exit_rate);
    if (mc.exit_rate < best_exit) {
      best_exit = mc.exit_rate;
      best_params = candidate;
    }
  }

  // Adopt the challenger only on clear evidence of improvement.
  if (best_exit < incumbent_exit * (1.0 - config_.adoption_margin)) {
    current_params_ = best_params;
  }
  has_optimized_ = true;
  abr.set_params(current_params_);  // ABR.update(x*)
  return current_params_;
}

LingXi::PersistentState LingXi::persistent_state() const {
  PersistentState s;
  s.engagement = engagement_.snapshot();
  s.bandwidth_window.assign(bandwidth_window_.begin(), bandwidth_window_.end());
  s.stalls_since_optimization = stalls_since_optimization_;
  s.has_optimized = has_optimized_;
  s.params = current_params_;
  s.stats = stats_;
  return s;
}

void LingXi::restore_persistent(const PersistentState& state) {
  engagement_.restore(state.engagement);
  bandwidth_window_.assign(state.bandwidth_window.begin(), state.bandwidth_window.end());
  stalls_since_optimization_ = state.stalls_since_optimization;
  has_optimized_ = state.has_optimized;
  current_params_ = state.params;
  stats_ = state.stats;
}

}  // namespace lingxi::core
