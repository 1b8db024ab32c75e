#include "predictor/hybrid.h"

#include <algorithm>

#include "common/assert.h"
#include "obs/metrics.h"
#include "obs/timer.h"

namespace lingxi::predictor {

HybridExitPredictor::HybridExitPredictor(std::shared_ptr<StallExitNet> net,
                                         std::shared_ptr<const OverallStatsModel> os_model)
    : HybridExitPredictor(std::move(net), std::move(os_model), Config{}) {}

HybridExitPredictor::HybridExitPredictor(std::shared_ptr<StallExitNet> net,
                                         std::shared_ptr<const OverallStatsModel> os_model,
                                         Config config)
    : net_(std::move(net)), os_model_(std::move(os_model)), config_(config) {
  LINGXI_ASSERT(net_ != nullptr);
  LINGXI_ASSERT(os_model_ != nullptr);
  LINGXI_ASSERT(config_.nn_weight >= 0.0 && config_.nn_weight <= 1.0);
}

HybridExitPredictor HybridExitPredictor::with_private_net() const {
  return {std::make_shared<StallExitNet>(*net_), os_model_, config_};
}

double HybridExitPredictor::predict(const EngagementState& state,
                                    const sim::SegmentRecord& segment, SwitchType sw) const {
  return predict(ExitQuery{&state, segment.level, segment.stall_time, sw});
}

double HybridExitPredictor::predict(const ExitQuery& query) const {
  const double os = os_model_->predict(query.level, query.sw);
  if (query.stall_time <= kNnStallThreshold) return std::clamp(os, 0.0, 1.0);
  const double nn_term = net_->predict(query.state->features());
  return combine(*query.state, nn_term, os);
}

double HybridExitPredictor::finish_stalled(const ExitQuery& query, double nn_term) const {
  return combine(*query.state, nn_term, os_model_->predict(query.level, query.sw));
}

double HybridExitPredictor::combine(const EngagementState& state, double nn_term,
                                    double os) const {
  // Personal empirical stall-exit rate, smoothed toward the prior so new
  // users start population-typical.
  const auto& lt = state.long_term();
  const double personal =
      (static_cast<double>(lt.total_stall_exits) + config_.prior_strength * config_.prior_rate) /
      (static_cast<double>(lt.total_stall_events) + config_.prior_strength);
  const double stall_term =
      config_.nn_weight * nn_term + (1.0 - config_.nn_weight) * std::min(1.0, personal);
  return std::clamp(stall_term + os, 0.0, 1.0);
}

PredictorExitModel::PredictorExitModel(HybridExitPredictor predictor,
                                       EngagementState seed_state, Seconds segment_duration)
    : predictor_(std::move(predictor)),
      seed_state_(std::move(seed_state)),
      state_(seed_state_),
      segment_duration_(segment_duration) {
  LINGXI_ASSERT(segment_duration_ > 0.0);
}

void PredictorExitModel::begin_session() {
  state_ = seed_state_;  // S_sim <- S
  state_.begin_session();
  prev_valid_ = false;
  prev_level_ = 0;
}

double PredictorExitModel::exit_probability(const sim::SegmentRecord& segment) {
  return predictor_.predict(prepare(segment));
}

HybridExitPredictor::ExitQuery PredictorExitModel::prepare(const sim::SegmentRecord& segment) {
  state_.on_segment(segment, segment_duration_);
  SwitchType sw = SwitchType::kNone;
  if (prev_valid_ && segment.level != prev_level_) {
    sw = segment.level > prev_level_ ? SwitchType::kUp : SwitchType::kDown;
  }
  prev_valid_ = true;
  prev_level_ = segment.level;
  return {&state_, segment.level, segment.stall_time, sw};
}

std::unique_ptr<sim::ExitModel> BatchPredictorExitEvaluator::make_model() const {
  return std::make_unique<PredictorExitModel>(predictor_, seed_state_, segment_duration_);
}

bool BatchPredictorExitEvaluator::prepare(sim::ExitModel& model,
                                          const sim::SegmentRecord& segment,
                                          double& out) const {
  // Safe: the contract restricts `model` to our make_model() instances.
  return submit(static_cast<PredictorExitModel&>(model).prepare(segment), out);
}

bool BatchPredictorExitEvaluator::submit(const HybridExitPredictor::ExitQuery& query,
                                         double& out) const {
  LINGXI_DASSERT(query.state != nullptr);
  if (query.stall_time <= HybridExitPredictor::kNnStallThreshold) {
    out = predictor_.predict(query);  // OS-only path, no net forward
    return true;
  }
  parked_.push_back(query);
  return false;
}

std::size_t BatchPredictorExitEvaluator::flush(double* out) const {
  OBS_TIMED("predictor.pool.flush_us");
  OBS_SPAN("predictor.flush");
  const std::size_t count = parked_.size();
  if (count == 0) return 0;

  // Gather the feature matrix and run one batched forward. Every parked
  // query is a stalled one, so each row needs the net; the parked queries'
  // state pointers stay valid because their rollouts wait for this flush.
  constexpr std::size_t kFeatureLen = kChannels * kHistoryLen;
  ExitFlushScratch& s = scratch_;
  s.features.resize(count * kFeatureLen);
  for (std::size_t i = 0; i < count; ++i) {
    parked_[i].state->write_features(s.features.data() + i * kFeatureLen);
  }
  predictor_.net().predict_batch({s.features.data(), count, kFeatureLen}, out, &s.ws);
  // Per-query tail (OS lookup + blend) over each net term in place, bitwise
  // identical to predict().
  for (std::size_t i = 0; i < count; ++i) {
    out[i] = predictor_.finish_stalled(parked_[i], out[i]);
  }
  parked_.clear();

  ++s.flushes;
  s.queries += count;
  // Fleet-wide registry view of the same counters (sim::FleetRunStats
  // reports them per run; the registry aggregates across runners, legs and
  // threads).
  if (obs::Registry* reg = obs::Registry::active()) {
    reg->add("predictor.pool.flushes");
    reg->add("predictor.pool.queries", count);
    reg->observe("predictor.pool.flush_rows", obs::HistogramSpec::rows(),
                 static_cast<double>(count));
  }
  return count;
}

}  // namespace lingxi::predictor
