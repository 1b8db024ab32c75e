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
                                       EngagementState seed_state, Seconds segment_duration,
                                       std::uint32_t rollout_tag)
    : predictor_(std::move(predictor)),
      seed_state_(std::move(seed_state)),
      state_(seed_state_),
      segment_duration_(segment_duration),
      rollout_tag_(rollout_tag) {
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
  // Rollout tags count up in make_model() order — rollout order, which is
  // deterministic — so a parked query's (user, rollout, segment) key names
  // the same rollout in every replay.
  return std::make_unique<PredictorExitModel>(predictor_, seed_state_, segment_duration_,
                                              next_rollout_tag_++);
}

bool BatchPredictorExitEvaluator::prepare(sim::ExitModel& model,
                                          const sim::SegmentRecord& segment,
                                          double& out) const {
  // Safe: the contract restricts `model` to our make_model() instances.
  auto& exit_model = static_cast<PredictorExitModel&>(model);
  const HybridExitPredictor::ExitQuery query = exit_model.prepare(segment);
  if (query.stall_time <= HybridExitPredictor::kNnStallThreshold) {
    out = predictor_.predict(query);  // OS-only path, no net forward
    return true;
  }
  tickets_.push_back(pool_->park(
      predictor_, query,
      {user_tag_, exit_model.rollout_tag(), static_cast<std::uint32_t>(segment.index)}));
  return false;
}

std::size_t BatchPredictorExitEvaluator::flush(double* out) const {
  // A caller's pool was already flushed by its owner between waves; our own
  // is flushed here. The parked queries' state pointers stay valid until
  // then — parked rollouts do not advance before the flush.
  if (own_pool_ != nullptr) own_pool_->flush();
  const std::size_t count = tickets_.size();
  for (std::size_t i = 0; i < count; ++i) out[i] = pool_->prob(tickets_[i]);
  tickets_.clear();
  return count;
}

void BatchPredictorExitEvaluator::discard_parked() const {
  for (const std::size_t ticket : tickets_) pool_->discard(ticket);
  tickets_.clear();
}

std::size_t ExitQueryPool::park(const HybridExitPredictor& predictor,
                                const HybridExitPredictor::ExitQuery& query,
                                QueryTag tag) {
  LINGXI_DASSERT(query.state != nullptr);
  pending_.push_back(Entry{query, &predictor, tag});
  return pending_.size() - 1;
}

void ExitQueryPool::discard(std::size_t ticket) {
  LINGXI_ASSERT(ticket < pending_.size());
  pending_[ticket].predictor = nullptr;
}

double ExitQueryPool::prob(std::size_t ticket) const {
  LINGXI_ASSERT(ticket < probs_.size());
  return probs_[ticket];
}

void ExitQueryPool::flush() {
  OBS_TIMED("predictor.pool.flush_us");
  probs_.assign(pending_.size(), 0.0);
  if (pending_.empty()) return;

#ifndef NDEBUG
  // Determinism bookkeeping check on the (user, rollout, segment) keys: a
  // rollout parks at most one query per flush (it pauses until resolved),
  // so the (user, rollout) pairs of live entries must be unique. A repeat
  // means a rollout advanced past an unresolved query — exactly the bug
  // class that would make batch composition schedule-dependent.
  {
    std::vector<std::uint64_t> keys;
    keys.reserve(pending_.size());
    for (const Entry& entry : pending_) {
      if (entry.predictor == nullptr) continue;
      keys.push_back((static_cast<std::uint64_t>(entry.tag.user) << 32) |
                     entry.tag.rollout);
    }
    std::sort(keys.begin(), keys.end());
    LINGXI_DASSERT(std::adjacent_find(keys.begin(), keys.end()) == keys.end());
  }
#endif

  // Group pending queries per net (stable first-seen order; park order
  // within a group). One shard usually holds one net — every user shares
  // the shard predictor's copy — so this is typically a single group; it
  // stays correct when users carry genuinely private (fine-tuned) nets.
  // groups_ entries persist across flushes (only the first `group_count`
  // are live) so the member index vectors keep their capacity.
  std::size_t group_count = 0;
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    const Entry& entry = pending_[i];
    if (entry.predictor == nullptr) continue;  // discarded by pruning
    const StallExitNet* net = &entry.predictor->net();
    NetGroup* group = nullptr;
    for (std::size_t g = 0; g < group_count; ++g) {
      if (groups_[g].net == net) {
        group = &groups_[g];
        break;
      }
    }
    if (group == nullptr) {
      if (group_count == groups_.size()) groups_.emplace_back();
      group = &groups_[group_count++];
      group->net = net;
      group->members.clear();
    }
    group->members.push_back(i);
  }

  constexpr std::size_t kFeatureLen = kChannels * kHistoryLen;
  std::uint64_t evaluated = 0;
  std::uint64_t batches = 0;
  for (std::size_t g = 0; g < group_count; ++g) {
    NetGroup& group = groups_[g];
    // Gather the group's feature matrix and run one batched forward. Every
    // parked query is a stalled one (prepare() resolves sub-perceptual
    // stalls inline), so each row needs the net.
    features_.resize(group.members.size() * kFeatureLen);
    for (std::size_t j = 0; j < group.members.size(); ++j) {
      const Entry& entry = pending_[group.members[j]];
      LINGXI_DASSERT(entry.query.stall_time > HybridExitPredictor::kNnStallThreshold);
      entry.query.state->write_features(features_.data() + j * kFeatureLen);
    }
    nn_terms_.resize(group.members.size());
    group.net->predict_batch({features_.data(), group.members.size(), kFeatureLen},
                             nn_terms_.data(), &ws_);
    // Per-query tail through the query's own predictor (OS lookup + blend),
    // bitwise identical to predict().
    for (std::size_t j = 0; j < group.members.size(); ++j) {
      const Entry& entry = pending_[group.members[j]];
      probs_[group.members[j]] = entry.predictor->finish_stalled(entry.query, nn_terms_[j]);
    }
    evaluated += group.members.size();
    ++stats_.net_batches;
    ++batches;
  }
  if (evaluated > 0) {
    ++stats_.flushes;
    stats_.queries += evaluated;
    stats_.max_flush = std::max(stats_.max_flush, evaluated);
    // Fleet-wide registry view of the same counters the per-run
    // FleetRunStats struct reports (that struct stays the per-run API;
    // the registry aggregates across runners, legs and threads).
    if (obs::Registry* reg = obs::Registry::active()) {
      reg->add("predictor.pool.flushes");
      reg->add("predictor.pool.queries", evaluated);
      reg->add("predictor.pool.net_batches", batches);
      reg->observe("predictor.pool.flush_rows", obs::HistogramSpec::rows(),
                   static_cast<double>(evaluated));
    }
  }
  pending_.clear();
}

}  // namespace lingxi::predictor
