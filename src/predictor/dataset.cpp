#include "predictor/dataset.h"

#include <algorithm>
#include <numeric>

#include "abr/hyb.h"
#include "common/assert.h"
#include "nn/optimizer.h"
#include "sim/session.h"

namespace lingxi::predictor {

const char* filter_name(DatasetFilter f) noexcept {
  switch (f) {
    case DatasetFilter::kAll: return "ALL";
    case DatasetFilter::kEvent: return "Event";
    case DatasetFilter::kStall: return "Stall";
  }
  return "?";
}

std::size_t Dataset::positives() const noexcept {
  std::size_t n = 0;
  for (const auto& s : samples) n += s.exited ? 1 : 0;
  return n;
}

std::size_t Dataset::negatives() const noexcept { return samples.size() - positives(); }

DatasetGenConfig::DatasetGenConfig() {
  // Low-bandwidth-biased world: stalls must actually occur to be learnable.
  network.median_bandwidth = 2500.0;
  network.sigma = 0.6;
  network.relative_sd = 0.45;
}

Dataset generate_dataset(const DatasetGenConfig& config, Rng& rng) {
  Dataset dataset;
  const trace::PopulationModel networks(config.network);
  const trace::VideoGenerator videos(config.video);
  const user::UserPopulation users(config.population);
  const sim::SessionSimulator simulator(sim::SessionSimulator::Config{});

  for (std::size_t u = 0; u < config.users; ++u) {
    std::unique_ptr<user::UserModel> user_model =
        config.user_factory ? config.user_factory(rng) : users.sample(rng);
    const trace::NetworkProfile profile = networks.sample(rng);
    EngagementState state;  // persists across this user's sessions

    for (std::size_t s = 0; s < config.sessions_per_user; ++s) {
      const trace::Video video = videos.sample(rng);
      auto bw = profile.make_session_model();
      abr::Hyb abr_algo;
      const sim::SessionResult session =
          simulator.run(video, abr_algo, *bw, user_model.get(), rng);

      state.begin_session();
      for (std::size_t k = 0; k < session.segments.size(); ++k) {
        const auto& seg = session.segments[k];
        state.on_segment(seg, video.segment_duration());
        const bool exited_here = session.exited && k + 1 == session.segments.size();

        const bool had_stall = seg.stall_time > 0.05;
        const bool had_switch = k > 0 && seg.level != session.segments[k - 1].level;
        bool keep = false;
        switch (config.filter) {
          case DatasetFilter::kAll: keep = true; break;
          case DatasetFilter::kEvent: keep = had_stall || had_switch; break;
          case DatasetFilter::kStall: keep = had_stall; break;
        }
        if (keep) dataset.samples.push_back({state.features(), exited_here});
        if (exited_here && had_stall) state.on_stall_exit();
      }
    }
  }
  return dataset;
}

Dataset balance(const Dataset& dataset, Rng& rng) {
  std::vector<std::size_t> pos, neg;
  for (std::size_t i = 0; i < dataset.samples.size(); ++i) {
    (dataset.samples[i].exited ? pos : neg).push_back(i);
  }
  auto& majority = pos.size() > neg.size() ? pos : neg;
  auto& minority = pos.size() > neg.size() ? neg : pos;
  // Fisher-Yates partial shuffle, then keep |minority| of the majority.
  for (std::size_t i = 0; i < majority.size(); ++i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(static_cast<std::int64_t>(i),
                        static_cast<std::int64_t>(majority.size()) - 1));
    std::swap(majority[i], majority[j]);
  }
  Dataset out;
  for (std::size_t i : minority) out.samples.push_back(dataset.samples[i]);
  const std::size_t keep = std::min(majority.size(), minority.size());
  for (std::size_t i = 0; i < keep; ++i) out.samples.push_back(dataset.samples[majority[i]]);
  return out;
}

SplitDataset stratified_split(const Dataset& dataset, double train_fraction, Rng& rng) {
  LINGXI_ASSERT(train_fraction > 0.0 && train_fraction < 1.0);
  SplitDataset out;
  for (bool label : {false, true}) {
    std::vector<std::size_t> idx;
    for (std::size_t i = 0; i < dataset.samples.size(); ++i) {
      if (dataset.samples[i].exited == label) idx.push_back(i);
    }
    for (std::size_t i = 0; i < idx.size(); ++i) {
      const auto j = static_cast<std::size_t>(
          rng.uniform_int(static_cast<std::int64_t>(i),
                          static_cast<std::int64_t>(idx.size()) - 1));
      std::swap(idx[i], idx[j]);
    }
    const auto cut = static_cast<std::size_t>(train_fraction * static_cast<double>(idx.size()));
    for (std::size_t i = 0; i < idx.size(); ++i) {
      (i < cut ? out.train : out.test).samples.push_back(dataset.samples[idx[i]]);
    }
  }
  return out;
}

double train_exit_net(StallExitNet& net, const Dataset& train_set, const TrainConfig& config,
                      Rng& rng) {
  LINGXI_ASSERT(!train_set.samples.empty());
  LINGXI_ASSERT(config.batch_size > 0);
  nn::ParamSet params = net.param_set();
  nn::Adam::Config adam_cfg;
  adam_cfg.lr = config.lr;
  nn::Adam adam(params.params, params.grads, adam_cfg);

  std::vector<std::size_t> order(train_set.samples.size());
  std::iota(order.begin(), order.end(), std::size_t{0});

  // One minibatch's gathered feature rows, labels and per-row losses.
  constexpr std::size_t kFeatureLen = kChannels * kHistoryLen;
  std::vector<double> features(config.batch_size * kFeatureLen);
  std::vector<std::size_t> labels(config.batch_size);
  std::vector<double> losses(config.batch_size);
  StallExitNet::TrainWorkspace ws;
  const double grad_scale = 1.0 / static_cast<double>(config.batch_size);

  double final_epoch_loss = 0.0;
  for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
    for (std::size_t i = 0; i < order.size(); ++i) {
      const auto j = static_cast<std::size_t>(
          rng.uniform_int(static_cast<std::int64_t>(i),
                          static_cast<std::int64_t>(order.size()) - 1));
      std::swap(order[i], order[j]);
    }
    double epoch_loss = 0.0;
    params.zero_grad();
    for (std::size_t begin = 0; begin < order.size(); begin += config.batch_size) {
      const std::size_t rows = std::min(config.batch_size, order.size() - begin);
      for (std::size_t r = 0; r < rows; ++r) {
        const Sample& sample = train_set.samples[order[begin + r]];
        LINGXI_ASSERT(sample.features.size() == kFeatureLen);
        std::copy(sample.features.data(), sample.features.data() + kFeatureLen,
                  features.begin() + static_cast<std::ptrdiff_t>(r * kFeatureLen));
        labels[r] = sample.exited ? 1 : 0;
      }
      // Every row's gradient is scaled by 1 / batch_size, the last, partial
      // batch's too.
      net.train_step({features.data(), rows, kFeatureLen}, labels.data(), grad_scale,
                     losses.data(), ws);
      for (std::size_t r = 0; r < rows; ++r) epoch_loss += losses[r];
      adam.step();
      params.zero_grad();
    }
    final_epoch_loss = epoch_loss / static_cast<double>(order.size());
  }
  return final_epoch_loss;
}

ClassificationMetrics evaluate(StallExitNet& net, const Dataset& test_set, double threshold) {
  ClassificationMetrics m;
  for (const Sample& s : test_set.samples) {
    const bool predicted_exit = net.predict(s.features) >= threshold;
    if (predicted_exit && s.exited) ++m.true_pos;
    else if (predicted_exit && !s.exited) ++m.false_pos;
    else if (!predicted_exit && s.exited) ++m.false_neg;
    else ++m.true_neg;
  }
  const double total = static_cast<double>(test_set.samples.size());
  if (total == 0.0) return m;
  m.accuracy = static_cast<double>(m.true_pos + m.true_neg) / total;
  const double pp = static_cast<double>(m.true_pos + m.false_pos);
  const double ap = static_cast<double>(m.true_pos + m.false_neg);
  m.precision = pp > 0.0 ? static_cast<double>(m.true_pos) / pp : 0.0;
  m.recall = ap > 0.0 ? static_cast<double>(m.true_pos) / ap : 0.0;
  m.f1 = (m.precision + m.recall) > 0.0
             ? 2.0 * m.precision * m.recall / (m.precision + m.recall)
             : 0.0;
  return m;
}

}  // namespace lingxi::predictor
