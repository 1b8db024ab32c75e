// Dataset generation, sampling and evaluation for the exit-rate predictor.
//
// Mirrors §3.3 "Dataset and Preprocessing" and the §5.1 ablations:
//   * three dataset compositions — ALL segments, EVENT segments (stall or
//     bitrate switch), STALL segments only (Fig. 9(a));
//   * 80:20 stratified train/test split;
//   * balanced sampling — random undersampling of the majority class
//     (continued watch) to parity with exits (Fig. 9(b));
//   * accuracy / precision / recall / F1 with "exit" as the positive class.
//
// Data comes from the synthetic production environment: user models from
// lingxi::user watching videos over sampled network profiles, HYB as the
// serving ABR (the paper's production algorithm).
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "abr/abr.h"
#include "common/rng.h"
#include "nn/tensor.h"
#include "predictor/engagement_state.h"
#include "predictor/exit_net.h"
#include "trace/population.h"
#include "trace/video.h"
#include "user/user_population.h"

namespace lingxi::predictor {

enum class DatasetFilter { kAll, kEvent, kStall };

const char* filter_name(DatasetFilter f) noexcept;

struct Sample {
  nn::Tensor features;  ///< 5x8 engagement matrix at decision time
  bool exited = false;  ///< label: user left at this segment
};

struct Dataset {
  std::vector<Sample> samples;

  std::size_t size() const noexcept { return samples.size(); }
  std::size_t positives() const noexcept;  ///< exit samples
  std::size_t negatives() const noexcept;
};

struct DatasetGenConfig {
  std::size_t users = 60;
  std::size_t sessions_per_user = 40;
  DatasetFilter filter = DatasetFilter::kStall;
  /// Bias the network population low so stalls are frequent enough to
  /// learn from (the paper draws its 100k entries from stall-bearing logs).
  trace::PopulationModel::Config network;
  trace::VideoGenerator::Config video;
  user::UserPopulation::Config population;
  /// Optional override for the user behaviour: when set, each simulated user
  /// is drawn from this factory instead of the data-driven population. Lets
  /// callers fit the predictor on the same world it will serve (e.g. the
  /// rule-based §5.2 evaluation).
  std::function<std::unique_ptr<user::UserModel>(Rng&)> user_factory;

  DatasetGenConfig();
};

/// Simulate sessions and harvest (features, label) pairs under `filter`.
Dataset generate_dataset(const DatasetGenConfig& config, Rng& rng);

/// Random undersampling of the majority class to label parity.
Dataset balance(const Dataset& dataset, Rng& rng);

/// Stratified split: `train_fraction` of each class goes to train.
struct SplitDataset {
  Dataset train;
  Dataset test;
};
SplitDataset stratified_split(const Dataset& dataset, double train_fraction, Rng& rng);

struct TrainConfig {
  std::size_t epochs = 8;
  std::size_t batch_size = 32;
  double lr = 1e-3;
};

/// Minibatch Adam + softmax cross-entropy (Eq. 5). Each epoch shuffles the
/// set and trains it in minibatches of `batch_size` (the last one partial),
/// one StallExitNet::train_step and one Adam step each, with every row's
/// gradient scaled by 1 / batch_size. The weights are bitwise those of
/// backpropagating the rows one at a time. Returns mean loss of the final
/// epoch.
double train_exit_net(StallExitNet& net, const Dataset& train_set, const TrainConfig& config,
                      Rng& rng);

struct ClassificationMetrics {
  double accuracy = 0.0;
  double precision = 0.0;
  double recall = 0.0;
  double f1 = 0.0;
  std::size_t true_pos = 0, false_pos = 0, true_neg = 0, false_neg = 0;
};

/// Evaluate at P(exit) >= `threshold`.
ClassificationMetrics evaluate(StallExitNet& net, const Dataset& test_set,
                               double threshold = 0.5);

}  // namespace lingxi::predictor
