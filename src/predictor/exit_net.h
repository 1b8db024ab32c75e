// The personalized stall-exit network (§3.3, Fig. 7).
//
// Architecture, verbatim from the paper: each of the five input dimensions
// passes through its own 1D-CNN (1 -> 64 channels, kernel 1x4) over the
// length-8 history; the five feature maps are merged (flatten + concat) and
// fed to a 64-unit fully connected layer, then a 2-unit layer; softmax gives
// [P(continue), P(exit)].
#pragma once

#include <vector>

#include "common/expected.h"
#include "nn/activations.h"
#include "nn/conv1d.h"
#include "nn/dense.h"
#include "nn/optimizer.h"
#include "predictor/engagement_state.h"

namespace lingxi::predictor {

class StallExitNet {
 public:
  explicit StallExitNet(Rng& rng);

  /// P(exit) for a 5x8 feature tensor.
  double predict(const nn::Tensor& features);
  /// Raw logits [continue, exit].
  nn::Tensor logits(const nn::Tensor& features);

  /// Reusable scratch for predict_batch: the merged / hidden / logit
  /// matrices, kept by callers that evaluate many batches (one lockstep
  /// Monte Carlo step each) so the buffers are allocated once.
  struct BatchWorkspace {
    std::vector<double> merged;
    std::vector<double> hidden;
    std::vector<double> logits;
  };

  /// Batched P(exit): each row of `features` is one 5x8 feature matrix
  /// flattened row-major (the layout EngagementState::write_features emits).
  /// Writes features.rows probabilities to `out`. Every row is bitwise
  /// identical to predict() on the same features — the batched path reorders
  /// no accumulation (see nn::Dense::forward_batch). Inference only: no
  /// layer caches are touched, so this is const and safe on a net shared
  /// across rollouts. `ws` may be null; passing one amortizes scratch.
  void predict_batch(nn::ConstBatchView features, double* out,
                     BatchWorkspace* ws = nullptr) const;
  /// Backprop a gradient w.r.t. logits (accumulates parameter grads).
  void backward(const nn::Tensor& grad_logits);

  nn::ParamSet param_set();

  /// Weight (de)serialization for checkpointing.
  std::vector<const nn::Tensor*> weights() const;
  /// Checks that `tensors` fit this architecture in the order of weights():
  /// the tensor count, every shape, and every value finite. Returns kCorrupt
  /// naming the first misfit. Finite weights are also what makes the batched
  /// kernels' zero-column skip exact (nn::Dense::forward_batch).
  static Status validate_weights(const std::vector<nn::Tensor>& tensors);
  /// Restore from tensors in the same order as weights(). Fails (returns
  /// false, leaving the net unchanged) unless validate_weights() accepts them.
  bool load_weights(const std::vector<nn::Tensor>& tensors);

 private:
  std::vector<nn::Conv1D> branches_;  // one per input channel
  std::vector<nn::ReLU> branch_relu_;
  nn::Dense fc1_;
  nn::ReLU relu1_;
  nn::Dense fc2_;
  // backward() bookkeeping
  std::size_t conv_out_len_ = 0;
};

}  // namespace lingxi::predictor
