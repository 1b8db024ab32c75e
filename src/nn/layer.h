// Layer interface: forward caches what backward needs; backward accumulates
// parameter gradients (so minibatch training is gradient accumulation +
// one optimizer step) and returns the gradient w.r.t. the layer input.
// Dense and Conv1D also train a whole batch per call (backward_batch, on
// the inputs the caller kept from forward_batch); their backward() is a
// one-row call of it, so each keeps one implementation.
#pragma once

#include <vector>

#include "common/rng.h"
#include "nn/tensor.h"

namespace lingxi::nn {

class Layer {
 public:
  virtual ~Layer() = default;

  virtual Tensor forward(const Tensor& input) = 0;
  virtual Tensor backward(const Tensor& grad_output) = 0;

  /// Trainable parameters and their accumulated gradients, index-aligned.
  virtual std::vector<Tensor*> parameters() { return {}; }
  virtual std::vector<Tensor*> gradients() { return {}; }

  void zero_grad() {
    for (Tensor* g : gradients()) g->fill(0.0);
  }
};

/// He-uniform initialization for ReLU networks.
void he_init(Tensor& weights, std::size_t fan_in, Rng& rng);

}  // namespace lingxi::nn
