// Activation layers and softmax helpers.
#pragma once

#include "nn/layer.h"

namespace lingxi::nn {

class ReLU final : public Layer {
 public:
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;

 private:
  Tensor last_input_;
};

/// Numerically stable softmax over a rank-1 tensor.
Tensor softmax(const Tensor& logits);

/// In-place batched ReLU over every row of the view. Bitwise identical per
/// element to ReLU::forward.
void relu_rows(BatchView x) noexcept;

/// In-place batched ReLU backward pass: zeroes (+0.0) the gradient of every
/// unit whose `x` is <= 0. `x` may be the ReLU's input or its output (the
/// output is 0 exactly where the input is <= 0). ReLU::backward runs it.
void relu_backward_rows(ConstBatchView x, BatchView grad) noexcept;

/// In-place row-wise numerically stable softmax. Per-row operation order
/// matches softmax() exactly, so each row is bitwise identical to the scalar
/// path. Rows must be non-empty (cols >= 1).
void softmax_rows(BatchView x) noexcept;

}  // namespace lingxi::nn
