#include "nn/activations.h"

#include <algorithm>
#include <cmath>

namespace lingxi::nn {

Tensor ReLU::forward(const Tensor& input) {
  last_input_ = input;
  Tensor out = input;
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = std::max(0.0, out[i]);
  return out;
}

Tensor ReLU::backward(const Tensor& grad_output) {
  LINGXI_ASSERT(grad_output.same_shape(last_input_));
  Tensor grad_in = grad_output;
  relu_backward_rows({last_input_.data(), 1, last_input_.size()},
                     {grad_in.data(), 1, grad_in.size()});
  return grad_in;
}

Tensor softmax(const Tensor& logits) {
  LINGXI_ASSERT(logits.rank() == 1);
  Tensor out = logits;
  double mx = out[0];
  for (std::size_t i = 1; i < out.size(); ++i) mx = std::max(mx, out[i]);
  double sum = 0.0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = std::exp(out[i] - mx);
    sum += out[i];
  }
  for (std::size_t i = 0; i < out.size(); ++i) out[i] /= sum;
  return out;
}

void relu_rows(BatchView x) noexcept {
  for (std::size_t r = 0; r < x.rows; ++r) {
    double* row = x.row(r);
    for (std::size_t i = 0; i < x.cols; ++i) row[i] = std::max(0.0, row[i]);
  }
}

void relu_backward_rows(ConstBatchView x, BatchView grad) noexcept {
  LINGXI_DASSERT(x.rows == grad.rows && x.cols == grad.cols);
  for (std::size_t r = 0; r < x.rows; ++r) {
    const double* xr = x.row(r);
    double* g = grad.row(r);
    for (std::size_t i = 0; i < x.cols; ++i) {
      if (xr[i] <= 0.0) g[i] = 0.0;
    }
  }
}

void softmax_rows(BatchView x) noexcept {
  LINGXI_DASSERT(x.rows == 0 || x.cols >= 1);
  for (std::size_t r = 0; r < x.rows; ++r) {
    double* row = x.row(r);
    double mx = row[0];
    for (std::size_t i = 1; i < x.cols; ++i) mx = std::max(mx, row[i]);
    double sum = 0.0;
    for (std::size_t i = 0; i < x.cols; ++i) {
      row[i] = std::exp(row[i] - mx);
      sum += row[i];
    }
    for (std::size_t i = 0; i < x.cols; ++i) row[i] /= sum;
  }
}

}  // namespace lingxi::nn
