#include "nn/loss.h"

#include <algorithm>
#include <cmath>

#include "nn/activations.h"

namespace lingxi::nn {

double softmax_cross_entropy(const Tensor& logits, std::size_t label, Tensor& grad_logits) {
  LINGXI_ASSERT(logits.rank() == 1);
  const Tensor probs = softmax(logits);
  grad_logits = Tensor(probs.shape());
  double loss = 0.0;
  softmax_cross_entropy_rows({probs.data(), 1, probs.size()}, &label,
                             {grad_logits.data(), 1, grad_logits.size()}, &loss);
  return loss;
}

void softmax_cross_entropy_rows(ConstBatchView probs, const std::size_t* labels,
                                BatchView grad_logits, double* losses) {
  LINGXI_ASSERT(probs.rows == grad_logits.rows && probs.cols == grad_logits.cols);
  for (std::size_t r = 0; r < probs.rows; ++r) {
    const double* p = probs.row(r);
    double* g = grad_logits.row(r);
    LINGXI_ASSERT(labels[r] < probs.cols);
    for (std::size_t i = 0; i < probs.cols; ++i) g[i] = p[i];
    g[labels[r]] -= 1.0;
    // Clamp to avoid -inf on a (numerically) zero probability.
    losses[r] = -std::log(std::max(p[labels[r]], 1e-12));
  }
}

Tensor policy_gradient(const Tensor& logits, std::size_t action, double advantage) {
  LINGXI_ASSERT(logits.rank() == 1);
  LINGXI_ASSERT(action < logits.size());
  Tensor grad = softmax(logits);
  grad[action] -= 1.0;
  grad.scale(advantage);
  return grad;
}

}  // namespace lingxi::nn
