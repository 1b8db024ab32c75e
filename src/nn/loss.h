// Softmax cross-entropy (Eq. 5 of the paper) and policy-gradient helpers.
#pragma once

#include <cstddef>

#include "nn/tensor.h"

namespace lingxi::nn {

/// Cross-entropy of softmax(logits) against a one-hot label.
/// Returns the loss; `grad_logits` (same shape as logits) receives
/// d loss / d logits = softmax(logits) - onehot(label).
double softmax_cross_entropy(const Tensor& logits, std::size_t label, Tensor& grad_logits);

/// The same per row of a batch whose logits are already through
/// softmax_rows: row r of `probs` against `labels[r]`, the loss to
/// `losses[r]` and probs - onehot(label) to row r of `grad_logits`.
void softmax_cross_entropy_rows(ConstBatchView probs, const std::size_t* labels,
                                BatchView grad_logits, double* losses);

/// REINFORCE gradient for one step: d(-log pi(a)) * advantage / d logits
/// = (softmax(logits) - onehot(action)) * advantage.
Tensor policy_gradient(const Tensor& logits, std::size_t action, double advantage);

}  // namespace lingxi::nn
