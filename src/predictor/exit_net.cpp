#include "predictor/exit_net.h"

#include <cmath>
#include <string>

#include "common/assert.h"
#include "nn/loss.h"

namespace lingxi::predictor {
namespace {

constexpr std::size_t kConvChannels = 64;
constexpr std::size_t kKernel = 4;
constexpr std::size_t kConvOutLen = kHistoryLen - kKernel + 1;  // 5
constexpr std::size_t kMergedSize = kChannels * kConvChannels * kConvOutLen;
constexpr std::size_t kFc1Size = 64;

}  // namespace

StallExitNet::StallExitNet(Rng& rng)
    : fc1_(kMergedSize, kFc1Size, rng), fc2_(kFc1Size, 2, rng) {
  branches_.reserve(kChannels);
  branch_relu_.resize(kChannels);
  for (std::size_t c = 0; c < kChannels; ++c) {
    branches_.emplace_back(1, kConvChannels, kKernel, rng);
  }
  conv_out_len_ = kConvOutLen;
}

nn::Tensor StallExitNet::logits(const nn::Tensor& features) {
  LINGXI_ASSERT(features.rank() == 2);
  LINGXI_ASSERT(features.dim(0) == kChannels && features.dim(1) == kHistoryLen);

  std::vector<nn::Tensor> merged_parts;
  merged_parts.reserve(kChannels);
  for (std::size_t c = 0; c < kChannels; ++c) {
    // Slice channel c as a [1, 8] tensor.
    nn::Tensor channel({1, kHistoryLen});
    for (std::size_t i = 0; i < kHistoryLen; ++i) channel.at(0, i) = features.at(c, i);
    nn::Tensor out = branch_relu_[c].forward(branches_[c].forward(channel));
    merged_parts.push_back(out.reshaped({kConvChannels * kConvOutLen}));
  }
  const nn::Tensor merged = nn::concat(merged_parts);
  return fc2_.forward(relu1_.forward(fc1_.forward(merged)));
}

void StallExitNet::backward(const nn::Tensor& grad_logits) {
  const nn::Tensor grad_merged = fc1_.backward(relu1_.backward(fc2_.backward(grad_logits)));
  LINGXI_ASSERT(grad_merged.size() == kMergedSize);
  for (std::size_t c = 0; c < kChannels; ++c) {
    nn::Tensor grad_branch({kConvChannels, kConvOutLen});
    const std::size_t offset = c * kConvChannels * kConvOutLen;
    for (std::size_t i = 0; i < kConvChannels * kConvOutLen; ++i) {
      grad_branch[i] = grad_merged[offset + i];
    }
    branches_[c].backward(branch_relu_[c].backward(grad_branch));
  }
}

double StallExitNet::predict(const nn::Tensor& features) {
  const nn::Tensor probs = nn::softmax(logits(features));
  return probs[1];
}

void StallExitNet::predict_batch(nn::ConstBatchView features, double* out,
                                 BatchWorkspace* ws) const {
  if (features.rows == 0) return;
  LINGXI_ASSERT(features.cols == kChannels * kHistoryLen);
  BatchWorkspace local;
  BatchWorkspace& w = ws != nullptr ? *ws : local;
  const std::size_t batch = features.rows;
  constexpr std::size_t kBranchCols = kConvChannels * kConvOutLen;
  w.merged.resize(batch * kMergedSize);
  w.hidden.resize(batch * kFc1Size);
  w.logits.resize(batch * 2);

  // Each branch convolves channel c of every row ([1, 8] inputs, strided
  // straight out of the feature matrix) and writes its [64, 5] map into the
  // channel-c block of the merged matrix — the same (branch, oc, t) layout
  // the scalar path produces via reshape + concat.
  for (std::size_t c = 0; c < kChannels; ++c) {
    const nn::ConstBatchView channel(features.data + c * kHistoryLen, batch, kHistoryLen,
                                     features.stride);
    const nn::BatchView block(w.merged.data() + c * kBranchCols, batch, kBranchCols,
                              kMergedSize);
    branches_[c].forward_batch(channel, block);
    nn::relu_rows(block);
  }

  const nn::BatchView merged(w.merged.data(), batch, kMergedSize);
  const nn::BatchView hidden(w.hidden.data(), batch, kFc1Size);
  fc1_.forward_batch(merged, hidden);
  nn::relu_rows(hidden);
  const nn::BatchView logit_rows(w.logits.data(), batch, 2);
  fc2_.forward_batch(hidden, logit_rows);
  nn::softmax_rows(logit_rows);
  for (std::size_t b = 0; b < batch; ++b) out[b] = logit_rows.row(b)[1];
}

nn::ParamSet StallExitNet::param_set() {
  nn::ParamSet set;
  for (auto& b : branches_) set.add(b);
  set.add(fc1_);
  set.add(fc2_);
  return set;
}

std::vector<const nn::Tensor*> StallExitNet::weights() const {
  std::vector<const nn::Tensor*> out;
  for (const auto& b : branches_) {
    for (const nn::Tensor* t : const_cast<nn::Conv1D&>(b).parameters()) out.push_back(t);
  }
  for (const nn::Tensor* t : const_cast<nn::Dense&>(fc1_).parameters()) out.push_back(t);
  for (const nn::Tensor* t : const_cast<nn::Dense&>(fc2_).parameters()) out.push_back(t);
  return out;
}

Status StallExitNet::validate_weights(const std::vector<nn::Tensor>& tensors) {
  // weights() order: (kernel, bias) per branch, then fc1 and fc2.
  std::vector<std::vector<std::size_t>> shapes;
  for (std::size_t c = 0; c < kChannels; ++c) {
    shapes.push_back({kConvChannels, 1, kKernel});
    shapes.push_back({kConvChannels});
  }
  shapes.push_back({kFc1Size, kMergedSize});
  shapes.push_back({kFc1Size});
  shapes.push_back({2, kFc1Size});
  shapes.push_back({2});
  if (tensors.size() != shapes.size()) {
    return Error::corrupt("stall-exit net expects " + std::to_string(shapes.size()) +
                          " tensors, got " + std::to_string(tensors.size()));
  }
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    if (tensors[i].shape() != shapes[i]) {
      return Error::corrupt("stall-exit net tensor " + std::to_string(i) + " has the wrong shape");
    }
    for (std::size_t k = 0; k < tensors[i].size(); ++k) {
      if (!std::isfinite(tensors[i][k])) {
        return Error::corrupt("stall-exit net tensor " + std::to_string(i) +
                              " holds a non-finite weight");
      }
    }
  }
  return {};
}

bool StallExitNet::load_weights(const std::vector<nn::Tensor>& tensors) {
  if (!validate_weights(tensors)) return false;
  std::vector<nn::Tensor*> targets;
  for (auto& b : branches_) {
    for (nn::Tensor* t : b.parameters()) targets.push_back(t);
  }
  for (nn::Tensor* t : fc1_.parameters()) targets.push_back(t);
  for (nn::Tensor* t : fc2_.parameters()) targets.push_back(t);
  for (std::size_t i = 0; i < targets.size(); ++i) *targets[i] = tensors[i];
  return true;
}

}  // namespace lingxi::predictor
