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
  for (std::size_t c = 0; c < kChannels; ++c) {
    branches_.emplace_back(1, kConvChannels, kKernel, rng);
  }
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
    nn::Tensor out = branches_[c].forward(channel);
    nn::relu_rows({out.data(), 1, out.size()});
    merged_parts.push_back(out.reshaped({kConvChannels * kConvOutLen}));
  }
  const nn::Tensor merged = nn::concat(merged_parts);
  nn::Tensor hidden = fc1_.forward(merged);
  nn::relu_rows({hidden.data(), 1, hidden.size()});
  return fc2_.forward(hidden);
}

double StallExitNet::predict(const nn::Tensor& features) {
  const nn::Tensor probs = nn::softmax(logits(features));
  return probs[1];
}

void StallExitNet::forward_batch(nn::ConstBatchView features, BatchWorkspace& w) const {
  LINGXI_ASSERT(features.cols == kChannels * kHistoryLen);
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
}

void StallExitNet::predict_batch(nn::ConstBatchView features, double* out,
                                 BatchWorkspace* ws) const {
  if (features.rows == 0) return;
  BatchWorkspace local;
  BatchWorkspace& w = ws != nullptr ? *ws : local;
  forward_batch(features, w);
  for (std::size_t b = 0; b < features.rows; ++b) out[b] = w.logits[b * 2 + 1];
}

void StallExitNet::train_step(nn::ConstBatchView features, const std::size_t* labels,
                              double grad_scale, double* losses, TrainWorkspace& ws) {
  const std::size_t batch = features.rows;
  if (batch == 0) return;
  constexpr std::size_t kBranchCols = kConvChannels * kConvOutLen;
  forward_batch(features, ws.forward);

  ws.grad_logits.resize(batch * 2);
  nn::softmax_cross_entropy_rows({ws.forward.logits.data(), batch, 2}, labels,
                                 {ws.grad_logits.data(), batch, 2}, losses);
  for (double& g : ws.grad_logits) g *= grad_scale;

  ws.grad_hidden.resize(batch * kFc1Size);
  ws.grad_merged.resize(batch * kMergedSize);
  fc2_.backward_batch({ws.forward.hidden.data(), batch, kFc1Size},
                      {ws.grad_logits.data(), batch, 2},
                      {ws.grad_hidden.data(), batch, kFc1Size});
  nn::relu_backward_rows({ws.forward.hidden.data(), batch, kFc1Size},
                         {ws.grad_hidden.data(), batch, kFc1Size});
  fc1_.backward_batch({ws.forward.merged.data(), batch, kMergedSize},
                      {ws.grad_hidden.data(), batch, kFc1Size},
                      {ws.grad_merged.data(), batch, kMergedSize});
  nn::relu_backward_rows({ws.forward.merged.data(), batch, kMergedSize},
                         {ws.grad_merged.data(), batch, kMergedSize});
  for (std::size_t c = 0; c < kChannels; ++c) {
    const nn::ConstBatchView channel(features.data + c * kHistoryLen, batch, kHistoryLen,
                                     features.stride);
    const nn::ConstBatchView grad_block(ws.grad_merged.data() + c * kBranchCols, batch,
                                        kBranchCols, kMergedSize);
    branches_[c].backward_batch(channel, grad_block);
  }
}

nn::ParamSet StallExitNet::param_set() {
  nn::ParamSet set;
  for (auto& b : branches_) set.add(b);
  set.add(fc1_);
  set.add(fc2_);
  return set;
}

std::vector<nn::Tensor> StallExitNet::weights() const {
  std::vector<nn::Tensor> out;
  for (const auto& b : branches_) {
    out.push_back(b.weight());
    out.push_back(b.bias());
  }
  for (const nn::Dense* fc : {&fc1_, &fc2_}) {
    out.push_back(fc->weight());
    out.push_back(fc->bias());
  }
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
  std::size_t t = 0;
  for (auto& b : branches_) {
    for (nn::Tensor* p : b.parameters()) *p = tensors[t++];
  }
  for (nn::Dense* fc : {&fc1_, &fc2_}) {
    fc->set_weight(tensors[t++]);
    *fc->parameters()[1] = tensors[t++];
  }
  return true;
}

}  // namespace lingxi::predictor
