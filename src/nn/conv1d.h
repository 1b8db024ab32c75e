// 1D convolution over [channels, length] inputs, stride 1, valid padding.
// This is the feature extractor of the paper's exit-rate predictor: each of
// the five input dimensions runs through a Conv1D(1 -> 64, kernel 4).
#pragma once

#include "nn/layer.h"

namespace lingxi::nn {

class Conv1D final : public Layer {
 public:
  Conv1D(std::size_t in_channels, std::size_t out_channels, std::size_t kernel, Rng& rng);

  /// input: [in_channels, L] with L >= kernel; output: [out_channels, L-K+1].
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;

  /// Batched inference: each input row holds one [in_channels, L] input
  /// flattened row-major (L = in.cols / in_channels), each output row the
  /// matching [out_channels, L-K+1] feature map. SIMD lanes run across
  /// output channels; the accumulation order per output element matches
  /// forward() exactly, so every row is bitwise identical to the scalar
  /// path. Inference only (no backward caches).
  void forward_batch(ConstBatchView in, BatchView out) const;

  std::vector<Tensor*> parameters() override { return {&w_, &b_}; }
  std::vector<Tensor*> gradients() override { return {&gw_, &gb_}; }

  std::size_t in_channels() const noexcept { return in_ch_; }
  std::size_t out_channels() const noexcept { return out_ch_; }
  std::size_t kernel() const noexcept { return kernel_; }

  /// Const parameter access for checkpointing (serialize.h).
  const Tensor& weight() const noexcept { return w_; }
  const Tensor& bias() const noexcept { return b_; }

 private:
  std::size_t in_ch_, out_ch_, kernel_;
  Tensor w_, b_;   // [out_ch, in_ch, K], [out_ch]
  Tensor gw_, gb_;
  Tensor last_input_;
};

}  // namespace lingxi::nn
