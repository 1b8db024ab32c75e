// Fully connected layer: y = W x + b.
#pragma once

#include "nn/layer.h"

namespace lingxi::nn {

/// Instruction set the batched nn kernels run on (Dense::forward_batch and
/// backward_batch, Conv1D::forward_batch's lane width, Adam::step). Both
/// builds keep SIMD lanes ACROSS output channels, rows or elements (never
/// along a sum), so they produce bitwise-identical results, pinned by the
/// forced-ISA parity tests. Ordered narrow to wide so clamping to hardware
/// support is a min().
enum class DenseIsa {
  kBaseline = 0,  ///< 16-byte generic vectors: the build's baseline target
  kAvx2 = 1,      ///< 32-byte vectors in a target("avx2") build of the
                  ///< same kernel (x86-64 only)
};

/// Name for logs and test messages: "baseline", "avx2".
const char* dense_isa_name(DenseIsa isa) noexcept;

/// True when this build + CPU can run `isa`.
bool dense_isa_supported(DenseIsa isa) noexcept;

/// The ISA forward_batch currently dispatches to: the widest supported one
/// (from cpuid), unless set_dense_isa_for_testing() overrode it.
DenseIsa dense_isa() noexcept;

/// In-process override for tests and benches, which sweep every supported
/// ISA. Clamped to dense_isa_supported(); returns the ISA actually set.
DenseIsa set_dense_isa_for_testing(DenseIsa isa) noexcept;

class Dense final : public Layer {
 public:
  /// Weights He-initialized from `rng`, biases zero.
  Dense(std::size_t in_features, std::size_t out_features, Rng& rng);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;

  /// Batched inference: out.row(b) = W in.row(b) + b for every row, one row
  /// at a time. Each row lists its nonzero inputs, then SIMD lanes run
  /// across outputs: every output sums its bias and the kept inputs' terms
  /// in forward()'s order, so every row is bitwise identical to forward()
  /// for finite weights, up to the sign of an output that is exactly zero
  /// under a -0.0 bias (see dense.cpp). Inference only: does not touch the
  /// backward() caches, safe on a const layer.
  void forward_batch(ConstBatchView in, BatchView out) const;

  /// Batched backward pass: row r of `in` is an input the forward pass saw
  /// and row r of `grad_out` the loss gradient at its output. Accumulates
  /// every row's parameter gradients into gradients() and writes each row's
  /// gradient w.r.t. its input to `grad_in`. Every gradient element adds
  /// its rows' terms in row order, so the result is bitwise that of
  /// backpropagating the rows one at a time, from gradients that start at
  /// zero_grad() and for a finite grad_out (see dense.cpp). backward() is
  /// its one-row call.
  void backward_batch(ConstBatchView in, ConstBatchView grad_out, BatchView grad_in);

  std::vector<Tensor*> parameters() override { return {&w_, &b_}; }
  std::vector<Tensor*> gradients() override { return {&gw_, &gb_}; }

  std::size_t in_features() const noexcept { return in_; }
  std::size_t out_features() const noexcept { return out_; }

  /// W as [out, in], the order the model container saves (serialize.h):
  /// a copy transposed out of the input-major storage.
  Tensor weight() const;
  /// Sets W from an [out, in] tensor (the order weight() returns).
  void set_weight(const Tensor& w);
  const Tensor& bias() const noexcept { return b_; }

 private:
  std::size_t in_, out_;
  // Input-major, [in, out]: one input's weights for every output are
  // contiguous, the order forward_batch's lanes read them. parameters()
  // hands the optimizer this storage; its gradient gw_ has the same layout.
  Tensor w_, b_;    // [in, out], [out]
  Tensor gw_, gb_;
  Tensor last_input_;
};

}  // namespace lingxi::nn
