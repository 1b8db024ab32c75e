// Fully connected layer: y = W x + b.
#pragma once

#include "nn/layer.h"

namespace lingxi::nn {

/// Instruction set the batched nn kernels run on (Dense::forward_batch, and
/// Conv1D::forward_batch's lane width). Every variant keeps SIMD lanes ACROSS
/// batch rows or output channels (never along the reduction), so all three
/// produce bitwise-identical outputs — pinned by the forced-ISA parity
/// tests. Ordered narrow to wide so clamping to hardware support is a min().
enum class DenseIsa {
  kScalar = 0,  ///< unrolled scalar blocks only
  kSse2 = 1,    ///< 16-byte generic vectors, full blocks only; the vector
                ///< path on x86 without AVX2 and on non-x86 GCC builds
  kAvx2 = 2,    ///< ymm panels sized to the block: one ymm for 2..4 rows,
                ///< two for 5..8
};

/// Name for logs / env parsing: "scalar", "sse2", "avx2".
const char* dense_isa_name(DenseIsa isa) noexcept;

/// True when this build + CPU can run `isa`.
bool dense_isa_supported(DenseIsa isa) noexcept;

/// The ISA forward_batch currently dispatches to: the widest supported one,
/// unless LINGXI_DENSE_ISA (scalar|sse2|avx2, clamped to hardware support)
/// or set_dense_isa_for_testing() overrode it.
DenseIsa dense_isa() noexcept;

/// In-process override for tests and benches (the env var is only read
/// once). Clamped to dense_isa_supported(); returns the ISA actually set.
DenseIsa set_dense_isa_for_testing(DenseIsa isa) noexcept;

class Dense final : public Layer {
 public:
  /// Weights He-initialized from `rng`, biases zero.
  Dense(std::size_t in_features, std::size_t out_features, Rng& rng);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;

  /// Batched inference: out.row(b) = W in.row(b) + b for every row. Blocked
  /// over batch rows so each weight row is streamed once per block instead of
  /// once per item; a multi-row call never forms a 1-row block (9 rows run
  /// as 5 + 4). The vector kernels pack each block into a panel without the
  /// input columns that are zero in every row of the block, and the AVX2
  /// panel carries several outputs' accumulation chains at once (a 1-row
  /// call too, except on a 2-output layer). Each output
  /// keeps forward()'s accumulation order over the kept columns, so every
  /// row is bitwise identical to forward() for finite weights, up to the
  /// sign of an output that is exactly zero under a -0.0 bias (see
  /// dense.cpp). Inference only: does not touch the backward() caches, safe
  /// on a const layer.
  void forward_batch(ConstBatchView in, BatchView out) const;

  std::vector<Tensor*> parameters() override { return {&w_, &b_}; }
  std::vector<Tensor*> gradients() override { return {&gw_, &gb_}; }

  std::size_t in_features() const noexcept { return in_; }
  std::size_t out_features() const noexcept { return out_; }

  /// Const parameter access for checkpointing (serialize.h).
  const Tensor& weight() const noexcept { return w_; }
  const Tensor& bias() const noexcept { return b_; }

 private:
  std::size_t in_, out_;
  Tensor w_, b_;    // [out, in], [out]
  Tensor gw_, gb_;
  Tensor last_input_;
};

}  // namespace lingxi::nn
