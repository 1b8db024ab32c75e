#include "nn/dense.h"

#include <atomic>
#include <cstdint>
#include <vector>

#if defined(__x86_64__)
#define LINGXI_DENSE_AVX2 1
#endif

namespace lingxi::nn {

Dense::Dense(std::size_t in_features, std::size_t out_features, Rng& rng)
    : in_(in_features),
      out_(out_features),
      w_({in_features, out_features}),
      b_({out_features}),
      gw_({in_features, out_features}),
      gb_({out_features}) {
  // Drawn in [out, in] order, so a seed gives the same net as it always has.
  Tensor drawn({out_features, in_features});
  he_init(drawn, in_features, rng);
  set_weight(drawn);
}

Tensor Dense::weight() const {
  Tensor w({out_, in_});
  for (std::size_t i = 0; i < in_; ++i) {
    for (std::size_t o = 0; o < out_; ++o) w[o * in_ + i] = w_[i * out_ + o];
  }
  return w;
}

void Dense::set_weight(const Tensor& w) {
  LINGXI_ASSERT(w.rank() == 2 && w.dim(0) == out_ && w.dim(1) == in_);
  for (std::size_t i = 0; i < in_; ++i) {
    for (std::size_t o = 0; o < out_; ++o) w_[i * out_ + o] = w[o * in_ + i];
  }
}

Tensor Dense::forward(const Tensor& input) {
  LINGXI_ASSERT(input.rank() == 1 && input.dim(0) == in_);
  last_input_ = input;
  // Every output sums bias + w[0][o] x[0] + w[1][o] x[1] + ... in input
  // order, one rounded multiply and one rounded add per term.
  Tensor out({out_});
  for (std::size_t o = 0; o < out_; ++o) out[o] = b_[o];
  for (std::size_t i = 0; i < in_; ++i) {
    const double xi = input[i];
    const double* wrow = w_.data() + i * out_;
    for (std::size_t o = 0; o < out_; ++o) out[o] += wrow[o] * xi;
  }
  return out;
}

namespace {

// The layer as the batched kernel reads it: w[i * out + o] (input-major), so
// one input's weights for a block of outputs are contiguous lanes.
struct InputMajor {
  const double* w;
  const double* bias;
  std::size_t in, out;
};

// Outputs [o, ...) of one row in blocks of kVecs vectors of V, while a whole
// block fits; returns the first output not written. Each lane is one output,
// so SIMD lanes run ACROSS outputs and never along the reduction: the lane
// of output o computes bias[o] + w[i0][o] x[i0] + w[i1][o] x[i1] + ... over
// the kept inputs i0 < i1 < ..., one rounded multiply and one rounded add
// per term (dense.cpp is compiled with -ffp-contract=off, so no FMA can fuse
// them). V = double makes the same template the scalar tail.
//
// A row streams every kept input's weights once (fc1: 512 bytes each), so
// the loop is bound by fetching them from L2, not by arithmetic. It
// prefetches the block's cache lines of the input kPrefetch kept inputs
// ahead, which the hardware prefetchers miss across the skipped inputs'
// gaps: on the fc1 shape 8 ahead measured about 15% faster than none.
constexpr std::size_t kPrefetch = 8;

template <typename V, std::size_t kVecs>
inline __attribute__((always_inline)) std::size_t dense_outputs(
    const InputMajor& lw, const double* x, const std::uint32_t* cols, std::size_t kept,
    std::size_t o, double* dst) {
  constexpr std::size_t kWidth = sizeof(V) / sizeof(double);
  constexpr std::size_t kBlock = kVecs * kWidth;
  for (; o + kBlock <= lw.out; o += kBlock) {
    V acc[kVecs];
    __builtin_memcpy(acc, lw.bias + o, sizeof acc);
    for (std::size_t k = 0; k < kept; ++k) {
      const double* ahead = lw.w + cols[k + kPrefetch < kept ? k + kPrefetch : k] * lw.out + o;
      for (std::size_t l = 0; l < kBlock; l += 8) __builtin_prefetch(ahead + l);
      const std::size_t i = cols[k];
      const double xi = x[i];
      const double* wi = lw.w + i * lw.out + o;
      for (std::size_t v = 0; v < kVecs; ++v) {
        V wv;
        __builtin_memcpy(&wv, wi + v * kWidth, sizeof(V));
        acc[v] += wv * xi;
      }
    }
    __builtin_memcpy(dst + o, acc, sizeof acc);
  }
  return o;
}

// Why the zero-input skip is exact. The kernel runs, for each output,
// forward()'s accumulation sequence minus the terms of zero inputs. A
// dropped term is w*(+-0) = +-0 for finite w (load_weights and the snapshot
// loader reject non-finite weights), and adding +-0 to a nonzero
// accumulator returns it unchanged, so every nonzero partial sum matches
// step for step. A zero accumulator can only differ in its sign:
// -0 + +0 = +0, while the skip keeps -0. Starting from a +0 bias the chain
// can never reach -0, so the one reachable difference is an output that is
// exactly zero under a -0.0 bias. Both compare equal, and the ReLU after fc1
// and the softmax after fc2 map either sign to the same bits, so no exit
// probability changes.
//
// Row by row: list the row's nonzero inputs (branch-free: every input is
// written to slot `kept` and kept only by advancing the count; the branch
// ReLUs of the stall-exit net make about 40% of fc1's inputs zero), then
// run the outputs in blocks of kBlockVecs vectors, the rest one vector at a
// time, and the last < kWidth outputs as scalars. Sixteen accumulators are
// fc1's 64 outputs in one pass of 4-lane vectors; on the fc1 shape one pass
// of 16 measured faster than two passes of 8, although two of the 16
// accumulators spill.
constexpr std::size_t kBlockVecs = 16;

template <typename V>
inline __attribute__((always_inline)) void dense_rows(const InputMajor& lw, ConstBatchView in,
                                                      BatchView out, std::uint32_t* cols) {
  for (std::size_t b = 0; b < in.rows; ++b) {
    const double* x = in.row(b);
    double* dst = out.row(b);
    std::size_t kept = 0;
    for (std::size_t i = 0; i < lw.in; ++i) {
      cols[kept] = static_cast<std::uint32_t>(i);
      kept += x[i] != 0.0 ? 1 : 0;
    }
    std::size_t o = dense_outputs<V, kBlockVecs>(lw, x, cols, kept, 0, dst);
    o = dense_outputs<V, 1>(lw, x, cols, kept, o, dst);
    dense_outputs<double, 1>(lw, x, cols, kept, o, dst);
  }
}

// The baseline build runs 16-byte vectors: wider generic vectors get split
// into slow stack-spilling sequences on pre-AVX codegen.
typedef double v2df __attribute__((vector_size(16)));

void dense_rows_baseline(const InputMajor& lw, ConstBatchView in, BatchView out,
                         std::uint32_t* cols) {
  dense_rows<v2df>(lw, in, out, cols);
}

#ifdef LINGXI_DENSE_AVX2
// The same kernel on 4-lane vectors, compiled for AVX2 and dispatched at run
// time (the build stays baseline x86-64). Same operations in the same order,
// so it is bitwise identical to the baseline build.
typedef double v4df __attribute__((vector_size(32)));

__attribute__((target("avx2"))) void dense_rows_avx2(const InputMajor& lw, ConstBatchView in,
                                                     BatchView out, std::uint32_t* cols) {
  dense_rows<v4df>(lw, in, out, cols);
}
#endif

// Active ISA: -1 = undecided (the widest supported one, on first use).
std::atomic<int> g_dense_isa{-1};

DenseIsa clamp_to_supported(DenseIsa want) noexcept {
  int v = static_cast<int>(want);
  while (v > 0 && !dense_isa_supported(static_cast<DenseIsa>(v))) --v;
  return static_cast<DenseIsa>(v);
}

}  // namespace

const char* dense_isa_name(DenseIsa isa) noexcept {
  switch (isa) {
    case DenseIsa::kBaseline: return "baseline";
    case DenseIsa::kAvx2: return "avx2";
  }
  return "unknown";
}

bool dense_isa_supported(DenseIsa isa) noexcept {
  switch (isa) {
    case DenseIsa::kBaseline:
      return true;
    case DenseIsa::kAvx2:
#ifdef LINGXI_DENSE_AVX2
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
  }
  return false;
}

DenseIsa dense_isa() noexcept {
  int v = g_dense_isa.load(std::memory_order_relaxed);
  if (v < 0) {
    v = static_cast<int>(clamp_to_supported(DenseIsa::kAvx2));
    g_dense_isa.store(v, std::memory_order_relaxed);
  }
  return static_cast<DenseIsa>(v);
}

DenseIsa set_dense_isa_for_testing(DenseIsa isa) noexcept {
  const DenseIsa got = clamp_to_supported(isa);
  g_dense_isa.store(static_cast<int>(got), std::memory_order_relaxed);
  return got;
}

void Dense::forward_batch(ConstBatchView in, BatchView out) const {
  LINGXI_ASSERT(in.rows == out.rows);
  LINGXI_ASSERT(in.cols == in_ && out.cols == out_);
  // The kept-input list, reused across rows and calls so a lockstep Monte
  // Carlo run allocates it once per thread.
  static thread_local std::vector<std::uint32_t> cols;
  cols.resize(in_);
  const InputMajor lw{w_.data(), b_.data(), in_, out_};
#ifdef LINGXI_DENSE_AVX2
  if (dense_isa() >= DenseIsa::kAvx2) {
    dense_rows_avx2(lw, in, out, cols.data());
    return;
  }
#endif
  dense_rows_baseline(lw, in, out, cols.data());
}

Tensor Dense::backward(const Tensor& grad_output) {
  LINGXI_ASSERT(grad_output.rank() == 1 && grad_output.dim(0) == out_);
  LINGXI_ASSERT(last_input_.size() == in_);
  for (std::size_t o = 0; o < out_; ++o) gb_[o] += grad_output[o];
  // grad_in[i] sums go[o] w[i][o] over outputs in order, from +0.
  Tensor grad_in({in_});
  for (std::size_t i = 0; i < in_; ++i) {
    const double xi = last_input_[i];
    double* gwrow = gw_.data() + i * out_;
    const double* wrow = w_.data() + i * out_;
    double g = 0.0;
    for (std::size_t o = 0; o < out_; ++o) {
      const double go = grad_output[o];
      gwrow[o] += go * xi;
      g += go * wrow[o];
    }
    grad_in[i] = g;
  }
  return grad_in;
}

}  // namespace lingxi::nn
