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

// The batched backward pass. Two kernels, both with SIMD lanes that never
// run along a sum, so both ISA builds give the same bits and every row gets
// exactly the terms, in exactly the order, of its own one-row call:
//
// gw: one pass per call. For each input i, a block of outputs of gw's row i
// is loaded into accumulators once, and every row's term go[s][o] x[s][i] is
// added in row order (lanes across outputs): gw[i][o] sums its terms in
// sample order, as one-row calls would, while it reads and writes the row
// once per batch instead of once per sample. Rows whose x[s][i] is zero are
// skipped. That is exact for a gradient that starts at zero_grad()'s +0.0
// and for finite grad_out: the dropped term go*(+-0) is +-0, adding +-0 to a
// nonzero sum returns it unchanged, and a sum that starts at +0 can never
// reach -0 (x + y is -0 only when both are -0), so +0 + (+-0) = +0 as well.
//
// grad_in: for each input i and a block of rows (lanes across rows),
// grad_in[s][i] = +0 + go[s][0] w[i][0] + go[s][1] w[i][1] + ... in output
// order, one rounded multiply and one rounded add per term.
struct BackwardArgs {
  const double* w;   // [in, out]
  double* gw;        // [in, out]
  std::size_t in, out;
  ConstBatchView x, grad_out;
  const double* go_t;  // grad_out as [out, rows]
  BatchView grad_in;
  std::uint32_t* kept_rows;
  double* kept_x;
};

// gw's outputs [o, ...) of input row `gwi`, in blocks of kVecs vectors of V
// while a whole block fits; returns the first output not written.
template <typename V, std::size_t kVecs>
inline __attribute__((always_inline)) std::size_t grad_weight_outputs(
    const BackwardArgs& a, double* gwi, std::size_t kept, std::size_t o) {
  constexpr std::size_t kWidth = sizeof(V) / sizeof(double);
  constexpr std::size_t kBlock = kVecs * kWidth;
  for (; o + kBlock <= a.out; o += kBlock) {
    V acc[kVecs];
    __builtin_memcpy(acc, gwi + o, sizeof acc);
    for (std::size_t k = 0; k < kept; ++k) {
      const double xs = a.kept_x[k];
      const double* go = a.grad_out.row(a.kept_rows[k]) + o;
      for (std::size_t v = 0; v < kVecs; ++v) {
        V gv;
        __builtin_memcpy(&gv, go + v * kWidth, sizeof(V));
        acc[v] += gv * xs;
      }
    }
    __builtin_memcpy(gwi + o, acc, sizeof acc);
  }
  return o;
}

// grad_in of input i for rows [s, ...) in blocks of kVecs vectors of V
// (lanes across rows); returns the first row not written.
template <typename V, std::size_t kVecs>
inline __attribute__((always_inline)) std::size_t grad_input_rows(const BackwardArgs& a,
                                                                 std::size_t i, std::size_t s) {
  constexpr std::size_t kWidth = sizeof(V) / sizeof(double);
  constexpr std::size_t kBlock = kVecs * kWidth;
  const std::size_t rows = a.x.rows;
  const double* wi = a.w + i * a.out;
  for (; s + kBlock <= rows; s += kBlock) {
    V acc[kVecs] = {};
    for (std::size_t o = 0; o < a.out; ++o) {
      const double wo = wi[o];
      const double* go = a.go_t + o * rows + s;
      for (std::size_t v = 0; v < kVecs; ++v) {
        V gv;
        __builtin_memcpy(&gv, go + v * kWidth, sizeof(V));
        acc[v] += gv * wo;
      }
    }
    double lanes[kBlock];
    __builtin_memcpy(lanes, acc, sizeof lanes);
    for (std::size_t l = 0; l < kBlock; ++l) a.grad_in.row(s + l)[i] = lanes[l];
  }
  return s;
}

// Sixteen gw accumulators are fc1's 64 outputs in one pass of 4-lane
// vectors, as in the forward kernel; eight grad_in accumulators are eight
// independent sums, enough to hide the add latency of each 64-term chain.
constexpr std::size_t kGradInVecs = 8;

template <typename V>
inline __attribute__((always_inline)) void dense_backward(const BackwardArgs& a) {
  for (std::size_t i = 0; i < a.in; ++i) {
    std::size_t kept = 0;
    for (std::size_t s = 0; s < a.x.rows; ++s) {
      const double xs = a.x.row(s)[i];
      a.kept_rows[kept] = static_cast<std::uint32_t>(s);
      a.kept_x[kept] = xs;
      kept += xs != 0.0 ? 1 : 0;
    }
    double* gwi = a.gw + i * a.out;
    std::size_t o = grad_weight_outputs<V, kBlockVecs>(a, gwi, kept, 0);
    o = grad_weight_outputs<V, 1>(a, gwi, kept, o);
    grad_weight_outputs<double, 1>(a, gwi, kept, o);

    std::size_t s = grad_input_rows<V, kGradInVecs>(a, i, 0);
    s = grad_input_rows<V, 1>(a, i, s);
    grad_input_rows<double, 1>(a, i, s);
  }
}

void dense_backward_baseline(const BackwardArgs& a) { dense_backward<v2df>(a); }

#ifdef LINGXI_DENSE_AVX2
__attribute__((target("avx2"))) void dense_backward_avx2(const BackwardArgs& a) {
  dense_backward<v4df>(a);
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
  Tensor grad_in({in_});
  backward_batch({last_input_.data(), 1, in_}, {grad_output.data(), 1, out_},
                 {grad_in.data(), 1, in_});
  return grad_in;
}

void Dense::backward_batch(ConstBatchView in, ConstBatchView grad_out, BatchView grad_in) {
  LINGXI_ASSERT(in.rows == grad_out.rows && in.rows == grad_in.rows);
  LINGXI_ASSERT(in.cols == in_ && grad_out.cols == out_ && grad_in.cols == in_);
  const std::size_t rows = in.rows;
  if (rows == 0) return;
  for (std::size_t s = 0; s < rows; ++s) {
    const double* go = grad_out.row(s);
    for (std::size_t o = 0; o < out_; ++o) gb_[o] += go[o];
  }
  // grad_out transposed to [out, rows], so one output's gradient for a block
  // of rows is contiguous lanes; and one input's kept rows.
  std::vector<double> go_t(out_ * rows);
  for (std::size_t s = 0; s < rows; ++s) {
    for (std::size_t o = 0; o < out_; ++o) go_t[o * rows + s] = grad_out.row(s)[o];
  }
  std::vector<std::uint32_t> kept_rows(rows);
  std::vector<double> kept_x(rows);
  const BackwardArgs a{w_.data(), gw_.data(), in_, out_, in, grad_out, go_t.data(), grad_in,
                       kept_rows.data(), kept_x.data()};
#ifdef LINGXI_DENSE_AVX2
  if (dense_isa() >= DenseIsa::kAvx2) {
    dense_backward_avx2(a);
    return;
  }
#endif
  dense_backward_baseline(a);
}

}  // namespace lingxi::nn
