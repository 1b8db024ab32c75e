#include "nn/dense.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <vector>

#if defined(__GNUC__) && !defined(LINGXI_NO_DENSE_SIMD)
#define LINGXI_DENSE_SIMD 1
#if defined(__x86_64__)
#define LINGXI_DENSE_X86 1
#include <immintrin.h>
#endif
#endif

namespace lingxi::nn {

Dense::Dense(std::size_t in_features, std::size_t out_features, Rng& rng)
    : in_(in_features),
      out_(out_features),
      w_({out_features, in_features}),
      b_({out_features}),
      gw_({out_features, in_features}),
      gb_({out_features}) {
  he_init(w_, in_features, rng);
}

Tensor Dense::forward(const Tensor& input) {
  LINGXI_ASSERT(input.rank() == 1 && input.dim(0) == in_);
  last_input_ = input;
  Tensor out({out_});
  for (std::size_t o = 0; o < out_; ++o) {
    double acc = b_[o];
    const double* wrow = w_.data() + o * in_;
    for (std::size_t i = 0; i < in_; ++i) acc += wrow[i] * input[i];
    out[o] = acc;
  }
  return out;
}

namespace {

// One block of BN batch rows against the whole weight matrix. BN is a
// compile-time constant so the per-weight inner loop fully unrolls into BN
// independent fused-multiply chains — a runtime-bounded inner loop here
// costs ~3x (measured) because it defeats unrolling. Each chain accumulates
// in the same order as the scalar forward(), preserving bitwise parity.
template <std::size_t BN>
void dense_block(const double* w, const Tensor& bias, std::size_t in_features,
                 std::size_t out_features, const double* const* rows, double* const* dst) {
  for (std::size_t o = 0; o < out_features; ++o) {
    const double* wrow = w + o * in_features;
    double acc[BN];
    for (std::size_t j = 0; j < BN; ++j) acc[j] = bias[o];
    for (std::size_t i = 0; i < in_features; ++i) {
      const double wi = wrow[i];
      for (std::size_t j = 0; j < BN; ++j) acc[j] += wi * rows[j][i];
    }
    for (std::size_t j = 0; j < BN; ++j) dst[j][o] = acc[j];
  }
}

#ifdef LINGXI_DENSE_SIMD
// Interleaved row panel shared by the vector kernels: every input column
// that is nonzero in at least one of the block's `bn` rows becomes one
// `width`-double panel row (lanes past `bn` zero-padded), and `cols[k]`
// records which input column panel row k came from. Columns that are exactly
// zero (+0.0 or -0.0) in every row are dropped; the branch ReLUs of the
// stall-exit net make about 40% of fc1's columns zero across a whole block.
// The pack is a pure copy (no rounding) amortized over all out_features
// weight rows. Branch-free: each column is written to slot `kept` and kept
// only by advancing the count. Returns the number of kept columns.
std::size_t pack_panel(const double* const* rows, std::size_t bn, std::size_t width,
                       std::size_t in_features, double* panel, std::uint32_t* cols) {
  std::size_t kept = 0;
  for (std::size_t i = 0; i < in_features; ++i) {
    double* p = panel + width * kept;
    bool nonzero = false;
    std::size_t j = 0;
    for (; j < bn; ++j) {
      p[j] = rows[j][i];
      nonzero |= p[j] != 0.0;
    }
    for (; j < width; ++j) p[j] = 0.0;
    cols[kept] = static_cast<std::uint32_t>(i);
    kept += nonzero ? 1 : 0;
  }
  return kept;
}

// Why the column skip is exact. The vector kernels below run, for each lane,
// the scalar forward()'s accumulation sequence minus the terms of dropped
// columns. A dropped term is w*(+-0) = +-0 for finite w (load_weights and
// the snapshot loader reject non-finite weights), and adding +-0 to a
// nonzero accumulator returns it unchanged, so every nonzero partial sum
// matches step for step. A zero accumulator can only differ in its sign:
// -0 + +0 = +0, while the skip keeps -0. Starting from a +0 bias the chain
// can never reach -0, so the one reachable difference is an output that is
// exactly zero under a -0.0 bias. Both compare equal, and the ReLU after fc1
// and the softmax after fc2 map either sign to the same bits, so no exit
// probability changes.

// Explicitly vectorized full block: SIMD lanes run ACROSS batch rows, never
// along the reduction, so each lane performs exactly the scalar kernel's
// accumulation sequence for its row — same adds, same order, bitwise parity
// with forward() by construction (reduction-order vectorization would
// reassociate and drift). It reads the 8-wide pack_panel() layout, four
// contiguous 2-lane vectors per kept column, and broadcasts the matching
// weight wrow[cols[k]]. The vector is the baseline 16-byte width — wider
// generic vectors get split into slow stack-spilling sequences on pre-AVX
// codegen (measured ~5x slower), while the native width runs ~1.6x faster
// than the unrolled scalar block. The fp-contraction decision is made under
// the same flags as the scalar path, keeping lane and scalar math identical.
typedef double v2df __attribute__((vector_size(16)));

void dense_block8_simd(const double* w, const Tensor& bias, std::size_t in_features,
                       std::size_t out_features, const double* panel,
                       const std::uint32_t* cols, std::size_t kept, double* const* dst) {
  for (std::size_t o = 0; o < out_features; ++o) {
    const double* wrow = w + o * in_features;
    const double b = bias[o];
    v2df acc0 = {b, b};
    v2df acc1 = {b, b};
    v2df acc2 = {b, b};
    v2df acc3 = {b, b};
    for (std::size_t k = 0; k < kept; ++k) {
      const double wi = wrow[cols[k]];
      const v2df wv = {wi, wi};
      const double* p = panel + 8 * k;
      v2df r0, r1, r2, r3;
      __builtin_memcpy(&r0, p, sizeof r0);
      __builtin_memcpy(&r1, p + 2, sizeof r1);
      __builtin_memcpy(&r2, p + 4, sizeof r2);
      __builtin_memcpy(&r3, p + 6, sizeof r3);
      acc0 += wv * r0;
      acc1 += wv * r1;
      acc2 += wv * r2;
      acc3 += wv * r3;
    }
    dst[0][o] = acc0[0];
    dst[1][o] = acc0[1];
    dst[2][o] = acc1[0];
    dst[3][o] = acc1[1];
    dst[4][o] = acc2[0];
    dst[5][o] = acc2[1];
    dst[6][o] = acc3[0];
    dst[7][o] = acc3[1];
  }
}
#endif  // LINGXI_DENSE_SIMD

#ifdef LINGXI_DENSE_X86
// The AVX2 variant of the panel kernel, runtime-dispatched (the build stays
// baseline x86-64; the target attribute lets the function use AVX2). Same
// contract as dense_block8_simd: lanes across rows, each lane the exact
// scalar accumulation sequence over the kept columns. Two hazards are
// handled explicitly:
//  * fp contraction — this file is compiled with -ffp-contract=off, so the
//    mul-then-add below can never fuse into an FMA (a fused step skips the
//    intermediate rounding the scalar path takes and would break bitwise
//    parity);
//  * partial blocks — the panel is as wide as the block needs: NA ymm
//    accumulators of 4 lanes (one for 2..4 rows, two for 5..8), the lanes
//    past `bn` zero-padded and never stored. A 2-row block pays for 4 lanes,
//    not 8.
// Each output's chain is serial (forward()'s order), so running one output
// at a time waits a full add latency per column with only NA chains in
// flight. dense_panel_avx2 therefore carries NO = 8 / NA outputs through the
// column loop together: eight independent chains per column, each still in
// its own output's order. At the fc1 shape that measured 1.3x (dense
// inputs) to 2x (half the columns skipped) faster than one output at a time;
// 12 / NA outputs ran slower.
template <std::size_t NA, std::size_t NO>
__attribute__((target("avx2"), always_inline)) inline void dense_panel_outputs_avx2(
    const double* w, const Tensor& bias, std::size_t in_features, std::size_t o,
    const double* panel, const std::uint32_t* cols, std::size_t kept, std::size_t bn,
    double* const* dst) {
  const double* wrow[NO];
  __m256d acc[NO][NA];
  for (std::size_t q = 0; q < NO; ++q) {
    wrow[q] = w + (o + q) * in_features;
    for (std::size_t a = 0; a < NA; ++a) acc[q][a] = _mm256_set1_pd(bias[o + q]);
  }
  for (std::size_t k = 0; k < kept; ++k) {
    const std::uint32_t c = cols[k];
    const double* p = panel + 4 * NA * k;
    __m256d x[NA];
    for (std::size_t a = 0; a < NA; ++a) x[a] = _mm256_loadu_pd(p + 4 * a);
    for (std::size_t q = 0; q < NO; ++q) {
      const __m256d wv = _mm256_set1_pd(wrow[q][c]);
      for (std::size_t a = 0; a < NA; ++a) {
        acc[q][a] = _mm256_add_pd(acc[q][a], _mm256_mul_pd(wv, x[a]));
      }
    }
  }
  for (std::size_t q = 0; q < NO; ++q) {
    double lanes[4 * NA];
    for (std::size_t a = 0; a < NA; ++a) _mm256_storeu_pd(lanes + 4 * a, acc[q][a]);
    for (std::size_t j = 0; j < bn; ++j) dst[j][o + q] = lanes[j];
  }
}

template <std::size_t NA>
__attribute__((target("avx2"))) void dense_panel_avx2(
    const double* w, const Tensor& bias, std::size_t in_features,
    std::size_t out_features, const double* panel, const std::uint32_t* cols,
    std::size_t kept, std::size_t bn, double* const* dst) {
  constexpr std::size_t kOutputs = 8 / NA;
  std::size_t o = 0;
  for (; o + kOutputs <= out_features; o += kOutputs) {
    dense_panel_outputs_avx2<NA, kOutputs>(w, bias, in_features, o, panel, cols, kept, bn,
                                           dst);
  }
  for (; o < out_features; ++o) {
    dense_panel_outputs_avx2<NA, 1>(w, bias, in_features, o, panel, cols, kept, bn, dst);
  }
}

#endif  // LINGXI_DENSE_X86

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
    case DenseIsa::kScalar: return "scalar";
    case DenseIsa::kSse2: return "sse2";
    case DenseIsa::kAvx2: return "avx2";
  }
  return "unknown";
}

bool dense_isa_supported(DenseIsa isa) noexcept {
  switch (isa) {
    case DenseIsa::kScalar:
      return true;
    case DenseIsa::kSse2:
#ifdef LINGXI_DENSE_SIMD
      return true;
#else
      return false;
#endif
    case DenseIsa::kAvx2:
#ifdef LINGXI_DENSE_X86
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
  constexpr std::size_t kBlock = 8;
  [[maybe_unused]] const DenseIsa isa = dense_isa();
#ifdef LINGXI_DENSE_SIMD
  // Panel and kept-column index for the vector kernels, reused across blocks
  // (and calls) so a lockstep Monte Carlo run allocates them once per thread.
  static thread_local std::vector<double> panel;
  static thread_local std::vector<std::uint32_t> cols;
  panel.resize(kBlock * in_);
  cols.resize(in_);
#endif
  std::size_t b0 = 0;
  while (b0 < in.rows) {
    // No block of a multi-row call holds a single row: 9 rows left split
    // 5 + 4, so every block can ride a vector panel.
    const std::size_t left = in.rows - b0;
    const std::size_t bn = left == kBlock + 1 ? 5 : std::min(kBlock, left);
    const double* rows[kBlock];
    double* dst[kBlock];
    for (std::size_t j = 0; j < bn; ++j) {
      rows[j] = in.row(b0 + j);
      dst[j] = out.row(b0 + j);
    }
    b0 += bn;
#ifdef LINGXI_DENSE_X86
    // The wide kernel takes any block of >= 2 rows (zero-padded lanes), and
    // a single row too unless the layer is as narrow as the 2-output head:
    // one live lane still skips the zero columns and carries eight outputs'
    // chains at once, where dense_block<1> runs one chain over every input.
    // On the 64x2 head the pack costs more than it saves, so dense_block<1>
    // keeps it.
    if (isa >= DenseIsa::kAvx2 && (bn >= 2 || out_ > 2)) {
      const std::size_t width = bn <= 4 ? 4 : 8;
      const std::size_t kept = pack_panel(rows, bn, width, in_, panel.data(), cols.data());
      if (width == 4) {
        dense_panel_avx2<1>(w_.data(), b_, in_, out_, panel.data(), cols.data(), kept, bn, dst);
      } else {
        dense_panel_avx2<2>(w_.data(), b_, in_, out_, panel.data(), cols.data(), kept, bn, dst);
      }
      continue;
    }
#endif
    switch (bn) {
      case 1: dense_block<1>(w_.data(), b_, in_, out_, rows, dst); break;
      case 2: dense_block<2>(w_.data(), b_, in_, out_, rows, dst); break;
      case 3: dense_block<3>(w_.data(), b_, in_, out_, rows, dst); break;
      case 4: dense_block<4>(w_.data(), b_, in_, out_, rows, dst); break;
      case 5: dense_block<5>(w_.data(), b_, in_, out_, rows, dst); break;
      case 6: dense_block<6>(w_.data(), b_, in_, out_, rows, dst); break;
      case 7: dense_block<7>(w_.data(), b_, in_, out_, rows, dst); break;
      default:
#ifdef LINGXI_DENSE_SIMD
        if (isa >= DenseIsa::kSse2) {
          const std::size_t kept = pack_panel(rows, kBlock, 8, in_, panel.data(), cols.data());
          dense_block8_simd(w_.data(), b_, in_, out_, panel.data(), cols.data(), kept, dst);
          break;
        }
#endif
        dense_block<8>(w_.data(), b_, in_, out_, rows, dst);
        break;
    }
  }
}

Tensor Dense::backward(const Tensor& grad_output) {
  LINGXI_ASSERT(grad_output.rank() == 1 && grad_output.dim(0) == out_);
  LINGXI_ASSERT(last_input_.size() == in_);
  Tensor grad_in({in_});
  for (std::size_t o = 0; o < out_; ++o) {
    const double go = grad_output[o];
    gb_[o] += go;
    double* gwrow = gw_.data() + o * in_;
    const double* wrow = w_.data() + o * in_;
    for (std::size_t i = 0; i < in_; ++i) {
      gwrow[i] += go * last_input_[i];
      grad_in[i] += go * wrow[i];
    }
  }
  return grad_in;
}

}  // namespace lingxi::nn
