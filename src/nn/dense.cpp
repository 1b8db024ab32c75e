#include "nn/dense.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
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
// Explicitly vectorized full block: SIMD lanes run ACROSS batch rows, never
// along the reduction, so each lane performs exactly the scalar kernel's
// accumulation sequence for its row — same adds, same order, bitwise parity
// with forward() by construction (reduction-order vectorization would
// reassociate and drift). The 8 rows are first packed into an interleaved
// [in_features][8] panel so every step loads four contiguous 2-lane vectors
// instead of gathering from 8 strided row pointers; the pack is a pure copy
// (no rounding) amortized over all out_features weight rows. The vector is
// the baseline 16-byte width — wider generic vectors get split into slow
// stack-spilling sequences on pre-AVX codegen (measured ~5x slower), while
// the native width runs ~1.6x faster than the unrolled scalar block. The
// fp-contraction decision is made under the same flags as the scalar path,
// keeping lane and scalar math identical.
typedef double v2df __attribute__((vector_size(16)));

void dense_block8_simd(const double* w, const Tensor& bias, std::size_t in_features,
                       std::size_t out_features, const double* panel,
                       double* const* dst) {
  for (std::size_t o = 0; o < out_features; ++o) {
    const double* wrow = w + o * in_features;
    const double b = bias[o];
    v2df acc0 = {b, b};
    v2df acc1 = {b, b};
    v2df acc2 = {b, b};
    v2df acc3 = {b, b};
    for (std::size_t i = 0; i < in_features; ++i) {
      const double wi = wrow[i];
      const v2df wv = {wi, wi};
      const double* p = panel + 8 * i;
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
// scalar accumulation sequence. Two hazards are handled explicitly:
//  * fp contraction — this file is compiled with -ffp-contract=off, so the
//    mul-then-add below can never fuse into an FMA (a fused step skips the
//    intermediate rounding the scalar path takes and would break bitwise
//    parity);
//  * partial blocks — the panel is padded with zero lanes up to 8 rows, the
//    padded lanes compute bias + 0*w garbage-free, and only the first `bn`
//    lanes are stored. That lets blocks of 2..7 rows ride the wide kernel,
//    which the scalar path serviced one unrolled chain per row.
__attribute__((target("avx2"))) void dense_panel_avx2(
    const double* w, const Tensor& bias, std::size_t in_features,
    std::size_t out_features, const double* panel, std::size_t bn,
    double* const* dst) {
  for (std::size_t o = 0; o < out_features; ++o) {
    const double* wrow = w + o * in_features;
    const __m256d init = _mm256_set1_pd(bias[o]);
    __m256d acc0 = init;
    __m256d acc1 = init;
    for (std::size_t i = 0; i < in_features; ++i) {
      const __m256d wv = _mm256_set1_pd(wrow[i]);
      const double* p = panel + 8 * i;
      acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(wv, _mm256_loadu_pd(p)));
      acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(wv, _mm256_loadu_pd(p + 4)));
    }
    double lanes[8];
    _mm256_storeu_pd(lanes, acc0);
    _mm256_storeu_pd(lanes + 4, acc1);
    for (std::size_t j = 0; j < bn; ++j) dst[j][o] = lanes[j];
  }
}

#endif  // LINGXI_DENSE_X86

// Active ISA: -1 = undecided (read LINGXI_DENSE_ISA on first use).
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
    DenseIsa want = DenseIsa::kAvx2;
    if (const char* e = std::getenv("LINGXI_DENSE_ISA"); e != nullptr && *e != '\0') {
      if (std::strcmp(e, "scalar") == 0) want = DenseIsa::kScalar;
      else if (std::strcmp(e, "sse2") == 0) want = DenseIsa::kSse2;
      else if (std::strcmp(e, "avx2") == 0) want = DenseIsa::kAvx2;
      // Unrecognized values fall through to the widest supported ISA.
    }
    v = static_cast<int>(clamp_to_supported(want));
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
  // Interleaved row panel for the vector kernels, reused across blocks (and
  // calls) so a lockstep Monte Carlo run allocates it once per thread.
  static thread_local std::vector<double> panel;
  panel.resize(kBlock * in_);
#endif
  std::size_t b0 = 0;
  while (b0 < in.rows) {
    const std::size_t bn = std::min(kBlock, in.rows - b0);
    const double* rows[kBlock];
    double* dst[kBlock];
    for (std::size_t j = 0; j < bn; ++j) {
      rows[j] = in.row(b0 + j);
      dst[j] = out.row(b0 + j);
    }
#ifdef LINGXI_DENSE_X86
    // The wide kernel takes any block of >= 2 rows (zero-padded lanes);
    // single rows stay on the scalar chain, where the pack cost cannot be
    // amortized on small weight matrices like the 64x2 head.
    if (isa >= DenseIsa::kAvx2 && bn >= 2) {
      for (std::size_t i = 0; i < in_; ++i) {
        double* p = panel.data() + 8 * i;
        std::size_t j = 0;
        for (; j < bn; ++j) p[j] = rows[j][i];
        for (; j < kBlock; ++j) p[j] = 0.0;
      }
      dense_panel_avx2(w_.data(), b_, in_, out_, panel.data(), bn, dst);
      b0 += bn;
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
          for (std::size_t i = 0; i < in_; ++i) {
            for (std::size_t j = 0; j < kBlock; ++j) panel[8 * i + j] = rows[j][i];
          }
          dense_block8_simd(w_.data(), b_, in_, out_, panel.data(), dst);
          break;
        }
#endif
        dense_block<8>(w_.data(), b_, in_, out_, rows, dst);
        break;
    }
    b0 += bn;
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
