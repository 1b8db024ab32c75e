#include "nn/conv1d.h"

#include <algorithm>
#include <vector>

#include "nn/dense.h"

namespace lingxi::nn {

Conv1D::Conv1D(std::size_t in_channels, std::size_t out_channels, std::size_t kernel, Rng& rng)
    : in_ch_(in_channels),
      out_ch_(out_channels),
      kernel_(kernel),
      w_({out_channels, in_channels, kernel}),
      b_({out_channels}),
      gw_({out_channels, in_channels, kernel}),
      gb_({out_channels}) {
  LINGXI_ASSERT(kernel_ > 0);
  he_init(w_, in_channels * kernel, rng);
}

Tensor Conv1D::forward(const Tensor& input) {
  LINGXI_ASSERT(input.rank() == 2 && input.dim(0) == in_ch_);
  const std::size_t len = input.dim(1);
  LINGXI_ASSERT(len >= kernel_);
  last_input_ = input;
  const std::size_t out_len = len - kernel_ + 1;
  Tensor out({out_ch_, out_len});
  for (std::size_t oc = 0; oc < out_ch_; ++oc) {
    for (std::size_t t = 0; t < out_len; ++t) {
      double acc = b_[oc];
      for (std::size_t ic = 0; ic < in_ch_; ++ic) {
        for (std::size_t k = 0; k < kernel_; ++k) {
          acc += w_.at(oc, ic, k) * input.at(ic, t + k);
        }
      }
      out.at(oc, t) = acc;
    }
  }
  return out;
}

namespace {

// Output channels per accumulator group of the batched kernel: 8 doubles are
// four 2-lane (SSE2) or two 4-lane (AVX2) vectors.
constexpr std::size_t kLanes = 8;

// Weights in the batched kernel's order, [1 + ic*K + k][padded]: row 0 holds
// the biases and row 1 + ic*K + k the tap (ic, k) of every output channel, so
// one output-channel group reads contiguous lanes. Channels past out_ch
// (up to `padded`, a multiple of kLanes) are zero.
struct LaneWeights {
  const double* w;
  std::size_t in_ch, kernel, out_ch, padded;
};

// Batched conv with SIMD lanes ACROSS output channels, never along the
// reduction: each lane computes one output as bias + w(ic=0,k=0)*x + ... in
// forward()'s (ic, k) order, one rounded multiply and one rounded add per
// tap (conv1d.cpp is compiled with -ffp-contract=off, so no FMA can fuse
// them). Every output is therefore bitwise identical to forward(). V is a
// generic vector of 2 or 4 doubles; lanes of padded channels compute zeros
// and are never stored.
template <typename V>
inline __attribute__((always_inline)) void conv_rows(const LaneWeights& lw, ConstBatchView in,
                                                     BatchView out, std::size_t len,
                                                     std::size_t out_len) {
  constexpr std::size_t kWidth = sizeof(V) / sizeof(double);
  constexpr std::size_t kVecs = kLanes / kWidth;
  for (std::size_t b = 0; b < in.rows; ++b) {
    const double* src = in.row(b);
    double* dst = out.row(b);
    for (std::size_t oc0 = 0; oc0 < lw.out_ch; oc0 += kLanes) {
      const std::size_t n = std::min(kLanes, lw.out_ch - oc0);
      for (std::size_t t = 0; t < out_len; ++t) {
        V acc[kVecs];
        for (std::size_t v = 0; v < kVecs; ++v) {
          __builtin_memcpy(&acc[v], lw.w + oc0 + v * kWidth, sizeof(V));
        }
        const double* wk = lw.w + lw.padded + oc0;
        for (std::size_t ic = 0; ic < lw.in_ch; ++ic) {
          const double* xk = src + ic * len + t;
          for (std::size_t k = 0; k < lw.kernel; ++k, wk += lw.padded) {
            const double x = xk[k];
            for (std::size_t v = 0; v < kVecs; ++v) {
              V wv;
              __builtin_memcpy(&wv, wk + v * kWidth, sizeof(V));
              acc[v] += wv * x;
            }
          }
        }
        double lanes[kLanes];
        __builtin_memcpy(lanes, acc, sizeof lanes);
        for (std::size_t l = 0; l < n; ++l) dst[(oc0 + l) * out_len + t] = lanes[l];
      }
    }
  }
}

typedef double v2df __attribute__((vector_size(16)));

#if defined(__GNUC__) && defined(__x86_64__) && !defined(LINGXI_NO_DENSE_SIMD)
#define LINGXI_CONV_AVX2 1
// The same kernel on 4-lane vectors, compiled for AVX2 and dispatched at run
// time under the dense ISA switch. Same operations in the same order, so it
// is bitwise identical to the 2-lane baseline build.
typedef double v4df __attribute__((vector_size(32)));

__attribute__((target("avx2"))) void conv_rows_avx2(const LaneWeights& lw, ConstBatchView in,
                                                    BatchView out, std::size_t len,
                                                    std::size_t out_len) {
  conv_rows<v4df>(lw, in, out, len, out_len);
}
#endif

void conv_rows_baseline(const LaneWeights& lw, ConstBatchView in, BatchView out,
                        std::size_t len, std::size_t out_len) {
  conv_rows<v2df>(lw, in, out, len, out_len);
}

}  // namespace

void Conv1D::forward_batch(ConstBatchView in, BatchView out) const {
  LINGXI_ASSERT(in.rows == out.rows);
  LINGXI_ASSERT(in_ch_ > 0 && in.cols % in_ch_ == 0);
  const std::size_t len = in.cols / in_ch_;
  LINGXI_ASSERT(len >= kernel_);
  const std::size_t out_len = len - kernel_ + 1;
  LINGXI_ASSERT(out.cols == out_ch_ * out_len);
  if (in.rows == 0) return;

  // Reorder the weights once per call. The stall-exit net's branches
  // (1 -> 64 channels, kernel 4) fit the 2.5 KB stack buffer; larger layers
  // spill to the heap.
  const std::size_t padded = (out_ch_ + kLanes - 1) / kLanes * kLanes;
  const std::size_t need = (1 + in_ch_ * kernel_) * padded;
  constexpr std::size_t kStackDoubles = 5 * 64;
  double stack[kStackDoubles] = {};
  std::vector<double> heap;
  double* wt = stack;
  if (need > kStackDoubles) {
    heap.assign(need, 0.0);
    wt = heap.data();
  }
  for (std::size_t oc = 0; oc < out_ch_; ++oc) {
    wt[oc] = b_[oc];
    for (std::size_t tap = 0; tap < in_ch_ * kernel_; ++tap) {
      wt[(1 + tap) * padded + oc] = w_[oc * in_ch_ * kernel_ + tap];
    }
  }
  const LaneWeights lw{wt, in_ch_, kernel_, out_ch_, padded};
#ifdef LINGXI_CONV_AVX2
  if (dense_isa() >= DenseIsa::kAvx2) {
    conv_rows_avx2(lw, in, out, len, out_len);
    return;
  }
#endif
  conv_rows_baseline(lw, in, out, len, out_len);
}

Tensor Conv1D::backward(const Tensor& grad_output) {
  const std::size_t len = last_input_.dim(1);
  const std::size_t out_len = len - kernel_ + 1;
  LINGXI_ASSERT(grad_output.rank() == 2 && grad_output.dim(0) == out_ch_ &&
                grad_output.dim(1) == out_len);
  Tensor grad_in({in_ch_, len});
  for (std::size_t oc = 0; oc < out_ch_; ++oc) {
    for (std::size_t t = 0; t < out_len; ++t) {
      const double go = grad_output.at(oc, t);
      gb_[oc] += go;
      for (std::size_t ic = 0; ic < in_ch_; ++ic) {
        for (std::size_t k = 0; k < kernel_; ++k) {
          gw_.at(oc, ic, k) += go * last_input_.at(ic, t + k);
          grad_in.at(ic, t + k) += go * w_.at(oc, ic, k);
        }
      }
    }
  }
  return grad_in;
}

}  // namespace lingxi::nn
