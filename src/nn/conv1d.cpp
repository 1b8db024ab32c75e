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
// four 2-lane (baseline) or two 4-lane (AVX2) vectors.
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

#if defined(__x86_64__)
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
  backward_batch({last_input_.data(), 1, last_input_.size()},
                 {grad_output.data(), 1, grad_output.size()},
                 {grad_in.data(), 1, grad_in.size()});
  return grad_in;
}

void Conv1D::backward_batch(ConstBatchView in, ConstBatchView grad_out, BatchView grad_in) {
  LINGXI_ASSERT(in.rows == grad_out.rows);
  LINGXI_ASSERT(in_ch_ > 0 && in.cols % in_ch_ == 0);
  const std::size_t len = in.cols / in_ch_;
  LINGXI_ASSERT(len >= kernel_);
  const std::size_t out_len = len - kernel_ + 1;
  LINGXI_ASSERT(grad_out.cols == out_ch_ * out_len);
  const bool want_grad_in = grad_in.data != nullptr;
  LINGXI_ASSERT(!want_grad_in || (grad_in.rows == in.rows && grad_in.cols == in.cols));
  if (in.rows == 0) return;

  // Gradient accumulators transposed to [1 + tap][out_ch] (row 0 the
  // biases, row 1 + ic*K + k the tap (ic, k)), and each row's output
  // gradient to [t][out_ch], so the innermost loops run across output
  // channels: element-wise and vectorizable, never along a sum. Every
  // gradient element still adds its terms row by row and, inside a row, in
  // t order, as one-row calls do.
  const std::size_t taps = in_ch_ * kernel_;
  std::vector<double> acc((1 + taps) * out_ch_);
  std::vector<double> go_t(out_len * out_ch_);
  for (std::size_t oc = 0; oc < out_ch_; ++oc) {
    acc[oc] = gb_[oc];
    for (std::size_t tap = 0; tap < taps; ++tap) {
      acc[(1 + tap) * out_ch_ + oc] = gw_[oc * taps + tap];
    }
  }
  for (std::size_t s = 0; s < in.rows; ++s) {
    const double* x = in.row(s);
    const double* go = grad_out.row(s);
    for (std::size_t t = 0; t < out_len; ++t) {
      for (std::size_t oc = 0; oc < out_ch_; ++oc) go_t[t * out_ch_ + oc] = go[oc * out_len + t];
    }
    for (std::size_t t = 0; t < out_len; ++t) {
      const double* got = go_t.data() + t * out_ch_;
      for (std::size_t oc = 0; oc < out_ch_; ++oc) acc[oc] += got[oc];
      for (std::size_t ic = 0; ic < in_ch_; ++ic) {
        for (std::size_t k = 0; k < kernel_; ++k) {
          const double xv = x[ic * len + t + k];
          double* a = acc.data() + (1 + ic * kernel_ + k) * out_ch_;
          for (std::size_t oc = 0; oc < out_ch_; ++oc) a[oc] += got[oc] * xv;
        }
      }
    }
  }
  for (std::size_t oc = 0; oc < out_ch_; ++oc) {
    gb_[oc] = acc[oc];
    for (std::size_t tap = 0; tap < taps; ++tap) {
      gw_[oc * taps + tap] = acc[(1 + tap) * out_ch_ + oc];
    }
  }
  if (!want_grad_in) return;

  // grad_in(ic, j) sums go(oc, t) w(oc, ic, k) over t + k = j in (oc, t)
  // order, from +0.
  for (std::size_t s = 0; s < in.rows; ++s) {
    const double* go = grad_out.row(s);
    double* gi = grad_in.row(s);
    std::fill(gi, gi + in.cols, 0.0);
    for (std::size_t oc = 0; oc < out_ch_; ++oc) {
      for (std::size_t t = 0; t < out_len; ++t) {
        const double gv = go[oc * out_len + t];
        for (std::size_t ic = 0; ic < in_ch_; ++ic) {
          for (std::size_t k = 0; k < kernel_; ++k) {
            gi[ic * len + t + k] += gv * w_[(oc * in_ch_ + ic) * kernel_ + k];
          }
        }
      }
    }
  }
}

}  // namespace lingxi::nn
