// Exhaustive scalar-vs-batched bitwise parity for the batched inference
// engine: nn layers (Dense, Conv1D, activations), the stall-exit net, the
// full hybrid predictor, and the engagement-state feature cache the batched
// assembly path relies on. "Bitwise" means EXPECT_EQ on doubles — the
// batched kernels must reorder no accumulation, which is what keeps batched
// fleet checksums identical to the scalar path (Low & Lapsley's lesson:
// "equivalent" reformulations drift unless parity is pinned exactly).
//
// Batch sizes cover 1, 2, 7, 64, and the empty batch. Every batched-kernel
// test runs under each dense ISA the host supports (for_each_isa), so a
// plain test run covers both builds of every kernel. The exactness section
// below adds the sparse inputs the dense kernel skips zero inputs on, output
// widths that hit every tail of its output blocks, and the stall-exit net's
// outputs pinned as hex literals. The hybrid predictor's batched path is
// BatchPredictorExitEvaluator::flush, checked against predict().
#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "nn/activations.h"
#include "nn/conv1d.h"
#include "nn/dense.h"
#include "nn/tensor.h"
#include "predictor/engagement_state.h"
#include "predictor/exit_net.h"
#include "predictor/hybrid.h"
#include "predictor/os_model.h"
#include "flush_predict.h"

namespace lingxi {
namespace {

constexpr std::size_t kBatchSizes[] = {0, 1, 2, 7, 64};

std::vector<double> random_values(std::size_t n, Rng& rng, double lo = -2.0,
                                  double hi = 2.0) {
  std::vector<double> v(n);
  for (double& x : v) x = rng.uniform(lo, hi);
  return v;
}

/// Runs `body(isa)` under every dense ISA this build and CPU support, then
/// restores the dispatch default — so a plain test run covers every kernel.
template <typename Body>
void for_each_isa(Body body) {
  const nn::DenseIsa before = nn::dense_isa();
  for (const nn::DenseIsa isa : {nn::DenseIsa::kBaseline, nn::DenseIsa::kAvx2}) {
    if (!nn::dense_isa_supported(isa)) continue;
    nn::set_dense_isa_for_testing(isa);
    body(isa);
  }
  nn::set_dense_isa_for_testing(before);
}

TEST(DenseBatch, BitwiseParityAcrossBatchSizes) {
  Rng rng(42);
  constexpr std::size_t kIn = 13, kOut = 9;
  nn::Dense layer(kIn, kOut, rng);
  for (const std::size_t batch : kBatchSizes) {
    const std::vector<double> in = random_values(batch * kIn, rng);
    std::vector<double> want;
    want.reserve(batch * kOut);
    for (std::size_t b = 0; b < batch; ++b) {
      const nn::Tensor out = layer.forward(
          nn::Tensor({kIn}, {in.begin() + b * kIn, in.begin() + (b + 1) * kIn}));
      for (std::size_t o = 0; o < kOut; ++o) want.push_back(out[o]);
    }
    for_each_isa([&](nn::DenseIsa isa) {
      std::vector<double> got(batch * kOut, -1.0);
      layer.forward_batch({in.data(), batch, kIn}, {got.data(), batch, kOut});
      for (std::size_t i = 0; i < batch * kOut; ++i) {
        EXPECT_EQ(got[i], want[i])
            << nn::dense_isa_name(isa) << " batch " << batch << " element " << i;
      }
    });
  }
}

TEST(DenseBatch, StridedViewsMatchContiguous) {
  Rng rng(7);
  constexpr std::size_t kIn = 6, kOut = 4, kBatch = 7;
  constexpr std::size_t kInStride = 11, kOutStride = 5;
  nn::Dense layer(kIn, kOut, rng);
  const std::vector<double> in = random_values(kBatch * kInStride, rng);
  for_each_isa([&](nn::DenseIsa isa) {
    std::vector<double> got(kBatch * kOutStride, -1.0);
    layer.forward_batch({in.data(), kBatch, kIn, kInStride},
                        {got.data(), kBatch, kOut, kOutStride});
    for (std::size_t b = 0; b < kBatch; ++b) {
      const nn::Tensor out = layer.forward(nn::Tensor(
          {kIn}, {in.begin() + b * kInStride, in.begin() + b * kInStride + kIn}));
      for (std::size_t o = 0; o < kOut; ++o) {
        EXPECT_EQ(got[b * kOutStride + o], out[o])
            << nn::dense_isa_name(isa) << " row " << b << " col " << o;
      }
    }
  });
}

TEST(DenseBatch, LongRowsBitwiseParity) {
  // Parity must hold bitwise at larger batches and at an in_features large
  // enough to exercise long accumulation chains (the fc1-like shape where
  // the kernel matters); 11 outputs end in a vector tail and a scalar one.
  Rng rng(77);
  constexpr std::size_t kIn = 57, kOut = 11;
  nn::Dense layer(kIn, kOut, rng);
  for (const std::size_t batch : {8, 9, 16, 63, 129}) {
    const std::vector<double> in = random_values(batch * kIn, rng);
    std::vector<double> want;
    for (std::size_t b = 0; b < batch; ++b) {
      const nn::Tensor out = layer.forward(
          nn::Tensor({kIn}, {in.begin() + b * kIn, in.begin() + (b + 1) * kIn}));
      for (std::size_t o = 0; o < kOut; ++o) want.push_back(out[o]);
    }
    for_each_isa([&](nn::DenseIsa isa) {
      std::vector<double> got(batch * kOut, -1.0);
      layer.forward_batch({in.data(), batch, kIn}, {got.data(), batch, kOut});
      for (std::size_t i = 0; i < batch * kOut; ++i) {
        EXPECT_EQ(got[i], want[i]) << nn::dense_isa_name(isa) << " batch " << batch
                                   << " row " << i / kOut << " col " << i % kOut;
      }
    });
  }
}

TEST(DenseBatch, StridedViewsAtWiderRows) {
  // The kernel reads and writes each row through the view's stride; strided
  // input and output must match forward() exactly.
  Rng rng(78);
  constexpr std::size_t kIn = 19, kOut = 6, kBatch = 9;
  constexpr std::size_t kInStride = 23, kOutStride = 10;
  nn::Dense layer(kIn, kOut, rng);
  const std::vector<double> in = random_values(kBatch * kInStride, rng);
  for_each_isa([&](nn::DenseIsa isa) {
    std::vector<double> got(kBatch * kOutStride, -1.0);
    layer.forward_batch({in.data(), kBatch, kIn, kInStride},
                        {got.data(), kBatch, kOut, kOutStride});
    for (std::size_t b = 0; b < kBatch; ++b) {
      const nn::Tensor want = layer.forward(nn::Tensor(
          {kIn}, {in.begin() + b * kInStride, in.begin() + b * kInStride + kIn}));
      for (std::size_t o = 0; o < kOut; ++o) {
        EXPECT_EQ(got[b * kOutStride + o], want[o])
            << nn::dense_isa_name(isa) << " row " << b << " col " << o;
      }
    }
  });
}

TEST(DenseBatch, ForcedIsaBitwiseParity) {
  // Both ISAs must produce byte-identical outputs: lanes run across outputs,
  // never along the reduction, so changing the vector width changes nothing
  // about any output's accumulation order. The output widths hit every tail
  // of both builds' output blocks (32 outputs per block in the baseline
  // build, 64 in the AVX2 one, then whole vectors, then scalars), then the
  // dispatch default is restored.
  const nn::DenseIsa before = nn::dense_isa();
  Rng rng(91);
  constexpr std::size_t kIn = 160;
  for (const std::size_t out : {2, 17, 31, 37, 64, 70}) {
    nn::Dense layer(kIn, out, rng);
    for (const std::size_t batch : {1, 2, 5, 8, 9, 24, 63}) {
      const std::vector<double> in = random_values(batch * kIn, rng);
      ASSERT_EQ(nn::set_dense_isa_for_testing(nn::DenseIsa::kBaseline),
                nn::DenseIsa::kBaseline);
      std::vector<double> want(batch * out, -1.0);
      layer.forward_batch({in.data(), batch, kIn}, {want.data(), batch, out});
      if (!nn::dense_isa_supported(nn::DenseIsa::kAvx2)) continue;
      ASSERT_EQ(nn::set_dense_isa_for_testing(nn::DenseIsa::kAvx2), nn::DenseIsa::kAvx2);
      std::vector<double> got(batch * out, -2.0);
      layer.forward_batch({in.data(), batch, kIn}, {got.data(), batch, out});
      for (std::size_t i = 0; i < batch * out; ++i) {
        ASSERT_EQ(got[i], want[i]) << "avx2 outputs " << out << " batch " << batch
                                   << " element " << i;
      }
    }
  }
  nn::set_dense_isa_for_testing(before);
}

TEST(DenseIsa, ClampsToSupportAndReportsNames) {
  const nn::DenseIsa before = nn::dense_isa();
  EXPECT_STREQ(nn::dense_isa_name(nn::DenseIsa::kBaseline), "baseline");
  EXPECT_STREQ(nn::dense_isa_name(nn::DenseIsa::kAvx2), "avx2");
  EXPECT_TRUE(nn::dense_isa_supported(nn::DenseIsa::kBaseline));
  // Requesting any ISA yields a supported one no wider than the request.
  for (const nn::DenseIsa isa : {nn::DenseIsa::kBaseline, nn::DenseIsa::kAvx2}) {
    const nn::DenseIsa got = nn::set_dense_isa_for_testing(isa);
    EXPECT_TRUE(nn::dense_isa_supported(got));
    EXPECT_LE(static_cast<int>(got), static_cast<int>(isa));
    EXPECT_EQ(nn::dense_isa(), got);
  }
  nn::set_dense_isa_for_testing(before);
}

TEST(ActivationBatch, ReluAndSoftmaxRowsMatchScalar) {
  Rng rng(23);
  constexpr std::size_t kCols = 5;
  for (const std::size_t batch : kBatchSizes) {
    const std::vector<double> in = random_values(batch * kCols, rng, -3.0, 3.0);

    std::vector<double> relu_got = in;
    nn::relu_rows({relu_got.data(), batch, kCols});
    std::vector<double> soft_got = in;
    nn::softmax_rows({soft_got.data(), batch, kCols});

    nn::ReLU relu;
    for (std::size_t b = 0; b < batch; ++b) {
      const nn::Tensor row(
          {kCols}, {in.begin() + b * kCols, in.begin() + (b + 1) * kCols});
      const nn::Tensor relu_want = relu.forward(row);
      const nn::Tensor soft_want = nn::softmax(row);
      for (std::size_t i = 0; i < kCols; ++i) {
        EXPECT_EQ(relu_got[b * kCols + i], relu_want[i]);
        EXPECT_EQ(soft_got[b * kCols + i], soft_want[i]);
      }
    }
  }
}

TEST(StallExitNetBatch, BitwiseParityAcrossBatchSizes) {
  Rng rng(99);
  predictor::StallExitNet net(rng);
  constexpr std::size_t kFeat = predictor::kChannels * predictor::kHistoryLen;
  predictor::StallExitNet::BatchWorkspace ws;  // shared across calls
  for (const std::size_t batch : kBatchSizes) {
    const std::vector<double> feats = random_values(batch * kFeat, rng, 0.0, 1.0);
    std::vector<double> want;
    for (std::size_t b = 0; b < batch; ++b) {
      want.push_back(net.predict(nn::Tensor(
          {predictor::kChannels, predictor::kHistoryLen},
          {feats.begin() + b * kFeat, feats.begin() + (b + 1) * kFeat})));
    }
    for_each_isa([&](nn::DenseIsa isa) {
      std::vector<double> got(batch, -1.0);
      net.predict_batch({feats.data(), batch, kFeat}, got.data(), &ws);
      for (std::size_t b = 0; b < batch; ++b) {
        EXPECT_EQ(got[b], want[b])
            << nn::dense_isa_name(isa) << " batch " << batch << " row " << b;
      }
    });
  }
}

// ------------------------------------------------------------ exactness --
// The dense kernel drops each row's inputs that are exactly zero and runs the
// outputs in blocks, whole vectors and scalar tails. These tests compare bit
// patterns (EXPECT_EQ on doubles would accept -0.0 == +0.0) under every
// supported ISA.

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

enum class ZeroPattern { kWholeColumns, kScattered };

/// rows x cols inputs in [-2, 2] with a `zero_fraction` share of exact
/// zeros: either whole columns (zero in every row, like the inputs the
/// stall-exit net's branch ReLUs zero) or scattered elements. Every other
/// zero is -0.0.
std::vector<double> sparse_inputs(std::size_t rows, std::size_t cols, double zero_fraction,
                                  ZeroPattern pattern, Rng& rng) {
  std::vector<double> v = random_values(rows * cols, rng);
  std::size_t zeros = 0;
  const auto zero = [&](double& x) { x = (zeros++ % 2 == 0) ? 0.0 : -0.0; };
  if (pattern == ZeroPattern::kWholeColumns) {
    for (std::size_t c = 0; c < cols; ++c) {
      if (!rng.bernoulli(zero_fraction)) continue;
      for (std::size_t r = 0; r < rows; ++r) zero(v[r * cols + c]);
    }
  } else {
    for (double& x : v) {
      if (rng.bernoulli(zero_fraction)) zero(x);
    }
  }
  return v;
}

TEST(DenseBatchExactness, SparseInputsMatchForwardBitwise) {
  // The output widths hit every tail of both ISAs' output blocks.
  Rng rng(2027);
  constexpr std::size_t kIn = 96;
  constexpr std::size_t kRows[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 16, 17, 64};
  for (const std::size_t out : {2, 13, 31, 37, 64, 70}) {
    nn::Dense zero_bias(kIn, out, rng);
    nn::Dense random_bias(kIn, out, rng);
    nn::Tensor& bias = *random_bias.parameters()[1];
    for (std::size_t o = 0; o < out; ++o) bias[o] = rng.uniform(-1.0, 1.0);
    for (nn::Dense* layer : {&zero_bias, &random_bias}) {
      for (const ZeroPattern pattern : {ZeroPattern::kWholeColumns, ZeroPattern::kScattered}) {
        for (const double fraction : {0.0, 0.5, 0.9, 1.0}) {
          for (const std::size_t rows : kRows) {
            const std::vector<double> in = sparse_inputs(rows, kIn, fraction, pattern, rng);
            std::vector<double> want;
            for (std::size_t b = 0; b < rows; ++b) {
              const nn::Tensor y = layer->forward(
                  nn::Tensor({kIn}, {in.begin() + b * kIn, in.begin() + (b + 1) * kIn}));
              for (std::size_t o = 0; o < out; ++o) want.push_back(y[o]);
            }
            for_each_isa([&](nn::DenseIsa isa) {
              std::vector<double> got(rows * out, -1.0);
              layer->forward_batch({in.data(), rows, kIn}, {got.data(), rows, out});
              for (std::size_t i = 0; i < rows * out; ++i) {
                ASSERT_EQ(bits(got[i]), bits(want[i]))
                    << nn::dense_isa_name(isa) << " outputs " << out << " rows " << rows
                    << " zero fraction " << fraction << " pattern "
                    << static_cast<int>(pattern) << " element " << i;
              }
            });
          }
        }
      }
    }
  }
}

TEST(DenseBatchExactness, NegativeZeroBiasDiffersOnlyInTheSignOfZero) {
  // The one difference the zero-input skip allows: with a -0.0 bias and an
  // all-zero input row, forward() adds w*(+0) terms and can land on +0.0
  // while a skipped column leaves the -0.0 bias untouched. Both compare
  // equal, and the ReLU after fc1 (and the softmax after fc2) map either
  // sign to the same bits, so every exit probability is unchanged.
  Rng rng(2028);
  constexpr std::size_t kIn = 40, kOut = 9;
  nn::Dense layer(kIn, kOut, rng);
  nn::Tensor& bias = *layer.parameters()[1];
  for (std::size_t o = 0; o < kOut; ++o) bias[o] = -0.0;
  for (const std::size_t rows : {1, 2, 5, 9, 17}) {
    const std::vector<double> in(rows * kIn, 0.0);
    const nn::Tensor want = layer.forward(nn::Tensor({kIn}, std::vector<double>(kIn, 0.0)));
    nn::Tensor want_relu = nn::ReLU().forward(want);
    for_each_isa([&](nn::DenseIsa isa) {
      std::vector<double> got(rows * kOut, -1.0);
      layer.forward_batch({in.data(), rows, kIn}, {got.data(), rows, kOut});
      for (std::size_t i = 0; i < rows * kOut; ++i) EXPECT_EQ(got[i], 0.0);
      nn::relu_rows({got.data(), rows, kOut});
      for (std::size_t i = 0; i < rows * kOut; ++i) {
        ASSERT_EQ(bits(got[i]), bits(want_relu[i % kOut]))
            << nn::dense_isa_name(isa) << " rows " << rows << " element " << i;
      }
    });
  }
}

TEST(Conv1DBatch, BitwiseParityAcrossBatchSizes) {
  // The exit net's branch shape (1 -> 64 channels, kernel 4, length 8) with
  // zero-padded histories, a multi-channel shape, and one whose weights
  // exceed the batched kernel's stack buffer, under every supported ISA.
  struct Shape {
    std::size_t in_ch, out_ch, kernel, len;
  };
  Rng rng(17);
  for (const Shape s : {Shape{1, 64, 4, 8}, Shape{2, 5, 3, 10}, Shape{3, 40, 3, 7}}) {
    nn::Conv1D layer(s.in_ch, s.out_ch, s.kernel, rng);
    nn::Tensor& bias = *layer.parameters()[1];
    for (std::size_t o = 0; o < s.out_ch; ++o) bias[o] = rng.uniform(-0.5, 0.5);
    const std::size_t in_cols = s.in_ch * s.len;
    const std::size_t out_cols = s.out_ch * (s.len - s.kernel + 1);
    for (const std::size_t rows : kBatchSizes) {
      std::vector<double> in = random_values(rows * in_cols, rng);
      for (std::size_t r = 0; r < rows; ++r) {  // left zero padding
        for (std::size_t i = 0; i < r % s.len; ++i) in[r * in_cols + i] = 0.0;
      }
      std::vector<double> want;
      for (std::size_t b = 0; b < rows; ++b) {
        const nn::Tensor out = layer.forward(nn::Tensor(
            {s.in_ch, s.len}, {in.begin() + b * in_cols, in.begin() + (b + 1) * in_cols}));
        for (std::size_t i = 0; i < out_cols; ++i) want.push_back(out[i]);
      }
      for_each_isa([&](nn::DenseIsa isa) {
        std::vector<double> got(rows * out_cols, -1.0);
        layer.forward_batch({in.data(), rows, in_cols}, {got.data(), rows, out_cols});
        for (std::size_t i = 0; i < rows * out_cols; ++i) {
          ASSERT_EQ(bits(got[i]), bits(want[i]))
              << nn::dense_isa_name(isa) << " in_ch " << s.in_ch << " rows " << rows
              << " element " << i;
        }
      });
    }
  }
}

/// 16 fixed 5x8 feature rows shaped like EngagementState::write_features:
/// channels 0-1 hold a right-aligned short-term history of r % 9 segments
/// (zero-padded on the left), channels 2-4 long-term rows, all-zero in
/// every fourth row.
std::vector<double> exit_net_feature_rows() {
  constexpr std::size_t kRows = 16, kLen = predictor::kHistoryLen;
  std::vector<double> f(kRows * predictor::kChannels * kLen, 0.0);
  for (std::size_t r = 0; r < kRows; ++r) {
    double* row = f.data() + r * predictor::kChannels * kLen;
    const std::size_t history = r % 9;
    for (std::size_t c = 0; c < 2; ++c) {
      for (std::size_t i = kLen - history; i < kLen; ++i) {
        row[c * kLen + i] = static_cast<double>((r * 37 + c * 11 + i * 5) % 17) / 16.0;
      }
    }
    if (r % 4 == 3) continue;
    for (std::size_t c = 2; c < predictor::kChannels; ++c) {
      for (std::size_t i = 0; i < kLen; ++i) {
        row[c * kLen + i] = static_cast<double>((r * 13 + c * 7 + i * 3) % 23) / 8.0;
      }
    }
  }
  return f;
}

// P(exit) of StallExitNet(Rng(4242)) on exit_net_feature_rows(), as IEEE-754
// bit patterns captured from predict() and predict_batch() before the
// sparse-aware panel kernels and the vectorized conv branches landed.
constexpr std::uint64_t kExitNetGolden[16] = {
    0x3fee490fda50b8f9, 0x3feadff4060692d2, 0x3fee2ed7fcbbbe72, 0x3fd38711c2e6afc5,
    0x3fe7ea1b50faeacc, 0x3fed90b88e530e3f, 0x3fd0a9aa4260b64c, 0x3fcdaf8a2a3d12f7,
    0x3feaed38a40385c1, 0x3feee258160630f5, 0x3fec9c35a746da5c, 0x3fd73341f7a9101c,
    0x3fec06f3d62ab3ee, 0x3fe47bb57b82431d, 0x3fee9e895860ccdc, 0x3fd670ff62fed718,
};

TEST(StallExitNetBatch, PinnedOutputsAcrossBatchSizesAndIsas) {
  Rng rng(4242);
  predictor::StallExitNet net(rng);
  constexpr std::size_t kFeat = predictor::kChannels * predictor::kHistoryLen;
  const std::vector<double> feats = exit_net_feature_rows();
  for (std::size_t r = 0; r < 16; ++r) {
    const double p = net.predict(nn::Tensor({predictor::kChannels, predictor::kHistoryLen},
                                            {feats.begin() + r * kFeat,
                                             feats.begin() + (r + 1) * kFeat}));
    EXPECT_EQ(bits(p), kExitNetGolden[r]) << "predict() row " << r;
  }
  predictor::StallExitNet::BatchWorkspace ws;
  for_each_isa([&](nn::DenseIsa isa) {
    for (const std::size_t batch : {1, 3, 9, 16}) {
      std::vector<double> got(batch, -1.0);
      net.predict_batch({feats.data(), batch, kFeat}, got.data(), &ws);
      for (std::size_t r = 0; r < batch; ++r) {
        EXPECT_EQ(bits(got[r]), kExitNetGolden[r])
            << nn::dense_isa_name(isa) << " batch " << batch << " row " << r;
      }
    }
  });
}

sim::SegmentRecord make_segment(std::size_t index, double bitrate, double throughput,
                                double stall) {
  sim::SegmentRecord seg;
  seg.index = index;
  seg.level = index % 4;
  seg.bitrate = bitrate;
  seg.throughput = throughput;
  seg.stall_time = stall;
  return seg;
}

/// A deterministic engagement history with stalls and stall exits mixed in.
predictor::EngagementState make_state(std::uint64_t seed, std::size_t segments) {
  Rng rng(seed);
  predictor::EngagementState state;
  state.begin_session();
  for (std::size_t i = 0; i < segments; ++i) {
    const double stall = rng.bernoulli(0.3) ? rng.uniform(0.1, 4.0) : 0.0;
    state.on_segment(
        make_segment(i, rng.uniform(300.0, 4000.0), rng.uniform(500.0, 8000.0), stall),
        1.0);
    if (stall > 0.0 && rng.bernoulli(0.25)) state.on_stall_exit();
  }
  return state;
}

TEST(EngagementFeatures, WriteFeaturesMatchesTensorAndCacheStaysFresh) {
  // One state queried after every segment (long-term row cache constantly
  // reused/invalidated) must match a twin fed the same history but queried
  // only once at each step from scratch.
  Rng rng(5);
  predictor::EngagementState cached;
  cached.begin_session();
  predictor::EngagementState shadow;
  shadow.begin_session();
  for (std::size_t i = 0; i < 40; ++i) {
    const double stall = rng.bernoulli(0.4) ? rng.uniform(0.06, 3.0) : 0.0;
    const auto seg =
        make_segment(i, rng.uniform(300.0, 4000.0), rng.uniform(500.0, 8000.0), stall);
    cached.on_segment(seg, 1.0);
    shadow.on_segment(seg, 1.0);
    if (stall > 0.0 && rng.bernoulli(0.3)) {
      cached.on_stall_exit();
      shadow.on_stall_exit();
    }

    const nn::Tensor from_cached = cached.features();  // exercises the cache
    const nn::Tensor from_shadow = shadow.features();
    double raw[predictor::kChannels * predictor::kHistoryLen];
    cached.write_features(raw);
    ASSERT_EQ(from_cached.size(), from_shadow.size());
    for (std::size_t k = 0; k < from_cached.size(); ++k) {
      EXPECT_EQ(from_cached[k], from_shadow[k]) << "segment " << i << " feature " << k;
      EXPECT_EQ(raw[k], from_shadow[k]) << "segment " << i << " feature " << k;
    }
  }
}

TEST(HybridPredictorBatch, BitwiseParityAcrossBatchSizes) {
  Rng rng(123);
  auto net = std::make_shared<predictor::StallExitNet>(rng);
  auto os = std::make_shared<predictor::OverallStatsModel>();
  // Seed the OS model so its buckets are non-trivial.
  for (std::size_t i = 0; i < 500; ++i) {
    os->observe(i % 4, static_cast<predictor::SwitchType>(i % 3), rng.bernoulli(0.05));
  }
  const predictor::HybridExitPredictor predictor(net, os);

  // A pool of distinct states; queries mix stalled and non-stalled segments.
  std::vector<predictor::EngagementState> states;
  for (std::uint64_t s = 0; s < 9; ++s) states.push_back(make_state(1000 + s, 30));

  predictor::ExitFlushScratch scratch;  // reused across flushes
  for (const std::size_t batch : kBatchSizes) {
    std::vector<predictor::HybridExitPredictor::ExitQuery> queries;
    for (std::size_t i = 0; i < batch; ++i) {
      predictor::HybridExitPredictor::ExitQuery q;
      q.state = &states[i % states.size()];
      q.level = i % 4;
      q.stall_time = i % 3 == 0 ? 0.0 : 0.1 + 0.2 * static_cast<double>(i % 5);
      q.sw = static_cast<predictor::SwitchType>(i % 3);
      queries.push_back(q);
    }
    const std::vector<double> got = testing_util::flush_predict(predictor, queries, scratch);
    for (std::size_t i = 0; i < batch; ++i) {
      EXPECT_EQ(got[i], predictor.predict(queries[i]))
          << "batch " << batch << " query " << i;
    }
  }
}

}  // namespace
}  // namespace lingxi
