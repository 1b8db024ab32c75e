// Unit tests for lingxi_nn: tensors, layers (with numeric gradient checks),
// losses, optimizers and serialization.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "common/bytes.h"
#include "common/rng.h"
#include "nn/activations.h"
#include "nn/conv1d.h"
#include "nn/dense.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/serialize.h"
#include "nn/tensor.h"

namespace lingxi::nn {
namespace {

TEST(Tensor, ShapeAndSize) {
  Tensor t({2, 3});
  EXPECT_EQ(t.rank(), 2u);
  EXPECT_EQ(t.size(), 6u);
  EXPECT_EQ(t.dim(0), 2u);
  EXPECT_EQ(t.dim(1), 3u);
  for (std::size_t i = 0; i < t.size(); ++i) EXPECT_DOUBLE_EQ(t[i], 0.0);
}

TEST(Tensor, IndexingRowMajor) {
  Tensor t({2, 3});
  t.at(1, 2) = 7.0;
  EXPECT_DOUBLE_EQ(t[5], 7.0);
  Tensor u({2, 2, 2});
  u.at(1, 0, 1) = 3.0;
  EXPECT_DOUBLE_EQ(u[5], 3.0);
}

TEST(Tensor, FillAddScale) {
  Tensor a({3});
  a.fill(2.0);
  Tensor b = Tensor::vector({1.0, 2.0, 3.0});
  a.add(b);
  EXPECT_DOUBLE_EQ(a[0], 3.0);
  EXPECT_DOUBLE_EQ(a[2], 5.0);
  a.scale(0.5);
  EXPECT_DOUBLE_EQ(a[0], 1.5);
}

TEST(Tensor, Reshape) {
  Tensor t = Tensor::vector({1.0, 2.0, 3.0, 4.0, 5.0, 6.0});
  Tensor r = t.reshaped({2, 3});
  EXPECT_DOUBLE_EQ(r.at(1, 0), 4.0);
}

TEST(Tensor, Concat) {
  Tensor a = Tensor::vector({1.0, 2.0});
  Tensor b = Tensor::vector({3.0});
  Tensor c = concat({a, b});
  EXPECT_EQ(c.size(), 3u);
  EXPECT_DOUBLE_EQ(c[2], 3.0);
}

TEST(Dense, ForwardKnownWeights) {
  Rng rng(1);
  Dense d(2, 2, rng);
  // Overwrite weights deterministically: W = [[1,2],[3,4]], b = [0.5, -0.5].
  auto params = d.parameters();
  (*params[0])[0] = 1.0;
  (*params[0])[1] = 2.0;
  (*params[0])[2] = 3.0;
  (*params[0])[3] = 4.0;
  (*params[1])[0] = 0.5;
  (*params[1])[1] = -0.5;
  const Tensor y = d.forward(Tensor::vector({1.0, 1.0}));
  EXPECT_DOUBLE_EQ(y[0], 3.5);
  EXPECT_DOUBLE_EQ(y[1], 6.5);
}

/// Central-difference gradient check of a scalar loss through a layer.
void check_layer_gradients(Layer& layer, const Tensor& input) {
  // Scalar loss L = sum(output^2) / 2; dL/dout = out.
  Tensor out = layer.forward(input);
  Tensor grad_out = out;
  layer.zero_grad();
  const Tensor grad_in = layer.backward(grad_out);

  auto loss_at = [&](const Tensor& x) {
    Tensor o = layer.forward(x);
    double l = 0.0;
    for (std::size_t i = 0; i < o.size(); ++i) l += 0.5 * o[i] * o[i];
    return l;
  };

  // Check input gradient at a few coordinates.
  const double eps = 1e-6;
  for (std::size_t i = 0; i < std::min<std::size_t>(input.size(), 6); ++i) {
    Tensor plus = input, minus = input;
    plus[i] += eps;
    minus[i] -= eps;
    const double numeric = (loss_at(plus) - loss_at(minus)) / (2 * eps);
    EXPECT_NEAR(grad_in[i], numeric, 1e-4) << "input grad " << i;
  }

  // Check a few parameter gradients (backward above already accumulated;
  // re-run forward/backward after each perturbation).
  auto grads = layer.gradients();
  auto params = layer.parameters();
  for (std::size_t p = 0; p < params.size(); ++p) {
    for (std::size_t i = 0; i < std::min<std::size_t>(params[p]->size(), 4); ++i) {
      const double saved = (*params[p])[i];
      (*params[p])[i] = saved + eps;
      const double lp = loss_at(input);
      (*params[p])[i] = saved - eps;
      const double lm = loss_at(input);
      (*params[p])[i] = saved;
      const double numeric = (lp - lm) / (2 * eps);
      EXPECT_NEAR((*grads[p])[i], numeric, 1e-4) << "param " << p << " grad " << i;
    }
  }
}

TEST(Dense, GradientCheck) {
  Rng rng(2);
  Dense d(4, 3, rng);
  check_layer_gradients(d, Tensor::vector({0.5, -1.0, 2.0, 0.1}));
}

TEST(Conv1D, ForwardKnownWeights) {
  Rng rng(3);
  Conv1D c(1, 1, 2, rng);
  auto params = c.parameters();
  (*params[0])[0] = 1.0;  // w[0,0,0]
  (*params[0])[1] = -1.0;
  (*params[1])[0] = 0.5;  // bias
  Tensor in({1, 4}, {1.0, 2.0, 3.0, 5.0});
  const Tensor out = c.forward(in);
  ASSERT_EQ(out.dim(0), 1u);
  ASSERT_EQ(out.dim(1), 3u);
  // y_t = x_t - x_{t+1} + 0.5
  EXPECT_DOUBLE_EQ(out.at(0, 0), -0.5);
  EXPECT_DOUBLE_EQ(out.at(0, 1), -0.5);
  EXPECT_DOUBLE_EQ(out.at(0, 2), -1.5);
}

TEST(Conv1D, OutputShape) {
  Rng rng(4);
  Conv1D c(3, 8, 4, rng);
  Tensor in({3, 8});
  const Tensor out = c.forward(in);
  EXPECT_EQ(out.dim(0), 8u);
  EXPECT_EQ(out.dim(1), 5u);
}

TEST(Conv1D, GradientCheck) {
  Rng rng(5);
  Conv1D c(2, 3, 3, rng);
  Tensor in({2, 6});
  Rng data_rng(6);
  for (std::size_t i = 0; i < in.size(); ++i) in[i] = data_rng.normal();
  check_layer_gradients(c, in);
}

TEST(ReLU, ForwardAndBackward) {
  ReLU r;
  const Tensor out = r.forward(Tensor::vector({-1.0, 0.0, 2.0}));
  EXPECT_DOUBLE_EQ(out[0], 0.0);
  EXPECT_DOUBLE_EQ(out[1], 0.0);
  EXPECT_DOUBLE_EQ(out[2], 2.0);
  const Tensor grad = r.backward(Tensor::vector({1.0, 1.0, 1.0}));
  EXPECT_DOUBLE_EQ(grad[0], 0.0);
  EXPECT_DOUBLE_EQ(grad[1], 0.0);  // not differentiable at 0; we use 0
  EXPECT_DOUBLE_EQ(grad[2], 1.0);
}

TEST(Softmax, SumsToOne) {
  const Tensor p = softmax(Tensor::vector({1.0, 2.0, 3.0}));
  double sum = 0.0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    EXPECT_GT(p[i], 0.0);
    sum += p[i];
  }
  EXPECT_NEAR(sum, 1.0, 1e-12);
  EXPECT_GT(p[2], p[1]);
}

TEST(Softmax, NumericallyStableForLargeLogits) {
  const Tensor p = softmax(Tensor::vector({1000.0, 1001.0}));
  EXPECT_NEAR(p[0] + p[1], 1.0, 1e-12);
  EXPECT_FALSE(std::isnan(p[0]));
}

TEST(CrossEntropy, KnownValueAndGradient) {
  Tensor grad;
  const Tensor logits = Tensor::vector({0.0, 0.0});
  const double loss = softmax_cross_entropy(logits, 1, grad);
  EXPECT_NEAR(loss, std::log(2.0), 1e-12);
  EXPECT_NEAR(grad[0], 0.5, 1e-12);
  EXPECT_NEAR(grad[1], -0.5, 1e-12);
}

TEST(CrossEntropy, GradientSumsToZero) {
  Tensor grad;
  softmax_cross_entropy(Tensor::vector({0.3, -1.2, 2.0}), 0, grad);
  EXPECT_NEAR(grad[0] + grad[1] + grad[2], 0.0, 1e-12);
}

TEST(PolicyGradient, ScalesWithAdvantage) {
  const Tensor logits = Tensor::vector({0.0, 0.0});
  const Tensor g1 = policy_gradient(logits, 0, 1.0);
  const Tensor g2 = policy_gradient(logits, 0, -2.0);
  EXPECT_NEAR(g2[0], -2.0 * g1[0], 1e-12);
  EXPECT_NEAR(g2[1], -2.0 * g1[1], 1e-12);
}

TEST(Sgd, ConvergesOnQuadratic) {
  // Minimize (x - 3)^2 via parameter tensor of size 1.
  Tensor x = Tensor::vector({0.0});
  Tensor g = Tensor::vector({0.0});
  Sgd opt({&x}, {&g}, 0.1);
  for (int i = 0; i < 200; ++i) {
    g[0] = 2.0 * (x[0] - 3.0);
    opt.step();
  }
  EXPECT_NEAR(x[0], 3.0, 1e-6);
}

TEST(Adam, ConvergesOnQuadraticBowl) {
  Tensor x = Tensor::vector({5.0, -4.0});
  Tensor g = Tensor::vector({0.0, 0.0});
  Adam::Config cfg;
  cfg.lr = 0.1;
  Adam opt({&x}, {&g}, cfg);
  for (int i = 0; i < 500; ++i) {
    g[0] = 2.0 * (x[0] - 1.0);
    g[1] = 8.0 * (x[1] + 2.0);
    opt.step();
  }
  EXPECT_NEAR(x[0], 1.0, 1e-3);
  EXPECT_NEAR(x[1], -2.0, 1e-3);
}

TEST(ParamSet, CollectsAndZeros) {
  Rng rng(7);
  Dense d1(2, 2, rng), d2(2, 1, rng);
  ParamSet set;
  set.add(d1);
  set.add(d2);
  EXPECT_EQ(set.params.size(), 4u);
  EXPECT_EQ(set.grads.size(), 4u);
  (*set.grads[0])[0] = 42.0;
  set.zero_grad();
  EXPECT_DOUBLE_EQ((*set.grads[0])[0], 0.0);
}

// -- versioned model container ----------------------------------------------

constexpr std::uint32_t kTestKind = 100;

TEST(Serialize, RoundTrip) {
  Tensor a = Tensor::vector({1.5, -2.5, 3.25});
  Tensor b({2, 2}, {1.0, 2.0, 3.0, 4.0});
  const auto bytes = serialize_model(kTestKind, {&a, &b});
  const auto restored = deserialize_model(kTestKind, bytes);
  ASSERT_TRUE(restored.has_value());
  ASSERT_EQ(restored->size(), 2u);
  EXPECT_TRUE((*restored)[0].same_shape(a));
  EXPECT_DOUBLE_EQ((*restored)[0][1], -2.5);
  EXPECT_TRUE((*restored)[1].same_shape(b));
  EXPECT_DOUBLE_EQ((*restored)[1].at(1, 1), 4.0);
}

TEST(Serialize, DetectsCorruption) {
  Tensor a = Tensor::vector({1.0, 2.0});
  auto bytes = serialize_model(kTestKind, {&a});
  bytes[bytes.size() / 2] ^= 0xff;
  const auto r = deserialize_model(kTestKind, bytes);
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error().code, Error::Code::kCorrupt);
}

TEST(Serialize, DetectsTruncation) {
  Tensor a = Tensor::vector({1.0, 2.0, 3.0});
  auto bytes = serialize_model(kTestKind, {&a});
  bytes.resize(bytes.size() - 8);
  EXPECT_FALSE(deserialize_model(kTestKind, bytes).has_value());
}

TEST(Serialize, DetectsBadMagic) {
  Tensor a = Tensor::vector({1.0});
  auto bytes = serialize_model(kTestKind, {&a});
  bytes[0] = 'X';
  EXPECT_FALSE(deserialize_model(kTestKind, bytes).has_value());
}

TEST(Serialize, FileRoundTrip) {
  Tensor a = Tensor::vector({9.0, 8.0});
  const std::string path = ::testing::TempDir() + "/lingxi_nn_weights.bin";
  ASSERT_TRUE(write_file(path, serialize_model(kTestKind, {&a})).ok());
  const auto bytes = read_file(path);
  ASSERT_TRUE(bytes.has_value());
  const auto r = deserialize_model(kTestKind, *bytes);
  ASSERT_TRUE(r.has_value());
  EXPECT_DOUBLE_EQ((*r)[0][0], 9.0);
}

TEST(SerializeModel, RoundTripIsBitwise) {
  Rng rng(11);
  Dense dense(7, 3, rng);
  Conv1D conv(2, 5, 3, rng);
  const std::vector<const Tensor*> src = {&dense.weight(), &dense.bias(), &conv.weight(),
                                          &conv.bias()};
  const auto restored = deserialize_model(kTestKind, serialize_model(kTestKind, src));
  ASSERT_TRUE(restored.has_value());
  ASSERT_EQ(restored->size(), src.size());
  for (std::size_t t = 0; t < src.size(); ++t) {
    ASSERT_TRUE((*restored)[t].same_shape(*src[t]));
    for (std::size_t i = 0; i < src[t]->size(); ++i) {
      EXPECT_EQ((*restored)[t][i], (*src[t])[i]) << "tensor " << t << " element " << i;
    }
  }
}

TEST(SerializeModel, RejectsVersionOneContainer) {
  // A well-formed frame in every respect but its version: only the version
  // check can object, and it must do so with an Expected error.
  std::vector<unsigned char> payload;
  put_u32(payload, kTestKind);
  put_u32(payload, 0);  // no tensors
  std::vector<unsigned char> bytes;
  append_frame(bytes, "LXNC", 1, payload);
  const auto r = deserialize_model(kTestKind, bytes);
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error().code, Error::Code::kCorrupt);
}

TEST(SerializeModel, RejectsKindMismatch) {
  Rng rng(14);
  Dense dense(4, 2, rng);
  // Weights saved under one kind tag must not load as another model's.
  const auto bytes = serialize_model(kTestKind, {&dense.weight(), &dense.bias()});
  const auto r = deserialize_model(kTestKind + 1, bytes);
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error().code, Error::Code::kCorrupt);
}

TEST(SerializeModel, RejectsCrcFlip) {
  Rng rng(16);
  Conv1D layer(1, 3, 2, rng);
  auto bytes = serialize_model(kTestKind, {&layer.weight(), &layer.bias()});
  bytes[bytes.size() / 2] ^= 0x10;
  const auto r = deserialize_model(kTestKind, bytes);
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error().code, Error::Code::kCorrupt);
}

TEST(HeInit, BoundsRespectFanIn) {
  Rng rng(8);
  Tensor w({100, 100});
  he_init(w, 100, rng);
  const double limit = std::sqrt(6.0 / 100.0);
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_GE(w[i], -limit);
    EXPECT_LE(w[i], limit);
  }
}

TEST(TrainingSmoke, LearnsXorWithHiddenLayer) {
  // End-to-end sanity: a 2-4-2 net learns XOR classification.
  Rng rng(9);
  Dense d1(2, 8, rng);
  ReLU r1;
  Dense d2(8, 2, rng);
  ParamSet set;
  set.add(d1);
  set.add(d2);
  Adam::Config cfg;
  cfg.lr = 0.02;
  Adam opt(set.params, set.grads, cfg);

  const std::vector<std::pair<std::vector<double>, std::size_t>> data = {
      {{0.0, 0.0}, 0}, {{0.0, 1.0}, 1}, {{1.0, 0.0}, 1}, {{1.0, 1.0}, 0}};

  for (int epoch = 0; epoch < 800; ++epoch) {
    set.zero_grad();
    for (const auto& [x, label] : data) {
      const Tensor logits = d2.forward(r1.forward(d1.forward(Tensor::vector(x))));
      Tensor grad;
      softmax_cross_entropy(logits, label, grad);
      d1.backward(r1.backward(d2.backward(grad)));
    }
    opt.step();
  }
  int correct = 0;
  for (const auto& [x, label] : data) {
    const Tensor logits = d2.forward(r1.forward(d1.forward(Tensor::vector(x))));
    correct += (logits[1] > logits[0] ? 1u : 0u) == label ? 1 : 0;
  }
  EXPECT_EQ(correct, 4);
}

}  // namespace
}  // namespace lingxi::nn
