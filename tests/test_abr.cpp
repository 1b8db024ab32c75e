// Unit tests for lingxi_abr: QoE parameter space, throughput estimators and
// all six ABR algorithms (including behavioural/property checks).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "abr/bba.h"
#include "abr/bola.h"
#include "abr/estimator.h"
#include "abr/hyb.h"
#include "abr/pensieve.h"
#include "abr/qoe.h"
#include "abr/rate_based.h"
#include "abr/robust_mpc.h"
#include "common/crc32.h"
#include "common/rng.h"
#include "sim/session.h"
#include "trace/bandwidth.h"

namespace lingxi::abr {
namespace {

sim::AbrObservation make_obs(const trace::Video& video, Seconds buffer,
                             std::vector<Kbps> tput, std::size_t next = 1,
                             std::size_t last_level = 0) {
  sim::AbrObservation obs;
  obs.video = &video;
  obs.buffer = buffer;
  obs.buffer_max = 8.0;
  obs.next_segment = next;
  obs.first_segment = (next == 0);
  obs.last_level = last_level;
  obs.throughput_history = std::move(tput);
  obs.download_time_history.assign(obs.throughput_history.size(), 0.5);
  return obs;
}

// -- ParamSpace -----------------------------------------------------------

TEST(ParamSpace, DimensionsFollowFlags) {
  ParamSpace s;
  s.optimize_stall = true;
  s.optimize_switch = true;
  s.optimize_beta = false;
  EXPECT_EQ(s.dimensions(), 2u);
  s.optimize_beta = true;
  EXPECT_EQ(s.dimensions(), 3u);
}

TEST(ParamSpace, UnitRoundTrip) {
  ParamSpace s;
  s.optimize_stall = s.optimize_switch = s.optimize_beta = true;
  QoeParams p;
  p.stall_penalty = 10.0;
  p.switch_penalty = 2.0;
  p.hyb_beta = 0.7;
  const auto u = s.to_unit(p);
  const QoeParams q = s.from_unit(u, QoeParams{});
  EXPECT_NEAR(q.stall_penalty, 10.0, 1e-9);
  EXPECT_NEAR(q.switch_penalty, 2.0, 1e-9);
  EXPECT_NEAR(q.hyb_beta, 0.7, 1e-9);
}

TEST(ParamSpace, FromUnitKeepsUnsearchedFromBase) {
  ParamSpace s;
  s.optimize_stall = false;
  s.optimize_switch = false;
  s.optimize_beta = true;
  QoeParams base;
  base.stall_penalty = 13.0;
  const QoeParams q = s.from_unit({0.5}, base);
  EXPECT_DOUBLE_EQ(q.stall_penalty, 13.0);
  EXPECT_NEAR(q.hyb_beta, (s.beta_min + s.beta_max) / 2.0, 1e-9);
}

TEST(ParamSpace, ClampBoundsAllCoordinates) {
  ParamSpace s;
  QoeParams p;
  p.stall_penalty = 100.0;
  p.switch_penalty = -1.0;
  p.hyb_beta = 2.0;
  const QoeParams c = s.clamp(p);
  EXPECT_DOUBLE_EQ(c.stall_penalty, s.stall_max);
  EXPECT_DOUBLE_EQ(c.switch_penalty, s.switch_min);
  EXPECT_DOUBLE_EQ(c.hyb_beta, s.beta_max);
}

TEST(ParamSpace, SampleUnitInCube) {
  ParamSpace s;
  s.optimize_stall = s.optimize_switch = s.optimize_beta = true;
  Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    const auto u = s.sample_unit(rng);
    ASSERT_EQ(u.size(), 3u);
    for (double x : u) {
      EXPECT_GE(x, 0.0);
      EXPECT_LE(x, 1.0);
    }
  }
}

// -- estimators -----------------------------------------------------------

TEST(Estimator, HarmonicMeanKnown) {
  std::vector<Kbps> xs{1000.0, 2000.0};
  EXPECT_NEAR(harmonic_mean(xs), 4000.0 / 3.0, 1e-9);
  EXPECT_DOUBLE_EQ(harmonic_mean(std::vector<Kbps>{}), 0.0);
}

TEST(Estimator, HarmonicLessThanArithmetic) {
  std::vector<Kbps> xs{500.0, 1500.0, 4000.0};
  EXPECT_LT(harmonic_mean(xs), 2000.0);
}

TEST(Estimator, RobustEstimateNeverExceedsHarmonic) {
  std::vector<Kbps> xs{1000.0, 3000.0, 500.0, 2000.0};
  EXPECT_LE(robust_estimate(xs), harmonic_mean(xs));
  // Constant series: zero error -> estimates equal.
  std::vector<Kbps> c{1000.0, 1000.0, 1000.0};
  EXPECT_NEAR(robust_estimate(c), harmonic_mean(c), 1e-9);
}

TEST(Estimator, MaxRelativeErrorZeroForConstant) {
  std::vector<Kbps> c{800.0, 800.0, 800.0};
  EXPECT_DOUBLE_EQ(max_relative_error(c), 0.0);
  std::vector<Kbps> v{800.0, 400.0};
  EXPECT_NEAR(max_relative_error(v), 1.0, 1e-9);  // predicted 800, saw 400
}

TEST(Estimator, EwmaWeightsRecent) {
  std::vector<Kbps> xs{1000.0, 1000.0, 5000.0};
  const Kbps e = ewma(xs, 0.5);
  EXPECT_GT(e, 1000.0);
  EXPECT_LT(e, 5000.0);
  EXPECT_NEAR(e, 3000.0, 1e-9);  // ((1000)*0.5+1000*0.5)=1000 -> 0.5*5000+0.5*1000
}

// -- HYB -------------------------------------------------------------------

TEST(Hyb, ConservativeStart) {
  const trace::Video video(trace::BitrateLadder::default_ladder(), 10, 1.0);
  Hyb hyb;
  auto obs = make_obs(video, 0.0, {}, 0);
  EXPECT_EQ(hyb.select(obs), 0u);
}

TEST(Hyb, PicksHigherWithMoreBuffer) {
  const trace::Video video(trace::BitrateLadder::default_ladder(), 10, 1.0);
  Hyb hyb;
  auto low = make_obs(video, 0.5, {3000.0, 3000.0});
  auto high = make_obs(video, 8.0, {3000.0, 3000.0});
  EXPECT_LE(hyb.select(low), hyb.select(high));
  EXPECT_GT(hyb.select(high), 0u);
}

TEST(Hyb, BetaMonotone) {
  const trace::Video video(trace::BitrateLadder::default_ladder(), 10, 1.0);
  auto obs = make_obs(video, 2.0, {2500.0, 2500.0});
  std::size_t prev = 0;
  for (double beta : {0.2, 0.5, 0.9}) {
    Hyb hyb;
    QoeParams p;
    p.hyb_beta = beta;
    hyb.set_params(p);
    const std::size_t level = hyb.select(obs);
    EXPECT_GE(level, prev);
    prev = level;
  }
}

TEST(Hyb, ExactBudgetBoundary) {
  // With beta*B = 1.0s budget and 1000 kbps estimate, a 750 kbps segment
  // (0.75s download) fits, an 1850 kbps one (1.85s) does not.
  const trace::Video video(trace::BitrateLadder::default_ladder(), 10, 1.0);
  Hyb hyb;
  QoeParams p;
  p.hyb_beta = 0.5;
  hyb.set_params(p);
  auto obs = make_obs(video, 2.0, {1000.0, 1000.0});
  EXPECT_EQ(hyb.select(obs), 1u);
}

// -- BBA -------------------------------------------------------------------

TEST(Bba, ReservoirForcesLowest) {
  const trace::Video video(trace::BitrateLadder::default_ladder(), 10, 1.0);
  Bba bba;
  auto obs = make_obs(video, 1.0, {9000.0});
  EXPECT_EQ(bba.select(obs), 0u);
}

TEST(Bba, CushionTopForcesHighest) {
  const trace::Video video(trace::BitrateLadder::default_ladder(), 10, 1.0);
  Bba bba;
  auto obs = make_obs(video, 7.9, {100.0});
  EXPECT_EQ(bba.select(obs), 3u);
}

TEST(Bba, MonotoneInBuffer) {
  const trace::Video video(trace::BitrateLadder::default_ladder(), 10, 1.0);
  Bba bba;
  std::size_t prev = 0;
  for (double buf = 0.0; buf <= 8.0; buf += 0.5) {
    auto obs = make_obs(video, buf, {1000.0});
    const std::size_t level = bba.select(obs);
    EXPECT_GE(level, prev);
    prev = level;
  }
  EXPECT_EQ(prev, 3u);
}

// -- BOLA ------------------------------------------------------------------

TEST(Bola, ReturnsValidLevel) {
  const trace::Video video(trace::BitrateLadder::default_ladder(), 10, 1.0);
  Bola bola;
  for (double buf : {0.0, 2.0, 4.0, 8.0}) {
    auto obs = make_obs(video, buf, {2000.0});
    EXPECT_LT(bola.select(obs), 4u);
  }
}

TEST(Bola, LowBufferPicksLow) {
  const trace::Video video(trace::BitrateLadder::default_ladder(), 10, 1.0);
  Bola bola;
  auto obs = make_obs(video, 0.0, {2000.0});
  EXPECT_EQ(bola.select(obs), 0u);
}

TEST(Bola, MonotoneNonDecreasingInBuffer) {
  const trace::Video video(trace::BitrateLadder::default_ladder(), 10, 1.0);
  Bola bola;
  std::size_t prev = 0;
  for (double buf = 0.0; buf <= 8.0; buf += 0.25) {
    auto obs = make_obs(video, buf, {2000.0});
    const std::size_t level = bola.select(obs);
    EXPECT_GE(level, prev) << "buffer " << buf;
    prev = level;
  }
}

// -- RateBased ---------------------------------------------------------------

TEST(RateBased, TracksEstimate) {
  const trace::Video video(trace::BitrateLadder::default_ladder(), 10, 1.0);
  RateBased rb;
  auto low = make_obs(video, 4.0, {500.0, 500.0});
  auto mid = make_obs(video, 4.0, {2500.0, 2500.0});
  auto high = make_obs(video, 4.0, {9000.0, 9000.0});
  EXPECT_EQ(rb.select(low), 0u);
  EXPECT_EQ(rb.select(mid), 2u);  // 0.85*2500 = 2125 -> highest below is HD (1850)
  EXPECT_EQ(rb.select(high), 3u);
}

TEST(RateBased, EmptyHistoryConservative) {
  const trace::Video video(trace::BitrateLadder::default_ladder(), 10, 1.0);
  RateBased rb;
  auto obs = make_obs(video, 4.0, {}, 0);
  EXPECT_EQ(rb.select(obs), 0u);
}

// -- RobustMPC ---------------------------------------------------------------

TEST(RobustMpc, HighBandwidthHighBufferPicksTop) {
  const trace::Video video(trace::BitrateLadder::default_ladder(), 20, 1.0);
  RobustMpc mpc;
  auto obs = make_obs(video, 8.0, {20000.0, 20000.0, 20000.0}, 5, 3);
  EXPECT_EQ(mpc.select(obs), 3u);
}

TEST(RobustMpc, LowBandwidthPicksBottom) {
  const trace::Video video(trace::BitrateLadder::default_ladder(), 20, 1.0);
  RobustMpc mpc;
  auto obs = make_obs(video, 0.5, {400.0, 400.0, 400.0}, 5, 0);
  EXPECT_EQ(mpc.select(obs), 0u);
}

TEST(RobustMpc, HigherStallPenaltyNeverLessConservative) {
  const trace::Video video(trace::BitrateLadder::default_ladder(), 20, 1.0);
  auto obs = make_obs(video, 1.5, {2000.0, 1800.0, 2200.0}, 5, 2);
  std::size_t prev = 4;
  for (double mu : {1.0, 5.0, 20.0}) {
    RobustMpc mpc;
    QoeParams p;
    p.stall_penalty = mu;
    mpc.set_params(p);
    const std::size_t level = mpc.select(obs);
    EXPECT_LE(level, prev) << "mu " << mu;
    prev = level;
  }
}

TEST(RobustMpc, SwitchPenaltyStabilizes) {
  const trace::Video video(trace::BitrateLadder::default_ladder(), 20, 1.0);
  // Previous level 0 with decent bandwidth: a huge switch penalty should
  // hold the selection closer to the previous level.
  auto obs = make_obs(video, 6.0, {4000.0, 4000.0, 4000.0}, 5, 0);
  RobustMpc free_mpc;
  QoeParams free_p;
  free_p.switch_penalty = 0.0;
  free_mpc.set_params(free_p);
  RobustMpc sticky_mpc;
  QoeParams sticky_p;
  sticky_p.switch_penalty = 50.0;
  sticky_mpc.set_params(sticky_p);
  EXPECT_LE(sticky_mpc.select(obs), free_mpc.select(obs));
  EXPECT_EQ(sticky_mpc.select(obs), 0u);
}

TEST(RobustMpc, RobustVariantMoreConservativeUnderNoise) {
  const trace::Video video(trace::BitrateLadder::default_ladder(), 20, 1.0);
  auto obs = make_obs(video, 3.0, {4000.0, 1000.0, 4000.0, 1000.0}, 5, 1);
  RobustMpc::Config plain_cfg;
  plain_cfg.robust = false;
  RobustMpc plain(plain_cfg);
  RobustMpc robust;
  EXPECT_LE(robust.select(obs), plain.select(obs));
}

TEST(RobustMpc, CloneCarriesParams) {
  RobustMpc mpc;
  QoeParams p;
  p.stall_penalty = 7.5;
  mpc.set_params(p);
  auto copy = mpc.clone();
  EXPECT_DOUBLE_EQ(copy->params().stall_penalty, 7.5);
}

// -- Pensieve ---------------------------------------------------------------

TEST(Pensieve, FeatureVectorShape) {
  Rng rng(2);
  Pensieve policy(4, rng);
  const trace::Video video(trace::BitrateLadder::default_ladder(), 10, 1.0);
  auto obs = make_obs(video, 4.0, {1000.0, 2000.0});
  const nn::Tensor f = policy.build_features(obs);
  EXPECT_EQ(f.size(), policy.feature_count());
  // 3 scalars + 2*8 history + 4 sizes + 1 remaining + 3 params = 27.
  EXPECT_EQ(policy.feature_count(), 27u);
}

TEST(Pensieve, SelectIsDeterministic) {
  Rng rng(3);
  Pensieve policy(4, rng);
  const trace::Video video(trace::BitrateLadder::default_ladder(), 10, 1.0);
  auto obs = make_obs(video, 4.0, {1500.0, 1500.0});
  EXPECT_EQ(policy.select(obs), policy.select(obs));
}

TEST(Pensieve, ParamsChangeFeatures) {
  Rng rng(4);
  Pensieve policy(4, rng);
  const trace::Video video(trace::BitrateLadder::default_ladder(), 10, 1.0);
  auto obs = make_obs(video, 4.0, {1500.0, 1500.0});
  const nn::Tensor f1 = policy.build_features(obs);
  QoeParams p;
  p.stall_penalty = 19.0;
  policy.set_params(p);
  const nn::Tensor f2 = policy.build_features(obs);
  bool differs = false;
  for (std::size_t i = 0; i < f1.size(); ++i) {
    if (f1[i] != f2[i]) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(Pensieve, CloneIsIndependentDeepCopy) {
  Rng rng(5);
  Pensieve policy(4, rng);
  auto copy = policy.clone();
  const trace::Video video(trace::BitrateLadder::default_ladder(), 10, 1.0);
  auto obs = make_obs(video, 4.0, {1500.0, 1500.0});
  EXPECT_EQ(policy.select(obs), copy->select(obs));
  QoeParams p;
  p.stall_penalty = 19.0;
  copy->set_params(p);
  EXPECT_DOUBLE_EQ(policy.params().stall_penalty, QoeParams{}.stall_penalty);
}

TEST(Pensieve, SampleActionWithinLadder) {
  Rng rng(6);
  Pensieve policy(4, rng);
  const trace::Video video(trace::BitrateLadder::default_ladder(), 10, 1.0);
  auto obs = make_obs(video, 4.0, {1500.0, 1500.0});
  for (int i = 0; i < 50; ++i) EXPECT_LT(policy.sample_action(obs, rng), 4u);
}

TEST(Pensieve, TrainingRunsAndReportsFiniteReturns) {
  Rng rng(7);
  Pensieve policy(4, rng);
  trace::VideoGenerator::Config vcfg;
  vcfg.mean_duration = 20.0;
  const trace::VideoGenerator videos(vcfg);
  const trace::PopulationModel population;
  PensieveTrainConfig cfg;
  cfg.episodes = 30;
  cfg.max_segments = 20;
  const auto report = train_pensieve(policy, videos, population, cfg, rng);
  EXPECT_TRUE(std::isfinite(report.initial_mean_return));
  EXPECT_TRUE(std::isfinite(report.final_mean_return));
}

TEST(Pensieve, TrainingIsPinnedBitwise) {
  // TrainingRunsAndReportsFiniteReturns' configuration, with the trained
  // weights and both reported returns pinned bit for bit: Pensieve trains
  // through nn::Dense::backward and nn::Adam, the kernels the stall-exit
  // net's batched training shares.
  Rng rng(7);
  Pensieve policy(4, rng);
  trace::VideoGenerator::Config vcfg;
  vcfg.mean_duration = 20.0;
  const trace::VideoGenerator videos(vcfg);
  const trace::PopulationModel population;
  PensieveTrainConfig cfg;
  cfg.episodes = 30;
  cfg.max_segments = 20;
  const auto report = train_pensieve(policy, videos, population, cfg, rng);
  std::uint32_t crc = 0;
  for (const nn::Tensor* p : policy.param_set().params) {
    crc = crc32_update(crc, p->data(), p->size() * sizeof(double));
  }
  EXPECT_EQ(crc, 0x287cf404u);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(report.initial_mean_return), 0xc04972151003d4cfu);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(report.final_mean_return), 0x4014ffe938a8e40cu);
}

}  // namespace
}  // namespace lingxi::abr
