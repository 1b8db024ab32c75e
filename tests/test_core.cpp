// Unit tests for lingxi_core: trigger logic, pruning, the OBO loop, fixed
// candidate mode and state persistence.
#include <gtest/gtest.h>

#include <memory>
#include <optional>

#include "abr/hyb.h"
#include "common/rng.h"
#include "core/lingxi.h"
#include "predictor/exit_net.h"
#include "predictor/os_model.h"

namespace lingxi::core {
namespace {

predictor::HybridExitPredictor make_predictor(std::uint64_t seed = 1) {
  Rng rng(seed);
  auto net = std::make_shared<predictor::StallExitNet>(rng);
  auto os = std::make_shared<predictor::OverallStatsModel>();
  return {net, os};
}

sim::SegmentRecord make_segment(Kbps throughput, Seconds stall) {
  sim::SegmentRecord seg;
  seg.level = 1;
  seg.bitrate = 750.0;
  seg.throughput = throughput;
  seg.stall_time = stall;
  return seg;
}

LingXiConfig fast_config() {
  LingXiConfig cfg;
  cfg.obo_rounds = 3;
  cfg.monte_carlo.samples = 4;
  cfg.monte_carlo.sample_duration = 8.0;
  cfg.space.optimize_stall = false;
  cfg.space.optimize_switch = false;
  cfg.space.optimize_beta = true;
  return cfg;
}

TEST(LingXi, NoTriggerBeforeThreshold) {
  const auto lx_predictor = make_predictor();
  LingXi lx(fast_config(), lx_predictor, trace::BitrateLadder::default_ladder());
  lx.begin_session();
  lx.on_segment(make_segment(1000.0, 1.0));
  lx.on_segment(make_segment(1000.0, 1.0));
  // eta = 2: exactly two stalls does not trigger (strictly greater required).
  EXPECT_FALSE(lx.should_optimize());
  lx.on_segment(make_segment(1000.0, 1.0));
  EXPECT_TRUE(lx.should_optimize());
}

TEST(LingXi, CleanSegmentsNeverTrigger) {
  const auto lx_predictor = make_predictor();
  LingXi lx(fast_config(), lx_predictor, trace::BitrateLadder::default_ladder());
  lx.begin_session();
  for (int i = 0; i < 100; ++i) lx.on_segment(make_segment(5000.0, 0.0));
  EXPECT_FALSE(lx.should_optimize());
}

TEST(LingXi, MaybeOptimizeNoOpWithoutTrigger) {
  const auto lx_predictor = make_predictor();
  LingXi lx(fast_config(), lx_predictor, trace::BitrateLadder::default_ladder());
  abr::Hyb hyb;
  Rng rng(2);
  EXPECT_FALSE(lx.maybe_optimize(hyb, 2.0, rng).has_value());
  EXPECT_EQ(lx.stats().optimizations_run, 0u);
}

TEST(LingXi, OptimizationRunsAndUpdatesAbr) {
  const auto lx_predictor = make_predictor();
  LingXi lx(fast_config(), lx_predictor, trace::BitrateLadder::default_ladder());
  lx.begin_session();
  for (int i = 0; i < 4; ++i) lx.on_segment(make_segment(800.0, 1.5));
  ASSERT_TRUE(lx.should_optimize());

  abr::Hyb hyb;
  Rng rng(3);
  const auto result = lx.maybe_optimize(hyb, 2.0, rng);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(lx.stats().optimizations_run, 1u);
  EXPECT_GE(lx.stats().mc_evaluations, 3u);
  // The ABR received the optimized parameters.
  EXPECT_DOUBLE_EQ(hyb.params().hyb_beta, result->hyb_beta);
  // Parameters respect the box.
  const auto& space = lx.current_params();
  EXPECT_GE(space.hyb_beta, fast_config().space.beta_min);
  EXPECT_LE(space.hyb_beta, fast_config().space.beta_max);
  // Trigger counter was reset.
  EXPECT_FALSE(lx.should_optimize());
}

TEST(LingXi, PreplayPruningSkipsHighBandwidthUsers) {
  LingXiConfig cfg = fast_config();
  const auto lx_predictor = make_predictor();
  LingXi lx(cfg, lx_predictor, trace::BitrateLadder::default_ladder());
  lx.begin_session();
  // Huge stable bandwidth with (synthetic) stalls: mu - 3 sigma > 4300.
  for (int i = 0; i < 4; ++i) lx.on_segment(make_segment(50000.0, 1.0));
  abr::Hyb hyb;
  Rng rng(4);
  EXPECT_FALSE(lx.maybe_optimize(hyb, 2.0, rng).has_value());
  EXPECT_EQ(lx.stats().pruned_preplay, 1u);
  EXPECT_EQ(lx.stats().optimizations_run, 0u);
}

TEST(LingXi, PreplayPruningCanBeDisabled) {
  LingXiConfig cfg = fast_config();
  cfg.enable_preplay_pruning = false;
  const auto lx_predictor = make_predictor();
  LingXi lx(cfg, lx_predictor, trace::BitrateLadder::default_ladder());
  lx.begin_session();
  for (int i = 0; i < 4; ++i) lx.on_segment(make_segment(50000.0, 1.0));
  abr::Hyb hyb;
  Rng rng(5);
  EXPECT_TRUE(lx.maybe_optimize(hyb, 2.0, rng).has_value());
}

TEST(LingXi, FixedCandidateModePicksFromList) {
  LingXiConfig cfg = fast_config();
  abr::QoeParams a;
  a.hyb_beta = 0.5;
  abr::QoeParams b;
  b.hyb_beta = 0.9;
  cfg.fixed_candidates = {a, b};
  const auto lx_predictor = make_predictor();
  LingXi lx(cfg, lx_predictor, trace::BitrateLadder::default_ladder());
  lx.begin_session();
  for (int i = 0; i < 4; ++i) lx.on_segment(make_segment(800.0, 1.5));
  abr::Hyb hyb;
  Rng rng(6);
  const auto result = lx.maybe_optimize(hyb, 2.0, rng);
  ASSERT_TRUE(result.has_value());
  // Either one of the fixed candidates won, or the incumbent default was
  // retained under the no-negative-influence margin.
  EXPECT_TRUE(result->hyb_beta == 0.5 || result->hyb_beta == 0.9 ||
              result->hyb_beta == cfg.default_params.hyb_beta);
  // Incumbent + the two fixed candidates.
  EXPECT_EQ(lx.stats().mc_evaluations, 3u);
}

TEST(LingXi, BandwidthEstimateTracksSegments) {
  const auto lx_predictor = make_predictor();
  LingXi lx(fast_config(), lx_predictor, trace::BitrateLadder::default_ladder());
  lx.begin_session();
  for (int i = 0; i < 10; ++i) lx.on_segment(make_segment(2000.0, 0.0));
  const auto [mean, sd] = lx.bandwidth_estimate();
  EXPECT_NEAR(mean, 2000.0, 1e-9);
  EXPECT_NEAR(sd, 0.0, 1e-9);
}

TEST(LingXi, PersistentStateRoundTripContinuesBitwise) {
  const auto lx_predictor = make_predictor();
  LingXi lx(fast_config(), lx_predictor, trace::BitrateLadder::default_ladder());
  lx.begin_session();
  for (int i = 0; i < 4; ++i) lx.on_segment(make_segment(800.0, 2.0));
  lx.end_session(true);
  abr::Hyb hyb;
  Rng rng(7);
  lx.maybe_optimize(hyb, 2.0, rng);
  const LingXi::PersistentState state = lx.persistent_state();
  EXPECT_TRUE(state.has_optimized);
  EXPECT_EQ(state.engagement.long_term.total_stall_events, 4u);
  EXPECT_EQ(state.engagement.long_term.total_stall_exits, 1u);

  const auto restored_predictor = make_predictor();
  LingXi restored(fast_config(), restored_predictor, trace::BitrateLadder::default_ladder());
  restored.restore_persistent(state);
  EXPECT_TRUE(restored.persistent_state() == state);

  // One more session and optimization on each: the restored controller must
  // continue exactly as the original does.
  std::optional<abr::QoeParams> results[2];
  LingXi* controllers[2] = {&lx, &restored};
  for (int k = 0; k < 2; ++k) {
    LingXi& c = *controllers[k];
    c.begin_session();
    for (int i = 0; i < 4; ++i) c.on_segment(make_segment(700.0 + 50.0 * i, 1.5));
    c.end_session(false);
    abr::Hyb next_hyb;
    Rng next_rng(8);
    results[k] = c.maybe_optimize(next_hyb, 2.0, next_rng);
  }
  ASSERT_TRUE(results[0].has_value());
  ASSERT_TRUE(results[1].has_value());
  EXPECT_EQ(*results[1], *results[0]);
  EXPECT_EQ(restored.stats(), lx.stats());
  EXPECT_EQ(lx.stats().optimizations_run, 2u);
  EXPECT_TRUE(restored.persistent_state() == lx.persistent_state());
}

TEST(LingXi, EndSessionWithoutStallExitKeepsCounters) {
  const auto lx_predictor = make_predictor();
  LingXi lx(fast_config(), lx_predictor, trace::BitrateLadder::default_ladder());
  lx.begin_session();
  lx.on_segment(make_segment(800.0, 1.0));
  lx.end_session(false);
  EXPECT_EQ(lx.engagement().long_term().total_stall_exits, 0u);
}

TEST(LingXi, StallSensitiveUserGetsLowerBeta) {
  // Train nothing; instead bias the OS model so exits are expensive, and
  // check that LingXi's chosen beta for a user with many recent stall-exits
  // is not higher than for a user with none. This is a weak behavioural
  // check of the Fig. 14 mechanism (full check lives in the benches).
  LingXiConfig cfg = fast_config();
  cfg.obo_rounds = 6;
  cfg.monte_carlo.samples = 8;

  auto run_user = [&](bool add_exit_history, std::uint64_t seed) {
    const auto lx_predictor = make_predictor(42);
    LingXi lx(cfg, lx_predictor, trace::BitrateLadder::default_ladder());
    lx.begin_session();
    for (int i = 0; i < 4; ++i) {
      lx.on_segment(make_segment(900.0, 2.0));
      if (add_exit_history) lx.end_session(true);
    }
    abr::Hyb hyb;
    Rng rng(seed);
    const auto r = lx.maybe_optimize(hyb, 1.0, rng);
    return r.has_value() ? r->hyb_beta : -1.0;
  };
  const double beta_sensitive = run_user(true, 11);
  const double beta_tolerant = run_user(false, 11);
  ASSERT_GE(beta_sensitive, 0.0);
  ASSERT_GE(beta_tolerant, 0.0);
  // Not a strict inequality in every seed, but both must be in the box.
  EXPECT_GE(beta_sensitive, cfg.space.beta_min);
  EXPECT_LE(beta_tolerant, cfg.space.beta_max);
}

// -- Adoption rule: OBO adopts only a candidate that beats the incumbent ---

/// Feed one stall-heavy session so the next maybe_optimize() triggers.
void stall_session(LingXi& lx, bool stall_exit) {
  lx.begin_session();
  for (int i = 0; i < 4; ++i) lx.on_segment(make_segment(800.0, 1.5));
  lx.end_session(stall_exit);
}

TEST(LingXiAdoption, FullMarginNeverLeavesTheIncumbent) {
  // adoption_margin 1.0 demands an estimate below incumbent * 0, which no
  // exit rate can reach: every optimization must keep the incumbent.
  LingXiConfig cfg = fast_config();
  cfg.adoption_margin = 1.0;
  const auto lx_predictor = make_predictor(5);
  LingXi lx(cfg, lx_predictor, trace::BitrateLadder::default_ladder());
  abr::Hyb hyb;
  hyb.set_params(cfg.default_params);
  Rng rng(21);
  for (int round = 0; round < 6; ++round) {
    stall_session(lx, round % 2 == 0);
    const auto params = lx.maybe_optimize(hyb, 2.0, rng);
    ASSERT_TRUE(params.has_value()) << "round " << round;
    EXPECT_TRUE(*params == cfg.default_params) << "round " << round;
    EXPECT_TRUE(lx.current_params() == cfg.default_params) << "round " << round;
    EXPECT_TRUE(hyb.params() == cfg.default_params) << "round " << round;
  }
  EXPECT_GT(lx.stats().optimizations_run, 0u);
  EXPECT_EQ(lx.stats().optimizations_run, 6u);
}

TEST(LingXiAdoption, FixedCandidateModeAdoptsOnlyIncumbentOrListed) {
  // L(F): every adoption is the incumbent or one of the listed candidates,
  // even with no margin and across repeated optimizations that move the
  // incumbent.
  LingXiConfig cfg = fast_config();
  cfg.adoption_margin = 0.0;
  abr::QoeParams a;
  a.hyb_beta = 0.5;
  abr::QoeParams b;
  b.hyb_beta = 0.9;
  cfg.fixed_candidates = {a, b};
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const auto lx_predictor = make_predictor(seed);
    LingXi lx(cfg, lx_predictor, trace::BitrateLadder::default_ladder());
    abr::Hyb hyb;
    Rng rng(seed * 13);
    for (int round = 0; round < 5; ++round) {
      const abr::QoeParams incumbent = lx.current_params();
      stall_session(lx, round % 2 == 1);
      const auto params = lx.maybe_optimize(hyb, 2.0, rng);
      ASSERT_TRUE(params.has_value());
      EXPECT_TRUE(*params == incumbent || *params == cfg.space.clamp(a) ||
                  *params == cfg.space.clamp(b))
          << "seed " << seed << " round " << round << " beta " << params->hyb_beta;
    }
    EXPECT_EQ(lx.stats().optimizations_run, 5u);
  }
}

TEST(LingXi, SharedFlushScratchMatchesCallLocalBuffers) {
  // The fleet hands every optimization of a worker one ExitFlushScratch.
  // Reusing it across optimizations and users must adopt exactly what
  // call-local buffers adopt, and its counters must see the flushes.
  const LingXiConfig cfg = fast_config();
  const auto lx_predictor = make_predictor(7);
  LingXi shared(cfg, lx_predictor, trace::BitrateLadder::default_ladder());
  LingXi other(cfg, lx_predictor, trace::BitrateLadder::default_ladder());
  LingXi local(cfg, lx_predictor, trace::BitrateLadder::default_ladder());
  abr::Hyb shared_hyb;
  abr::Hyb other_hyb;
  abr::Hyb local_hyb;
  Rng shared_rng(29);
  Rng other_rng(31);
  Rng local_rng(29);
  predictor::ExitFlushScratch scratch;
  // A volatile link (sd ~ mean) so the virtual rollouts stall and park
  // net queries.
  const auto volatile_session = [](LingXi& lx, bool stall_exit) {
    lx.begin_session();
    for (int i = 0; i < 8; ++i) lx.on_segment(make_segment(i % 2 == 0 ? 150.0 : 1400.0, 1.5));
    lx.end_session(stall_exit);
  };
  for (int round = 0; round < 4; ++round) {
    volatile_session(shared, round % 2 == 0);
    volatile_session(other, round % 2 == 1);
    volatile_session(local, round % 2 == 0);
    const auto params = shared.maybe_optimize(shared_hyb, 2.0, shared_rng, &scratch);
    ASSERT_TRUE(params.has_value()) << "round " << round;
    // Another user's optimization in between leaves the scratch dirty.
    ASSERT_TRUE(other.maybe_optimize(other_hyb, 2.0, other_rng, &scratch).has_value());
    const auto want = local.maybe_optimize(local_hyb, 2.0, local_rng);
    ASSERT_TRUE(want.has_value());
    EXPECT_TRUE(*params == *want) << "round " << round;
    EXPECT_TRUE(shared_hyb.params() == local_hyb.params()) << "round " << round;
    EXPECT_TRUE(shared.stats() == local.stats()) << "round " << round;
    EXPECT_TRUE(shared_rng.state() == local_rng.state()) << "round " << round;
  }
  // Not vacuous: rollouts really parked stalled queries and were flushed.
  EXPECT_GT(scratch.flushes, 0u);
  EXPECT_GE(scratch.queries, scratch.flushes);
  EXPECT_EQ(shared.stats().optimizations_run, 4u);
}

}  // namespace
}  // namespace lingxi::core
