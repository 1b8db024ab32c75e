// Integration tests: full pipelines across modules — dataset -> predictor ->
// LingXi -> A/B experiment, plus the persistent-state round trip.
#include <gtest/gtest.h>

#include <memory>

#include "abr/hyb.h"
#include "abr/robust_mpc.h"
#include "analytics/experiment.h"
#include "common/rng.h"
#include "core/lingxi.h"
#include "predictor/dataset.h"
#include "sim/session.h"
#include "trace/population.h"
#include "user/user_population.h"

namespace lingxi {
namespace {

TEST(Integration, TrainedPredictorBeatsUntrainedOnStallData) {
  Rng rng(1);
  predictor::DatasetGenConfig gen;
  gen.users = 40;
  gen.sessions_per_user = 25;
  gen.filter = predictor::DatasetFilter::kStall;
  const auto dataset = predictor::generate_dataset(gen, rng);
  ASSERT_GT(dataset.size(), 50u);
  ASSERT_GT(dataset.positives(), 5u);

  const auto balanced = predictor::balance(dataset, rng);
  const auto split = predictor::stratified_split(balanced, 0.8, rng);

  predictor::StallExitNet net(rng);
  const auto before = predictor::evaluate(net, split.test);
  predictor::TrainConfig tcfg;
  tcfg.epochs = 10;
  predictor::train_exit_net(net, split.train, tcfg, rng);
  const auto after = predictor::evaluate(net, split.test);
  // Training must improve over random init on balanced data.
  EXPECT_GT(after.accuracy, 0.55);
  EXPECT_GE(after.accuracy + 0.05, before.accuracy);
}

TEST(Integration, SessionWithRealAbrAndUserModelProducesCoherentLogs) {
  Rng rng(2);
  const trace::VideoGenerator videos({});
  const trace::Video video = videos.sample(rng);
  trace::GaussMarkovBandwidth bw({.mean = 1500.0, .rho = 0.9, .noise_sd = 300.0});
  abr::RobustMpc mpc;
  user::UserPopulation pop;
  auto user_model = pop.sample(rng);
  const sim::SessionSimulator sim({});
  const auto session = sim.run(video, mpc, bw, user_model.get(), rng);

  ASSERT_FALSE(session.segments.empty());
  EXPECT_LE(session.segments.size(), video.segment_count());
  double cum = 0.0;
  for (const auto& seg : session.segments) {
    cum += seg.stall_time;
    EXPECT_NEAR(seg.cumulative_stall, cum, 1e-9);
    EXPECT_GT(seg.throughput, 0.0);
    EXPECT_LT(seg.level, video.ladder().levels());
  }
  EXPECT_NEAR(session.total_stall, cum, 1e-9);
}

TEST(Integration, LingXiStatePersistsThroughStore) {
  Rng rng(3);
  auto net = std::make_shared<predictor::StallExitNet>(rng);
  auto os = std::make_shared<predictor::OverallStatsModel>();

  core::LingXiConfig cfg;
  cfg.obo_rounds = 2;
  cfg.monte_carlo.samples = 3;
  cfg.space.optimize_stall = false;
  cfg.space.optimize_switch = false;
  cfg.space.optimize_beta = true;

  const predictor::HybridExitPredictor lx_predictor(net, os);

  core::LingXi lx(cfg, lx_predictor,

                  trace::BitrateLadder::default_ladder());
  lx.begin_session();
  for (int i = 0; i < 5; ++i) {
    sim::SegmentRecord seg;
    seg.bitrate = 750.0;
    seg.level = 1;
    seg.throughput = 900.0;
    seg.stall_time = 1.2;
    lx.on_segment(seg);
  }
  lx.end_session(true);
  abr::Hyb hyb;
  Rng opt_rng(4);
  ASSERT_TRUE(lx.maybe_optimize(hyb, 1.5, opt_rng).has_value());

  // Persist at a session boundary, restore into a fresh controller.
  const core::LingXi::PersistentState state = lx.persistent_state();
  const predictor::HybridExitPredictor lx2_predictor(net, os);
  core::LingXi lx2(cfg, lx2_predictor, trace::BitrateLadder::default_ladder());
  lx2.restore_persistent(state);
  EXPECT_DOUBLE_EQ(lx2.current_params().hyb_beta, lx.current_params().hyb_beta);
  EXPECT_EQ(lx2.engagement().long_term().total_stall_events, 5u);
}

TEST(Integration, LingXiReducesStallExitsForSensitiveLowBandwidthUsers) {
  // End-to-end sanity on a small, stall-heavy world: with a predictor whose
  // OS model reflects the population, LingXi-treated sessions should not be
  // worse on stalls than the static default by a large margin.
  analytics::ExperimentConfig cfg;
  cfg.users = 16;
  cfg.days = 4;
  cfg.sessions_per_user_day = 8;
  cfg.intervention_day = 2;
  cfg.video.mean_duration = 20.0;
  // Heavily bandwidth-constrained world: both arms accumulate enough stall
  // seconds that the treatment/control ratio is statistically stable.
  cfg.network.median_bandwidth = 1000.0;
  cfg.network.sigma = 0.3;
  cfg.network.relative_sd = 0.4;
  cfg.lingxi.obo_rounds = 3;
  cfg.lingxi.monte_carlo.samples = 4;
  cfg.lingxi.monte_carlo.sample_duration = 10.0;

  // Population-fitted OS model.
  auto os = std::make_shared<predictor::OverallStatsModel>();
  {
    Rng rng(5);
    predictor::DatasetGenConfig gen;
    gen.users = 10;
    gen.sessions_per_user = 10;
    gen.filter = predictor::DatasetFilter::kAll;
    // Reuse the dataset generator's world to fit OS frequencies.
    const auto data = predictor::generate_dataset(gen, rng);
    for (const auto& sample : data.samples) {
      os->observe(1, predictor::SwitchType::kNone, sample.exited);
    }
  }
  // Stall net trained on the same world, so the Monte Carlo rollouts see
  // realistic stall-exit probabilities (an untrained net makes LingXi's
  // candidate ranking meaningless).
  Rng net_rng(6);
  auto net = std::make_shared<predictor::StallExitNet>(net_rng);
  {
    Rng rng(7);
    predictor::DatasetGenConfig gen;
    gen.users = 25;
    gen.sessions_per_user = 20;
    gen.filter = predictor::DatasetFilter::kStall;
    auto data = predictor::generate_dataset(gen, rng);
    auto balanced = predictor::balance(data, rng);
    predictor::TrainConfig tcfg;
    tcfg.epochs = 8;
    if (!balanced.samples.empty()) predictor::train_exit_net(*net, balanced, tcfg, rng);
  }

  analytics::PopulationExperiment exp(
      cfg, [] { return std::make_unique<abr::Hyb>(); },
      [&] { return predictor::HybridExitPredictor(net, os); });

  const auto control = exp.run(false, 77);
  const auto treatment = exp.run(true, 77);

  double control_stall = 0.0, treatment_stall = 0.0;
  for (std::size_t d = cfg.intervention_day; d < cfg.days; ++d) {
    control_stall += control.daily[d].total_stall_time();
    treatment_stall += treatment.daily[d].total_stall_time();
  }
  ASSERT_GT(control_stall, 0.0);
  // Loose bound: the treated arm must stay within 2x of control (typically
  // well below it); the precise improvement claim lives in the benches.
  EXPECT_LT(treatment_stall, 2.0 * control_stall);
}

TEST(Integration, MpcIntegrationSearchesStallSwitchSpace) {
  Rng rng(8);
  auto net = std::make_shared<predictor::StallExitNet>(rng);
  auto os = std::make_shared<predictor::OverallStatsModel>();

  core::LingXiConfig cfg;
  cfg.obo_rounds = 4;
  cfg.monte_carlo.samples = 3;
  cfg.monte_carlo.sample_duration = 8.0;
  cfg.space.optimize_stall = true;
  cfg.space.optimize_switch = true;
  cfg.space.optimize_beta = false;

  const predictor::HybridExitPredictor lx_predictor(net, os);

  core::LingXi lx(cfg, lx_predictor,

                  trace::BitrateLadder::default_ladder());
  lx.begin_session();
  for (int i = 0; i < 5; ++i) {
    sim::SegmentRecord seg;
    seg.bitrate = 350.0;
    seg.level = 0;
    seg.throughput = 600.0;
    seg.stall_time = 1.0;
    lx.on_segment(seg);
  }
  abr::RobustMpc mpc;
  Rng opt_rng(9);
  const auto result = lx.maybe_optimize(mpc, 1.0, opt_rng);
  ASSERT_TRUE(result.has_value());
  EXPECT_GE(result->stall_penalty, cfg.space.stall_min);
  EXPECT_LE(result->stall_penalty, cfg.space.stall_max);
  EXPECT_GE(result->switch_penalty, cfg.space.switch_min);
  EXPECT_LE(result->switch_penalty, cfg.space.switch_max);
  EXPECT_DOUBLE_EQ(mpc.params().stall_penalty, result->stall_penalty);
}

}  // namespace
}  // namespace lingxi
