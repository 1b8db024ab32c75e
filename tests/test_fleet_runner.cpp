// FleetRunner: exact shard-merge algebra, degenerate fleet shapes, the
// warmup window and AA gating. Thread-count and shard-size independence is
// pinned by the fleet parity harness in test_properties.cpp.
#include <gtest/gtest.h>

#include <limits>
#include <memory>

#include "abr/hyb.h"
#include "predictor/exit_net.h"
#include "predictor/hybrid.h"
#include "predictor/os_model.h"
#include "sim/fleet_runner.h"

namespace lingxi {
namespace {

sim::FleetConfig small_fleet() {
  sim::FleetConfig cfg;
  cfg.users = 24;
  cfg.days = 2;
  cfg.sessions_per_user_day = 4;
  cfg.users_per_shard = 3;
  cfg.drift_user_tolerance = true;
  cfg.session_jitter_sigma = 0.3;
  cfg.network.median_bandwidth = 1500.0;
  cfg.network.sigma = 0.5;
  cfg.network.relative_sd = 0.4;
  cfg.video.mean_duration = 20.0;
  return cfg;
}

sim::FleetRunner::AbrFactory hyb_factory() {
  return [] { return std::make_unique<abr::Hyb>(); };
}

/// Small untrained-but-deterministic predictor for LingXi fleets.
sim::FleetRunner::PredictorFactory test_predictor_factory() {
  Rng rng(1234);
  auto net = std::make_shared<predictor::StallExitNet>(rng);
  auto os_model = std::make_shared<predictor::OverallStatsModel>();
  for (int i = 0; i < 200; ++i) {
    os_model->observe(1, predictor::SwitchType::kNone, i % 9 == 0);
  }
  return [net, os_model] { return predictor::HybridExitPredictor(net, os_model); };
}

sim::FleetAccumulator run_with_threads(sim::FleetConfig cfg, std::size_t threads,
                                       std::uint64_t seed, bool lingxi = false) {
  cfg.threads = threads;
  cfg.enable_lingxi = lingxi;
  if (lingxi) {
    cfg.lingxi.space.optimize_stall = false;
    cfg.lingxi.space.optimize_switch = false;
    cfg.lingxi.space.optimize_beta = true;
    cfg.lingxi.obo_rounds = 2;
    cfg.lingxi.monte_carlo.samples = 4;
  }
  sim::FleetRunner runner(cfg, hyb_factory());
  if (lingxi) runner.set_predictor_factory(test_predictor_factory());
  return runner.run(seed);
}

void expect_identical(const sim::FleetAccumulator& a, const sim::FleetAccumulator& b) {
  EXPECT_EQ(a.checksum(), b.checksum());
  EXPECT_EQ(a.sessions, b.sessions);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.stall_events, b.stall_events);
  EXPECT_EQ(a.stall_exits, b.stall_exits);
  EXPECT_EQ(a.watch_ticks, b.watch_ticks);
  EXPECT_EQ(a.stall_ticks, b.stall_ticks);
  EXPECT_EQ(a.bitrate_time_ticks, b.bitrate_time_ticks);
  EXPECT_EQ(a.lingxi_optimizations, b.lingxi_optimizations);
  EXPECT_EQ(a.adjusted_user_days, b.adjusted_user_days);
}

TEST(FleetRunner, DegenerateShardSizesAreClampedNotUndefined) {
  // 0 is not a shard size; the runner must normalize it (documented clamp
  // to 1) rather than divide by zero in shard bookkeeping. That results do
  // not move at 0, 1 or far-larger-than-fleet shards is a row of the fleet
  // parity harness (test_properties.cpp).
  for (std::size_t shard_users : {std::size_t{0}, std::size_t{1}, std::size_t{10000}}) {
    sim::FleetConfig cfg = small_fleet();
    cfg.users_per_shard = shard_users;
    const sim::FleetRunner runner(cfg, hyb_factory());
    EXPECT_GE(runner.config().users_per_shard, 1u) << "shard_users=" << shard_users;
  }
}

TEST(FleetRunner, DifferentSeedsDiffer) {
  const auto a = run_with_threads(small_fleet(), 2, 1);
  const auto b = run_with_threads(small_fleet(), 2, 2);
  EXPECT_NE(a.checksum(), b.checksum());
}

TEST(FleetAccumulator, MergeIsAssociativeAndCommutative) {
  sim::FleetConfig cfg = small_fleet();
  cfg.users = 6;
  const auto a = run_with_threads(cfg, 1, 101);
  const auto b = run_with_threads(cfg, 1, 202);
  const auto c = run_with_threads(cfg, 1, 303);

  // (a + b) + c
  sim::FleetAccumulator left = a;
  left.merge(b);
  left.merge(c);
  // a + (b + c)
  sim::FleetAccumulator bc = b;
  bc.merge(c);
  sim::FleetAccumulator right = a;
  right.merge(bc);
  // c + b + a
  sim::FleetAccumulator reversed = c;
  reversed.merge(b);
  reversed.merge(a);

  expect_identical(left, right);
  expect_identical(left, reversed);
  EXPECT_EQ(left.sessions, a.sessions + b.sessions + c.sessions);
  EXPECT_EQ(left.users, a.users + b.users + c.users);
}

TEST(FleetAccumulator, MergeWithEmptyIsIdentity) {
  const auto a = run_with_threads(small_fleet(), 1, 5);
  sim::FleetAccumulator merged = a;
  merged.merge(sim::FleetAccumulator{});
  expect_identical(a, merged);
}

TEST(FleetRunner, EmptyFleet) {
  sim::FleetConfig cfg = small_fleet();
  cfg.users = 0;
  sim::FleetRunner runner(cfg, hyb_factory());
  const auto result = runner.run(77);
  EXPECT_EQ(result.sessions, 0u);
  EXPECT_EQ(result.users, 0u);
  EXPECT_DOUBLE_EQ(result.completion_rate(), 0.0);
  EXPECT_DOUBLE_EQ(result.exit_rate(), 0.0);
  EXPECT_DOUBLE_EQ(result.mean_bitrate(), 0.0);
  EXPECT_EQ(result.checksum(), sim::FleetAccumulator{}.checksum());
}

TEST(FleetRunner, SingleUserFleet) {
  sim::FleetConfig cfg = small_fleet();
  cfg.users = 1;
  cfg.days = 3;
  cfg.sessions_per_user_day = 5;
  cfg.threads = 4;  // more workers than shards must be harmless
  sim::FleetRunner runner(cfg, hyb_factory());
  const auto result = runner.run(13);
  EXPECT_EQ(result.users, 1u);
  EXPECT_EQ(result.sessions, 15u);
  EXPECT_GT(result.total_watch_time(), 0.0);
}

TEST(FleetRunner, WarmupWindowExcludesEarlySessions) {
  sim::FleetConfig cfg = small_fleet();
  cfg.users = 4;
  cfg.days = 1;
  cfg.sessions_per_user_day = 6;
  cfg.warmup_sessions = 2;
  sim::FleetRunner runner(cfg, hyb_factory());
  const auto result = runner.run(21);
  EXPECT_EQ(result.sessions, 24u);
  EXPECT_EQ(result.measured_sessions, 16u);  // (6 - 2) x 4 users
  EXPECT_LE(result.measured_completed, result.completed);
}

TEST(FleetRunner, PureAaRunMatchesControlSessionForSession) {
  // With intervention_day == days, LingXi observes but never optimizes: the
  // session-level results must equal a control fleet pinned to the same
  // defaults (the paired AA property of the Fig. 12 protocol).
  sim::FleetConfig cfg = small_fleet();
  cfg.users = 8;
  cfg.users_per_shard = 2;
  cfg.network.median_bandwidth = 1000.0;
  cfg.intervention_day = cfg.days;  // pure AA
  cfg.fixed_params = cfg.lingxi.default_params;

  sim::FleetConfig control_cfg = cfg;
  control_cfg.enable_lingxi = false;
  sim::FleetRunner control(control_cfg, hyb_factory());
  const auto control_acc = control.run(77);

  sim::FleetConfig aa_cfg = cfg;
  aa_cfg.enable_lingxi = true;
  aa_cfg.lingxi.space.optimize_beta = true;
  sim::FleetRunner aa(aa_cfg, hyb_factory());
  aa.set_predictor_factory(test_predictor_factory());
  const auto aa_acc = aa.run(77);

  EXPECT_EQ(aa_acc.lingxi_optimizations, 0u);
  EXPECT_EQ(aa_acc.adjusted_user_days, 0u);
  EXPECT_EQ(aa_acc.sessions, control_acc.sessions);
  EXPECT_EQ(aa_acc.completed, control_acc.completed);
  EXPECT_EQ(aa_acc.stall_events, control_acc.stall_events);
  EXPECT_EQ(aa_acc.watch_ticks, control_acc.watch_ticks);
  EXPECT_EQ(aa_acc.stall_ticks, control_acc.stall_ticks);
  EXPECT_EQ(aa_acc.bitrate_time_ticks, control_acc.bitrate_time_ticks);
}

TEST(FleetRunner, InterventionDayLimitsAdjustedDays) {
  sim::FleetConfig cfg = small_fleet();
  cfg.users = 8;
  cfg.users_per_shard = 2;
  cfg.network.median_bandwidth = 1000.0;
  cfg.intervention_day = 1;  // day 0 is AA
  const auto acc = run_with_threads(cfg, 2, 7, /*lingxi=*/true);
  // Pre-intervention days are pinned to the defaults, so at most the
  // post-intervention days can end adjusted.
  EXPECT_LE(acc.adjusted_user_days,
            cfg.users * (cfg.days - cfg.intervention_day));
}

TEST(FleetRunner, CustomUserFactoryReceivesUserIndex) {
  sim::FleetConfig cfg = small_fleet();
  cfg.users = 5;
  cfg.days = 1;
  cfg.drift_user_tolerance = false;
  sim::FleetRunner runner(cfg, hyb_factory());
  runner.set_user_factory([](std::size_t user_index, Rng&) {
    user::DataDrivenUser::Config ucfg;
    ucfg.tolerance = 1.0 + static_cast<double>(user_index);
    return std::make_unique<user::DataDrivenUser>(ucfg);
  });
  const auto result = runner.run(3);
  EXPECT_EQ(result.users, 5u);
  EXPECT_EQ(result.sessions, 20u);
}

// ---------------------------------------------------------------------------
// Overflow boundary: the fixed-point sums saturate at INT64_MAX and latch
// `overflowed` (in every build type) instead of wrapping — and the latch
// merges sticky, so shard partitioning cannot hide an overflow.
// ---------------------------------------------------------------------------

TEST(FleetAccumulator, AddSessionSaturatesAndLatchesAtInt64Max) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  sim::SessionResult one_second;
  one_second.watch_time = 1.0;  // exactly 1'000'000 ticks

  // Exactly filling the headroom is NOT an overflow: the sum lands on
  // INT64_MAX without clamping and the latch stays clear.
  sim::FleetAccumulator exact;
  exact.watch_ticks = kMax - 1'000'000;
  exact.add_session(one_second, /*measured=*/true);
  EXPECT_EQ(exact.watch_ticks, kMax);
  EXPECT_FALSE(exact.has_overflow());

  // One tick less headroom and the same session overflows: the sum clamps
  // to INT64_MAX and the latch sets.
  sim::FleetAccumulator over;
  over.watch_ticks = kMax - 999'999;
  over.add_session(one_second, /*measured=*/true);
  EXPECT_EQ(over.watch_ticks, kMax);
  EXPECT_TRUE(over.has_overflow());

  // The latch is part of the checksum, so a saturated accumulator can never
  // pass for the equal-valued non-saturated one.
  EXPECT_NE(exact.checksum(), over.checksum());
}

TEST(FleetAccumulator, MergeSaturatesAndPropagatesLatch) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();

  // Merge itself can overflow: two in-range halves whose total is out of
  // range clamp and latch.
  sim::FleetAccumulator a;
  sim::FleetAccumulator b;
  a.stall_ticks = kMax / 2 + 1;
  b.stall_ticks = kMax / 2 + 1;
  a.merge(b);
  EXPECT_EQ(a.stall_ticks, kMax);
  EXPECT_TRUE(a.has_overflow());

  // Sticky across merges: an already-latched shard taints the total even
  // when the merged sums are far from the bound.
  sim::FleetAccumulator tainted;
  tainted.overflowed = 1;
  sim::FleetAccumulator total;
  total.watch_ticks = 123;
  total.merge(tainted);
  EXPECT_EQ(total.watch_ticks, 123);
  EXPECT_TRUE(total.has_overflow());
}

}  // namespace
}  // namespace lingxi
