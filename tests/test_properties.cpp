// Parameterized property tests (TEST_P sweeps) across module invariants:
// player dynamics, ABR decision validity, parameter-space round trips,
// user-model hazards, GP posteriors, predictor outputs, serialization, and
// the session log — and the fleet parity harness, one table of fixtures x
// cells that pins the bitwise contract of every fleet output.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "abr/bba.h"
#include "abr/bola.h"
#include "abr/hyb.h"
#include "abr/pensieve.h"
#include "abr/rate_based.h"
#include "abr/robust_mpc.h"
#include "archive_bytes.h"
#include "bayesopt/gp.h"
#include "common/rng.h"
#include "inline_exit_evaluator.h"
#include "logstore/record.h"
#include "logstore/session_log.h"
#include "nn/dense.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "pooled_predict.h"
#include "predictor/exit_net.h"
#include "predictor/hybrid.h"
#include "predictor/os_model.h"
#include "scenario/scenario.h"
#include "sim/fleet_runner.h"
#include "sim/monte_carlo.h"
#include "sim/player_env.h"
#include "sim/session.h"
#include "snapshot/checkpoint.h"
#include "snapshot/snapshot.h"
#include "stats/ecdf.h"
#include "telemetry/capture.h"
#include "trace/bandwidth.h"
#include "trace/video.h"
#include "user/data_driven.h"

namespace lingxi {
namespace {

// ---------------------------------------------------------------------------
// PlayerEnv invariants over a (bandwidth, segment bitrate, buffer) grid.
// ---------------------------------------------------------------------------

using PlayerCase = std::tuple<double /*bandwidth*/, double /*bitrate*/, double /*buffer*/>;

class PlayerEnvProperty : public ::testing::TestWithParam<PlayerCase> {};

TEST_P(PlayerEnvProperty, Eq3InvariantsHold) {
  const auto [bandwidth, bitrate, buffer0] = GetParam();
  sim::PlayerConfig cfg;
  cfg.startup_buffer = buffer0;
  sim::PlayerEnv env(cfg);

  const Bytes size = units::segment_bytes(bitrate, 1.0);
  const auto r = env.step(size, 1.0, bandwidth);

  // Download time is exactly size / bandwidth.
  EXPECT_NEAR(r.download_time, units::download_time(size, bandwidth), 1e-12);
  // Stall is the buffer shortfall, never negative.
  EXPECT_NEAR(r.stall_time, std::max(0.0, r.download_time - buffer0), 1e-12);
  // Buffer stays within [0, B_max].
  EXPECT_GE(r.buffer_after, 0.0);
  EXPECT_LE(r.buffer_after, env.buffer_max() + 1e-9);
  // Wait always includes the RTT.
  EXPECT_GE(r.wait_time, cfg.rtt - 1e-12);
  // Wall clock advanced by download + wait.
  EXPECT_NEAR(env.wall_clock(), r.download_time + r.wait_time, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PlayerEnvProperty,
    ::testing::Combine(::testing::Values(200.0, 800.0, 2000.0, 10000.0),
                       ::testing::Values(350.0, 750.0, 1850.0, 4300.0),
                       ::testing::Values(0.0, 0.5, 4.0, 8.0)));

// ---------------------------------------------------------------------------
// Every ABR returns a valid ladder level for any sane observation, and is
// deterministic given the same observation.
// ---------------------------------------------------------------------------

enum class AbrKind { kHyb, kBba, kBola, kRateBased, kMpc, kPensieve };

using AbrCase = std::tuple<AbrKind, double /*buffer*/, double /*bandwidth*/>;

class AbrValidity : public ::testing::TestWithParam<AbrCase> {
 protected:
  static std::unique_ptr<abr::AbrAlgorithm> make(AbrKind kind) {
    static Rng rng(999);
    switch (kind) {
      case AbrKind::kHyb: return std::make_unique<abr::Hyb>();
      case AbrKind::kBba: return std::make_unique<abr::Bba>();
      case AbrKind::kBola: return std::make_unique<abr::Bola>();
      case AbrKind::kRateBased: return std::make_unique<abr::RateBased>();
      case AbrKind::kMpc: return std::make_unique<abr::RobustMpc>();
      case AbrKind::kPensieve: return std::make_unique<abr::Pensieve>(4, rng);
    }
    return nullptr;
  }
};

TEST_P(AbrValidity, SelectsValidLevelDeterministically) {
  const auto [kind, buffer, bandwidth] = GetParam();
  const trace::Video video(trace::BitrateLadder::default_ladder(), 30, 1.0);
  auto algo = make(kind);

  sim::AbrObservation obs;
  obs.video = &video;
  obs.buffer = buffer;
  obs.buffer_max = 8.0;
  obs.next_segment = 3;
  obs.first_segment = false;
  obs.last_level = 1;
  obs.throughput_history = {bandwidth, bandwidth * 0.9, bandwidth * 1.1};
  obs.download_time_history = {0.5, 0.6, 0.4};

  const std::size_t level = algo->select(obs);
  EXPECT_LT(level, video.ladder().levels());
  EXPECT_EQ(algo->select(obs), level);  // deterministic

  // Clones behave identically.
  EXPECT_EQ(algo->clone()->select(obs), level);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, AbrValidity,
    ::testing::Combine(::testing::Values(AbrKind::kHyb, AbrKind::kBba, AbrKind::kBola,
                                         AbrKind::kRateBased, AbrKind::kMpc,
                                         AbrKind::kPensieve),
                       ::testing::Values(0.0, 2.0, 8.0),
                       ::testing::Values(400.0, 2000.0, 9000.0)));

// ---------------------------------------------------------------------------
// ParamSpace: from_unit(to_unit(p)) == clamp(p) for every flag combination.
// ---------------------------------------------------------------------------

class ParamSpaceRoundTrip
    : public ::testing::TestWithParam<std::tuple<bool, bool, bool, int>> {};

TEST_P(ParamSpaceRoundTrip, UnitCubeRoundTrip) {
  const auto [opt_stall, opt_switch, opt_beta, seed] = GetParam();
  if (!opt_stall && !opt_switch && !opt_beta) GTEST_SKIP();
  abr::ParamSpace space;
  space.optimize_stall = opt_stall;
  space.optimize_switch = opt_switch;
  space.optimize_beta = opt_beta;

  Rng rng(static_cast<std::uint64_t>(seed));
  abr::QoeParams p;
  p.stall_penalty = rng.uniform(space.stall_min, space.stall_max);
  p.switch_penalty = rng.uniform(space.switch_min, space.switch_max);
  p.hyb_beta = rng.uniform(space.beta_min, space.beta_max);

  const auto u = space.to_unit(p);
  ASSERT_EQ(u.size(), space.dimensions());
  const abr::QoeParams q = space.from_unit(u, p);
  EXPECT_NEAR(q.stall_penalty, p.stall_penalty, 1e-9);
  EXPECT_NEAR(q.switch_penalty, p.switch_penalty, 1e-9);
  EXPECT_NEAR(q.hyb_beta, p.hyb_beta, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Grid, ParamSpaceRoundTrip,
                         ::testing::Combine(::testing::Bool(), ::testing::Bool(),
                                            ::testing::Bool(), ::testing::Range(1, 5)));

// ---------------------------------------------------------------------------
// DataDrivenUser: hazards are monotone in stall time and bounded, for every
// archetype x tolerance combination.
// ---------------------------------------------------------------------------

using UserCase = std::tuple<user::StallArchetype, double /*tolerance*/>;

class UserHazardProperty : public ::testing::TestWithParam<UserCase> {};

TEST_P(UserHazardProperty, MonotoneAndBounded) {
  const auto [archetype, tolerance] = GetParam();
  user::DataDrivenUser::Config cfg;
  cfg.stall_archetype = archetype;
  cfg.tolerance = tolerance;
  user::DataDrivenUser u(cfg);
  double prev = -1.0;
  for (double s = 0.0; s <= 25.0; s += 0.25) {
    const double h = u.stall_hazard(s, 1);
    EXPECT_GE(h, prev - 1e-12);
    EXPECT_GE(h, 0.0);
    EXPECT_LE(h, 1.0);
    prev = h;
  }
  // More stall events never reduce the hazard.
  EXPECT_GE(u.stall_hazard(5.0, 4), u.stall_hazard(5.0, 1) - 1e-12);
}

TEST_P(UserHazardProperty, ExitProbabilityIsProbability) {
  const auto [archetype, tolerance] = GetParam();
  user::DataDrivenUser::Config cfg;
  cfg.stall_archetype = archetype;
  cfg.tolerance = tolerance;
  user::DataDrivenUser u(cfg);
  u.begin_session();
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    sim::SegmentRecord seg;
    seg.level = static_cast<std::size_t>(rng.uniform_int(0, 3));
    seg.bitrate = trace::BitrateLadder::default_ladder().bitrate(seg.level);
    seg.position = rng.uniform(0.0, 120.0);
    seg.stall_time = rng.bernoulli(0.3) ? rng.uniform(0.1, 8.0) : 0.0;
    seg.cumulative_stall = seg.stall_time + rng.uniform(0.0, 10.0);
    seg.cumulative_stall_events = static_cast<std::size_t>(rng.uniform_int(0, 6));
    const double p = u.exit_probability(seg);
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, UserHazardProperty,
    ::testing::Combine(::testing::Values(user::StallArchetype::kSensitive,
                                         user::StallArchetype::kThreshold,
                                         user::StallArchetype::kInsensitive),
                       ::testing::Values(1.0, 3.0, 6.0, 12.0)));

// ---------------------------------------------------------------------------
// Gaussian process: posterior interpolates data and variance is bounded by
// the prior, across kernel hyperparameters.
// ---------------------------------------------------------------------------

using GpCase = std::tuple<double /*length_scale*/, double /*noise*/>;

class GpPosteriorProperty : public ::testing::TestWithParam<GpCase> {};

TEST_P(GpPosteriorProperty, PosteriorSaneAcrossHyperparameters) {
  const auto [length_scale, noise] = GetParam();
  bayesopt::GpConfig cfg;
  cfg.length_scale = length_scale;
  cfg.noise_variance = noise;
  bayesopt::GaussianProcess gp(cfg);
  Rng rng(7);
  for (int i = 0; i < 12; ++i) {
    const double x = rng.uniform();
    gp.observe({x}, std::sin(6.0 * x));
  }
  for (double x = 0.0; x <= 1.0; x += 0.05) {
    const auto p = gp.predict({x});
    EXPECT_GE(p.variance, 0.0);
    EXPECT_LE(p.variance, cfg.signal_variance + 1e-9);
    EXPECT_TRUE(std::isfinite(p.mean));
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, GpPosteriorProperty,
                         ::testing::Combine(::testing::Values(0.05, 0.15, 0.3, 0.6),
                                            ::testing::Values(1e-6, 1e-4, 1e-2)));

// ---------------------------------------------------------------------------
// Exit net: outputs are probabilities for any bounded input, across seeds.
// ---------------------------------------------------------------------------

class ExitNetProperty : public ::testing::TestWithParam<int> {};

TEST_P(ExitNetProperty, OutputsAreProbabilities) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  predictor::StallExitNet net(rng);
  Rng data(static_cast<std::uint64_t>(GetParam()) * 31 + 1);
  for (int i = 0; i < 25; ++i) {
    nn::Tensor f({predictor::kChannels, predictor::kHistoryLen});
    for (std::size_t j = 0; j < f.size(); ++j) f[j] = data.uniform(-1.0, 2.0);
    const double p = net.predict(f);
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
    EXPECT_TRUE(std::isfinite(p));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExitNetProperty, ::testing::Range(1, 7));

// ---------------------------------------------------------------------------
// Session simulation conservation laws over (bandwidth model x video length).
// ---------------------------------------------------------------------------

using SessionCase = std::tuple<double /*mean bw*/, std::size_t /*segments*/>;

class SessionConservation : public ::testing::TestWithParam<SessionCase> {};

TEST_P(SessionConservation, AccountingConsistent) {
  const auto [mean_bw, segments] = GetParam();
  const trace::Video video(trace::BitrateLadder::default_ladder(), segments, 1.0);
  trace::GaussMarkovBandwidth bw({.mean = mean_bw, .rho = 0.9, .noise_sd = mean_bw * 0.2});
  abr::Hyb hyb;
  const sim::SessionSimulator sim({});
  Rng rng(11);
  const auto result = sim.run(video, hyb, bw, nullptr, rng);

  ASSERT_EQ(result.segments.size(), segments);
  EXPECT_DOUBLE_EQ(result.watch_time, static_cast<double>(segments));
  double stall_sum = 0.0;
  std::size_t events = 0;
  double bitrate_sum = 0.0;
  for (const auto& seg : result.segments) {
    stall_sum += seg.stall_time;
    if (seg.stall_time > 0.05) ++events;
    bitrate_sum += seg.bitrate;
    EXPECT_GE(seg.buffer_after, 0.0);
    EXPECT_GT(seg.throughput, 0.0);
  }
  EXPECT_NEAR(result.total_stall, stall_sum, 1e-9);
  EXPECT_EQ(result.stall_events, events);
  EXPECT_NEAR(result.mean_bitrate, bitrate_sum / static_cast<double>(segments), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Grid, SessionConservation,
                         ::testing::Combine(::testing::Values(500.0, 1500.0, 6000.0),
                                            ::testing::Values(std::size_t{5},
                                                              std::size_t{30},
                                                              std::size_t{120})));

// ---------------------------------------------------------------------------
// Session log: encode/decode round trip across session shapes.
// ---------------------------------------------------------------------------

class SessionLogRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(SessionLogRoundTrip, RoundTripsThroughBytes) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const auto segments = static_cast<std::size_t>(rng.uniform_int(1, 60));
  const trace::Video video(trace::BitrateLadder::default_ladder(), segments, 1.0);
  trace::GaussMarkovBandwidth bw({.mean = rng.uniform(400.0, 8000.0)});
  abr::Bba bba;
  const sim::SessionSimulator sim({});

  logstore::SessionLogEntry entry;
  entry.user_id = rng.next();
  entry.timestamp = 1760000000 + static_cast<std::uint64_t>(GetParam());
  entry.video_duration = video.duration();
  entry.session = sim.run(video, bba, bw, nullptr, rng);

  std::vector<unsigned char> bytes;
  logstore::write_record(bytes, logstore::encode_session(entry));
  std::size_t pos = 0;
  const auto payload = logstore::read_record(bytes, pos);
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ(pos, bytes.size());
  const auto read = logstore::decode_session(*payload);
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(*read, entry);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SessionLogRoundTrip, ::testing::Range(1, 9));

TEST(SessionLog, MultipleEntriesAndFileRoundTrip) {
  Rng rng(3);
  const trace::Video video(trace::BitrateLadder::default_ladder(), 10, 1.0);
  trace::ConstantBandwidth bw(2000.0);
  abr::Hyb hyb;
  const sim::SessionSimulator sim({});

  std::vector<logstore::SessionLogEntry> written;
  std::vector<unsigned char> bytes;
  for (int i = 0; i < 5; ++i) {
    logstore::SessionLogEntry e;
    e.user_id = static_cast<std::uint64_t>(i);
    e.timestamp = 1700000000u + static_cast<std::uint64_t>(i);
    e.video_duration = video.duration();
    e.session = sim.run(video, hyb, bw, nullptr, rng);
    logstore::write_record(bytes, logstore::encode_session(e));
    written.push_back(std::move(e));
  }
  const std::string path = ::testing::TempDir() + "/lingxi_session_log.bin";
  ASSERT_TRUE(write_file(path, bytes).ok());
  const auto loaded = read_file(path);
  ASSERT_TRUE(loaded.has_value());
  std::size_t pos = 0;
  for (const auto& expected : written) {
    const auto payload = logstore::read_record(*loaded, pos);
    ASSERT_TRUE(payload.has_value());
    const auto entry = logstore::decode_session(*payload);
    ASSERT_TRUE(entry.has_value());
    EXPECT_EQ(*entry, expected);
  }
  EXPECT_EQ(pos, loaded->size());
}

TEST(SessionLog, CorruptionDetected) {
  logstore::SessionLogEntry e;
  e.user_id = 1;
  sim::SegmentRecord seg;
  seg.bitrate = 750.0;
  e.session.segments.push_back(seg);
  std::vector<unsigned char> bytes;
  logstore::write_record(bytes, logstore::encode_session(e));
  bytes[bytes.size() / 2] ^= 0x10;
  std::size_t pos = 0;
  EXPECT_FALSE(logstore::read_record(bytes, pos).has_value());
}

// ---------------------------------------------------------------------------
// ECDF properties: monotone, 0/1 at the extremes, inverse is a quantile.
// ---------------------------------------------------------------------------

class EcdfProperty : public ::testing::TestWithParam<int> {};

TEST_P(EcdfProperty, MonotoneAndInverseConsistent) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 17);
  std::vector<double> xs;
  const int n = 50 + GetParam() * 37;
  for (int i = 0; i < n; ++i) xs.push_back(rng.normal(10.0, 4.0));
  const stats::Ecdf cdf(xs);

  double prev = 0.0;
  for (double x = -10.0; x <= 30.0; x += 0.5) {
    const double v = cdf(x);
    EXPECT_GE(v, prev);
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
    prev = v;
  }
  for (double q : {0.1, 0.25, 0.5, 0.75, 0.9, 1.0}) {
    const double xq = cdf.inverse(q);
    EXPECT_GE(cdf(xq), q - 1e-12);  // quantile property
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EcdfProperty, ::testing::Range(1, 8));

// ---------------------------------------------------------------------------
// Monte Carlo pruning soundness: early exit may only trigger when even an
// exit-free completion of the remaining rollouts could not beat the best
// known exit rate — so pruning can never flip the sign of a candidate
// comparison versus the unpruned evaluator.
// ---------------------------------------------------------------------------

class McPruningProperty : public ::testing::TestWithParam<int> {
 public:
  static sim::MonteCarloConfig mc_config(bool pruning) {
    sim::MonteCarloConfig mc;
    mc.samples = 24;
    mc.sample_duration = 20.0;
    mc.enable_pruning = pruning;
    mc.min_samples_before_prune = 4;
    return mc;
  }

  /// Evaluate a HYB candidate with the given beta from a fixed seed. The Rng
  /// is re-seeded per call so pruned and unpruned runs draw identical
  /// rollouts up to the prune point.
  static sim::MonteCarloResult evaluate(double beta, bool pruning, double best_known,
                                        std::uint64_t seed) {
    const sim::MonteCarloEvaluator eval(mc_config(pruning), {});
    const auto video =
        eval.make_virtual_video(trace::BitrateLadder::default_ladder(), 1.0);
    abr::Hyb hyb;
    abr::QoeParams params;
    params.hyb_beta = beta;
    hyb.set_params(params);
    // Stall-sensitive user over a weak link: exits actually happen, so the
    // comparison is non-trivial.
    const testing_util::InlineExitEvaluator exits([] {
      user::DataDrivenUser::Config ucfg;
      ucfg.stall_archetype = user::StallArchetype::kSensitive;
      ucfg.tolerance = 1.5;
      return std::make_unique<user::DataDrivenUser>(ucfg);
    });
    const trace::NormalBandwidth bandwidth(650.0, 280.0);
    Rng rng(seed);
    return eval.evaluate_rollouts(video, hyb, exits, bandwidth, 1.0, best_known, rng);
  }
};

TEST_P(McPruningProperty, PruningPreservesComparisonSign) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  constexpr double kIncumbentBeta = 0.5;
  constexpr double kChallengerBeta = 0.95;
  const double incumbent =
      evaluate(kIncumbentBeta, false, std::numeric_limits<double>::infinity(), seed)
          .exit_rate;
  const double challenger_full =
      evaluate(kChallengerBeta, false, std::numeric_limits<double>::infinity(), seed + 1)
          .exit_rate;

  // Challenger judged against the incumbent's unpruned rate, and against
  // tighter/looser thresholds around it.
  for (double best_known : {incumbent, incumbent * 0.5, incumbent * 0.25,
                            incumbent * 2.0, 1e-3}) {
    if (best_known <= 0.0) continue;
    const auto pruned = evaluate(kChallengerBeta, true, best_known, seed + 1);
    EXPECT_EQ(pruned.exit_rate < best_known, challenger_full < best_known)
        << "best_known=" << best_known << " pruned=" << pruned.exit_rate
        << " full=" << challenger_full << " was_pruned=" << pruned.pruned;
    // A run that was NOT pruned must reproduce the unpruned estimate.
    if (!pruned.pruned) {
      EXPECT_DOUBLE_EQ(pruned.exit_rate, challenger_full);
      EXPECT_EQ(pruned.samples_run, mc_config(true).samples);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, McPruningProperty, ::testing::Range(1, 11));

TEST(McPruning, EngagesAgainstUnbeatableBaseline) {
  // With a near-zero best-known exit rate, a bad candidate must prune early.
  bool any_pruned = false;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto result = McPruningProperty::evaluate(0.95, true, 1e-4, seed);
    any_pruned = any_pruned || result.pruned;
    if (result.pruned) {
      EXPECT_LT(result.samples_run, McPruningProperty::mc_config(true).samples);
    }
  }
  EXPECT_TRUE(any_pruned);
}

// ---------------------------------------------------------------------------
// Fleet parity harness. Paired A/B comparisons are exact because of one
// contract: a fleet's outputs — the merged FleetAccumulator, the telemetry
// archive (manifest and every shard byte), the deterministic section of
// every health-timeline day record and the SLO alerts — are bitwise
// identical in every cell of the scheduling grid, under every dense-kernel
// ISA, with the health plane on or off, and across every way of splitting
// the calendar (in-process legs, disk snapshot round trips, AutoCheckpointer
// legs). run_cell is the only code here that builds a parity fleet,
// expect_same the only comparison and kRows the only table: each row runs a
// fixture's cells and compares each with the fixture's reference cell.
// ---------------------------------------------------------------------------

/// A fleet under test. Its config as written is the reference cell; the
/// witness is what makes the row non-vacuous.
struct Fixture {
  const char* name;
  sim::FleetConfig cfg;
  const char* witness_text;
  bool (*witness)(const sim::FleetAccumulator&);
};

/// Stall-prone 8-user LingXi fleet: weak links so optimizations, and with
/// them pooled exit-net forwards, actually happen.
sim::FleetConfig lingxi_fleet(std::size_t days) {
  sim::FleetConfig cfg;
  cfg.users = 8;
  cfg.days = days;
  cfg.sessions_per_user_day = 6;
  cfg.users_per_shard = 2;
  cfg.enable_lingxi = true;
  cfg.drift_user_tolerance = true;
  cfg.network.median_bandwidth = 1100.0;
  cfg.network.sigma = 0.4;
  cfg.lingxi.space.optimize_stall = false;
  cfg.lingxi.space.optimize_switch = false;
  cfg.lingxi.space.optimize_beta = true;
  cfg.lingxi.obo_rounds = 2;
  cfg.lingxi.monte_carlo.samples = 6;
  cfg.lingxi.monte_carlo.sample_duration = 12.0;
  cfg.lingxi.monte_carlo.min_samples_before_prune = 3;
  return cfg;
}

/// Every event kind fires inside the 8-user, 4-day fleet: bandwidth shock,
/// diurnal session curve, flash crowd, churn and a cohort override. Cohorts
/// cut across shard boundaries at every users_per_shard; the override uses a
/// stride so no cohort boundary aligns with a shard boundary.
scenario::ScenarioScript event_script() {
  scenario::ScenarioScript script;
  script.shocks.push_back({{0, 4, 1, 0}, 1, 3, 0.5, 1.3});
  script.curves.push_back({{0, 8, 1, 0}, {1.0, 1.5, 0.5, 1.0}});
  script.flash_crowds.push_back({{6, 8, 1, 0}, 1});
  script.churns.push_back({{2, 4, 1, 0}, 2});
  scenario::CohortOverride mobile;  // slots 1 and 5
  mobile.cohort = {0, 8, 4, 1};
  mobile.population.sensitive_fraction = 0.50;
  mobile.population.threshold_fraction = 0.35;
  mobile.population.insensitive_fraction = 0.15;
  mobile.population.low_tolerance_fraction = 0.40;
  mobile.population.mid_tolerance_fraction = 0.45;
  mobile.population.high_tolerance_fraction = 0.10;
  mobile.population.very_high_tolerance_fraction = 0.05;
  script.cohorts.push_back(mobile);
  return script;
}

/// The scripted fleet. Past 4 days a second churn and a late flash crowd
/// land on interior days, so checkpoint legs split user summaries.
sim::FleetConfig scenario_fleet(std::size_t days) {
  sim::FleetConfig cfg = lingxi_fleet(days);
  cfg.scenario = event_script();
  if (days > 4) {
    cfg.scenario.churns.push_back({{4, 6, 1, 0}, 4});
    cfg.scenario.flash_crowds.push_back({{0, 1, 1, 0}, 3});
  }
  return cfg;
}

/// 24-user fleet without LingXi: jittered session counts, a warmup window.
sim::FleetConfig small_fleet() {
  sim::FleetConfig cfg;
  cfg.users = 24;
  cfg.days = 2;
  cfg.sessions_per_user_day = 4;
  cfg.users_per_shard = 3;
  cfg.warmup_sessions = 2;
  cfg.drift_user_tolerance = true;
  cfg.session_jitter_sigma = 0.3;
  cfg.network.median_bandwidth = 1500.0;
  cfg.network.sigma = 0.5;
  cfg.network.relative_sd = 0.4;
  cfg.video.mean_duration = 20.0;
  return cfg;
}

bool optimized(const sim::FleetAccumulator& acc) { return acc.lingxi_optimizations > 0; }

constexpr std::uint64_t kSeed = 77;

const Fixture kLingxi2d{"lingxi-2d", lingxi_fleet(2), "lingxi_optimizations > 0", optimized};
const Fixture kLingxi4d{"lingxi-4d", lingxi_fleet(4), "lingxi_optimizations > 0", optimized};
template <std::uint64_t kUsers>
bool summaries_and_optimized(const sim::FleetAccumulator& acc) {
  return acc.users == kUsers && optimized(acc);
}
// Two churned slots bank departure summaries on top of the 8 horizon ones
// (four over 6 days).
const Fixture kScenario4d{"scenario-4d", scenario_fleet(4), "users == 10",
                          summaries_and_optimized<10>};
const Fixture kScenario6d{"scenario-6d", scenario_fleet(6), "users == 12",
                          summaries_and_optimized<12>};
const Fixture kSmall{"small", small_fleet(), "sessions > measured_sessions > 0",
                     [](const sim::FleetAccumulator& acc) {
                       return acc.sessions > acc.measured_sessions &&
                              acc.measured_sessions > 0;
                     }};

/// A scheduling axis: a FleetConfig knob that must not move a result bit,
/// and the values the rows sweep (the first is the low end, the last the
/// high end).
struct Axis {
  const char* name;
  std::size_t sim::FleetConfig::*knob;
  std::vector<std::size_t> values;
};

/// The scheduling axes. Deleting a line removes that axis from every row.
const std::vector<Axis> kAxes = {
    {"threads", &sim::FleetConfig::threads, {1, 4}},
    {"users_per_shard", &sim::FleetConfig::users_per_shard, {1, 3, 8}},
    {"predictor_batch", &sim::FleetConfig::predictor_batch, {0, 1, 2, 7, 64}},
};

enum class Split {
  kNone,
  kInProcess,     ///< run_days legs of `every` days on one runner
  kDisk,          ///< legs of `every` days, each a fresh runner, capture and
                  ///< health plane resumed through save/load_snapshot
  kCheckpointer,  ///< one run with an AutoCheckpointer committing every k days
};

/// Everything about a cell but its scheduling knobs.
struct Variant {
  std::optional<nn::DenseIsa> isa = {};  ///< unset: the process default
  bool obs = true;  ///< registry + tracer + timeline + SLO monitor
  Split split = Split::kNone;
  std::size_t every = 0;
};

Variant split(Split kind, std::size_t every) { return {.split = kind, .every = every}; }

/// Knob settings on top of a fixture's config.
using Knobs = std::vector<std::pair<const Axis*, std::size_t>>;

struct Cell {
  Knobs knobs;
  Variant variant;
  std::uint64_t seed = kSeed;
};

enum class Sweep {
  kReference,  ///< the fixture's own knobs
  kHigh,       ///< every axis at its high end
  kCorners,    ///< every combination of each axis' low and high end
  kGrid,       ///< every combination of the axes' values
  kAlong,      ///< one axis at a time over the row's own values
};

struct Row {
  const Fixture* fixture;
  Sweep sweep;
  std::vector<Variant> variants = {{}};
  /// kAlong: axis name and the values to visit.
  std::vector<std::pair<std::string, std::vector<std::size_t>>> along = {};
  /// Every seed runs the row against its own reference.
  std::vector<std::uint64_t> seeds = {kSeed};
};

const Row kRows[] = {
    // The scheduling grid; 2 and 4 threads and the clamped shard sizes at two seeds.
    {&kLingxi2d, Sweep::kGrid},
    {&kLingxi2d,
     Sweep::kAlong,
     {{}},
     {{"threads", {2, 4}}, {"users_per_shard", {0, 10000}}},
     {kSeed, 19}},
    // Dense-kernel ISA dispatch, and the health plane switched off.
    {&kLingxi2d,
     Sweep::kHigh,
     {{.isa = nn::DenseIsa::kBaseline}, {.isa = nn::DenseIsa::kAvx2}, {.obs = false}}},
    {&kLingxi2d, Sweep::kReference, {{.obs = false}}},
    // Resumed from disk at D = 2, the health plane restarted with each leg.
    {&kLingxi4d, Sweep::kCorners, {split(Split::kDisk, 2)}},
    // In-process run_days legs: chained day by day, and split at D = 2.
    {&kLingxi4d, Sweep::kReference, {split(Split::kInProcess, 1), split(Split::kInProcess, 2)}},
    {&kLingxi4d, Sweep::kReference, {split(Split::kInProcess, 1)}, {}, {19}},
    {&kScenario4d, Sweep::kCorners},
    // A disk round trip on the churn day, and at every scripted boundary:
    // flash crowd, churn, tail.
    {&kScenario4d, Sweep::kReference, {split(Split::kDisk, 2)}},
    {&kScenario4d, Sweep::kReference, {split(Split::kDisk, 1)}, {}, {91}},
    // AutoCheckpointer legs of 2 and 3 days: boundaries on the late churn
    // (day 4) and the late flash crowd (day 3), each checkpoint resumed.
    {&kScenario6d,
     Sweep::kReference,
     {split(Split::kCheckpointer, 2), split(Split::kCheckpointer, 3)}},
    {&kSmall,
     Sweep::kAlong,
     {{}},
     {{"threads", {2, 3, 8, 16}}, {"users_per_shard", {0, 1, 5, 24, 1000, 10000}}},
     {42, 9}},
    {&kSmall, Sweep::kReference, {split(Split::kInProcess, 1)}, {}, {5}},
};

/// The scheduling knob settings a row's sweep visits.
std::vector<Knobs> sweep_knobs(const Row& row) {
  std::vector<Knobs> points = {{}};
  const auto cross = [&points](const Axis& axis, const std::vector<std::size_t>& values) {
    std::vector<Knobs> next;
    for (const auto& point : points) {
      for (const std::size_t v : values) {
        next.push_back(point);
        next.back().emplace_back(&axis, v);
      }
    }
    points = std::move(next);
  };
  switch (row.sweep) {
    case Sweep::kReference:
      break;
    case Sweep::kHigh:
      for (const Axis& axis : kAxes) cross(axis, {axis.values.back()});
      break;
    case Sweep::kCorners:
      for (const Axis& axis : kAxes) cross(axis, {axis.values.front(), axis.values.back()});
      break;
    case Sweep::kGrid:
      for (const Axis& axis : kAxes) cross(axis, axis.values);
      break;
    case Sweep::kAlong:
      points.clear();
      for (const auto& [name, values] : row.along) {
        const auto axis = std::ranges::find(kAxes, name, &Axis::name);
        EXPECT_NE(axis, kAxes.end()) << "no scheduling axis " << name;
        if (axis == kAxes.end()) continue;
        for (const std::size_t v : values) points.push_back({{&*axis, v}});
      }
      break;
  }
  return points;
}

std::string cell_label(const Fixture& f, const Cell& cell) {
  std::string label = std::string(f.name) + " seed=" + std::to_string(cell.seed);
  for (const auto& [axis, value] : cell.knobs) {
    label += std::string(" ") + axis->name + "=" + std::to_string(value);
  }
  const Variant& v = cell.variant;
  if (v.isa) label += std::string(" isa=") + nn::dense_isa_name(*v.isa);
  if (!v.obs) label += " obs=off";
  static const char* const kSplitNames[] = {"", "in-process", "disk", "checkpointer"};
  if (v.split != Split::kNone) {
    label += std::string(" split=") + kSplitNames[static_cast<int>(v.split)] + "/" +
             std::to_string(v.every);
  }
  return label;
}

struct Alert {
  std::uint64_t day = 0;
  std::string rule;
  double observed = 0.0;
  bool operator==(const Alert&) const = default;
};

/// Everything a cell is compared on, then what its health plane saw (not
/// compared; expect_seen checks it).
struct Outputs {
  sim::FleetAccumulator acc;
  testing_util::ArchiveBytes archive;  ///< materialized: the store is removed
  bool obs = false;
  std::vector<obs::TimelineRecord> days;  ///< day records, every leg in order
  std::vector<Alert> alerts;
  std::uint64_t session_steps = 0;
  std::uint64_t pool_queries = 0;
  std::uint64_t pool_flushes = 0;
  std::uint64_t optimization_rounds = 0;
  std::uint64_t trace_events = 0;
};

/// Ceilings on the deterministic session total at every power of two from
/// 16 to 4096: each fires on the day the running total first crosses it, so
/// the alert days trace the calendar.
std::vector<obs::SloRule> session_ceilings() {
  std::vector<obs::SloRule> rules;
  for (double ceiling = 16; ceiling <= 4096; ceiling *= 2) {
    rules.push_back({obs::SloKind::kGaugeCeiling, "sim.fleet.sessions_total", ceiling,
                     "sessions>" + std::to_string(static_cast<int>(ceiling))});
  }
  return rules;
}

/// The full health plane of one leg (one process): registry, tracer,
/// per-day timeline and SLO monitor (session_ceilings()), installed until
/// collect().
class HealthPlane {
 public:
  explicit HealthPlane(std::string path)
      : path_(std::move(path)), timeline_(path_), monitor_(session_ceilings()) {
    install(true);
  }
  ~HealthPlane() { install(false); }

  void collect(Outputs& out, const std::string& label) {
    install(false);
    EXPECT_TRUE(timeline_.close().ok()) << label;
    auto reader = obs::TimelineReader::open(path_);
    ASSERT_TRUE(static_cast<bool>(reader)) << label << ": " << reader.error().message;
    auto records = reader->read_all();
    ASSERT_TRUE(static_cast<bool>(records)) << label << ": " << records.error().message;
    for (obs::TimelineRecord& r : *records) {
      if (r.type == obs::TimelineRecord::Type::kDay) out.days.push_back(std::move(r));
    }
    // A leg's monitor starts cold and re-raises a violation still standing
    // from an earlier leg: the compared alert is each rule's first.
    for (const obs::HealthAlert& a : monitor_.alerts()) {
      const auto seen = std::find_if(out.alerts.begin(), out.alerts.end(),
                                     [&a](const Alert& b) { return b.rule == a.rule; });
      if (seen == out.alerts.end()) out.alerts.push_back({a.day, a.rule, a.observed});
    }
    const obs::RegistrySnapshot snap = registry_.snapshot();
    if (const obs::MetricSnapshot* steps = snap.find("sim.session.step_us")) {
      out.session_steps += steps->count;
    }
    out.pool_queries += registry_.counter("predictor.pool.queries");
    out.pool_flushes += registry_.counter("predictor.pool.flushes");
    out.optimization_rounds += registry_.counter("core.optimization.rounds");
    out.trace_events += tracer_.retained_events() + tracer_.dropped_events();
    std::filesystem::remove(path_);
  }

 private:
  void install(bool on) {
    obs::Registry::install(on ? &registry_ : nullptr);
    obs::Tracer::install(on ? &tracer_ : nullptr);
    obs::TimelineWriter::install(on ? &timeline_ : nullptr);
    obs::HealthMonitor::install(on ? &monitor_ : nullptr);
  }

  std::string path_;
  obs::Registry registry_;
  obs::Tracer tracer_{1024};  // spans kept per thread; the rest are counted
  obs::TimelineWriter timeline_;
  obs::HealthMonitor monitor_;
};

/// One leg's runner (snapshot::resume gives a resumed leg the saved net).
std::unique_ptr<sim::FleetRunner> make_runner(const sim::FleetConfig& cfg) {
  auto runner = std::make_unique<sim::FleetRunner>(
      cfg, [] { return std::make_unique<abr::Hyb>(); });
  if (cfg.enable_lingxi) {
    runner->set_predictor_factory([] {
      // Drawn once: every worker's predictor starts from a copy.
      static Rng net_rng(4242);
      static const predictor::StallExitNet initial(net_rng);
      return predictor::HybridExitPredictor(
          std::make_shared<predictor::StallExitNet>(initial),
          std::make_shared<predictor::OverallStatsModel>());
    });
  }
  return runner;
}

/// Every compared output of `got` equals `want`'s. Timeline and alerts are
/// compared when both cells ran the health plane.
void expect_same(const Outputs& want, const Outputs& got, const std::string& label) {
  EXPECT_EQ(got.acc.checksum(), want.acc.checksum()) << label;
  // Every raw field too, in case of an unlikely CRC collision.
  const auto fields = [](const sim::FleetAccumulator& a) {
    return std::make_tuple(a.sessions, a.completed, a.measured_sessions, a.measured_completed,
                           a.stall_events, a.stall_exits, a.quality_switches, a.users,
                           a.watch_ticks, a.stall_ticks, a.startup_ticks, a.bitrate_time_ticks,
                           a.lingxi_triggers, a.lingxi_optimizations, a.lingxi_pruned_preplay,
                           a.lingxi_mc_evaluations, a.lingxi_mc_rollouts_pruned,
                           a.adjusted_user_days, a.overflowed);
  };
  EXPECT_TRUE(fields(got.acc) == fields(want.acc)) << label;

  EXPECT_TRUE(got.archive.manifest.encode() == want.archive.manifest.encode()) << label;
  ASSERT_EQ(got.archive.shards.size(), want.archive.shards.size()) << label;
  for (std::size_t s = 0; s < want.archive.shards.size(); ++s) {
    EXPECT_TRUE(got.archive.shards[s] == want.archive.shards[s]) << label << " shard " << s;
  }

  if (!want.obs || !got.obs) return;
  ASSERT_EQ(got.days.size(), want.days.size()) << label;
  for (std::size_t d = 0; d < want.days.size(); ++d) {
    EXPECT_EQ(got.days[d].day, want.days[d].day) << label;
    EXPECT_TRUE(got.days[d].deterministic_bytes == want.days[d].deterministic_bytes)
        << label << " day " << want.days[d].day;
  }
  EXPECT_TRUE(got.alerts == want.alerts) << label << " alerts";
}

/// A checkpointer boundary: commit, then check the capture's memory bound.
/// The commit moves every buffered byte into the log, so afterwards no tail
/// holds a byte and each user's logged length is what it had captured; the
/// capture thus buffers only what it recorded since the last commit.
void commit_and_expect_drained(snapshot::AutoCheckpointer& checkpointer,
                               const telemetry::ShardedCapture& capture,
                               const sim::FleetDayState& boundary, const std::string& label) {
  std::vector<std::uint64_t> captured;
  for (const auto& cursor : capture.cursors()) captured.push_back(cursor.byte_count());
  checkpointer.on_boundary(boundary);
  std::vector<std::uint64_t> listed(captured.size(), 0);
  for (const telemetry::CaptureSegment& seg : capture.log().segments) {
    for (std::size_t i = 0; i < seg.user_bytes.size(); ++i) {
      listed[seg.first_user + i] += seg.user_bytes[i];
    }
  }
  for (std::size_t u = 0; u < captured.size(); ++u) {
    const auto& cursor = capture.cursors()[u];
    EXPECT_TRUE(cursor.tail.empty()) << label << " user " << u;
    EXPECT_EQ(cursor.logged, captured[u]) << label << " user " << u;
  }
  EXPECT_TRUE(listed == captured) << label << ": the log lists other bytes than were captured";
}

/// Run `fixture` in `cell`, capture attached and, when the cell has obs on,
/// the health plane installed. A checkpointer cell then resumes a fresh
/// process from every checkpoint it committed and expects the resumed run
/// to reproduce its own.
Outputs run_cell(const Fixture& fixture, const Cell& cell) {
  const std::string label = cell_label(fixture, cell);
  sim::FleetConfig cfg = fixture.cfg;
  for (const auto& [axis, value] : cell.knobs) cfg.*(axis->knob) = value;
  const Variant& v = cell.variant;
  const std::uint64_t seed = cell.seed;
  // The cell's dense ISA (clamped to what the host supports) is
  // process-global: set here, restored on the way out.
  const nn::DenseIsa isa_before = nn::dense_isa();
  if (v.isa) nn::set_dense_isa_for_testing(*v.isa);
  // Snapshots and checkpoints go to a fresh directory; timelines beside it.
  static int cells_run = 0;
  const std::string dir =
      ::testing::TempDir() + "/lingxi_parity_" + std::to_string(cells_run++);
  const bool on_disk = v.split == Split::kDisk || v.split == Split::kCheckpointer;
  if (on_disk) std::filesystem::remove_all(dir);

  std::unique_ptr<sim::FleetRunner> runner;
  std::unique_ptr<telemetry::ShardedCapture> capture;
  std::optional<HealthPlane> plane;
  sim::FleetDayState state;
  snapshot::FleetSnapshot loaded;  // the snapshot the next process resumes from
  // A new process from day `first`: fresh runner, capture and health plane,
  // resumed from `loaded` past day 0.
  const auto start = [&](std::size_t first) {
    plane.reset();
    if (v.obs) plane.emplace(dir + "-timeline-" + std::to_string(first));
    runner = make_runner(cfg);
    capture = std::make_unique<telemetry::ShardedCapture>(telemetry::ShardedCapture::Config{4});
    if (first == 0) {
      runner->set_telemetry_sink(capture.get());
      return;
    }
    const Status resumed = snapshot::resume(loaded, seed, *runner, capture.get());
    EXPECT_TRUE(resumed.ok()) << label << ": " << resumed.error().message;
    state = std::move(loaded.state);
  };
  // Loads the snapshot a process resuming at `day` starts from.
  const auto load = [&](const std::string& snap_dir, std::size_t day) {
    auto read = snapshot::load_snapshot(snap_dir);
    if (!read) {
      ADD_FAILURE() << label << ": " << read.error().message;
      return false;
    }
    EXPECT_EQ(read->state.next_day, day) << label;
    loaded = std::move(*read);
    return true;
  };

  Outputs out;
  out.obs = v.obs;
  std::optional<snapshot::AutoCheckpointer> checkpointer;
  const bool legs = v.split == Split::kInProcess || v.split == Split::kDisk;
  const std::size_t leg_days = legs ? v.every : cfg.days;
  for (std::size_t first = 0; first < cfg.days; first += leg_days) {
    const std::size_t last = std::min(first + leg_days, cfg.days);
    if (runner == nullptr || v.split == Split::kDisk) {
      if (plane) plane->collect(out, label);
      start(first);
      if (v.split == Split::kCheckpointer) {
        // Every checkpoint is kept, so each boundary can be resumed below.
        checkpointer.emplace(*runner, seed,
                             snapshot::CheckpointPolicy{dir + "/checkpoints", v.every, cfg.days, 4},
                             capture.get());
        runner->set_checkpoint_hook(
            [&](const sim::FleetDayState& boundary) {
              commit_and_expect_drained(*checkpointer, *capture, boundary,
                                        label + " commit at day " +
                                            std::to_string(boundary.next_day));
            },
            v.every);
      }
    }
    sim::FleetDayState next;
    out.acc = runner->run_days(seed, first, last, first > 0 ? &state : nullptr,
                               last < cfg.days ? &next : nullptr);
    if (last == cfg.days) break;
    EXPECT_EQ(next.next_day, last) << label;
    if (v.split == Split::kDisk) {
      const std::string snap_dir = dir + "/day-" + std::to_string(last);
      const Status saved = snapshot::save_snapshot(snapshot::run_constants(*runner, seed), next,
                                                   snap_dir, 3, capture.get());
      EXPECT_TRUE(saved.ok()) << label << ": " << saved.error().message;
      if (!load(snap_dir, last)) break;
    } else {
      state = std::move(next);
    }
  }
  if (plane) plane->collect(out, label);
  out.archive = testing_util::materialize(capture->finish());

  std::vector<std::string> checkpoints;
  if (checkpointer) {
    EXPECT_TRUE(checkpointer->status().ok()) << label;
    checkpoints = checkpointer->committed_dirs();
    EXPECT_EQ(checkpoints.size(), (cfg.days - 1) / v.every) << label;
    checkpointer.reset();
  }
  for (std::size_t i = 0; i < checkpoints.size(); ++i) {
    const std::size_t boundary = (i + 1) * v.every;
    const std::string resumed_label = label + " resumed at day " + std::to_string(boundary);
    if (!load(checkpoints[i], boundary)) continue;
    // The run's records up to the boundary, then the resumed process's.
    Outputs resumed;
    resumed.obs = v.obs;
    const auto before = [boundary](const auto& r) { return r.day <= boundary; };
    std::ranges::copy_if(out.days, std::back_inserter(resumed.days), before);
    std::ranges::copy_if(out.alerts, std::back_inserter(resumed.alerts), before);
    start(boundary);
    resumed.acc = runner->run_days(seed, boundary, cfg.days, &state);
    if (plane) plane->collect(resumed, resumed_label);
    resumed.archive = testing_util::materialize(capture->finish());
    expect_same(out, resumed, resumed_label);
  }
  if (on_disk) std::filesystem::remove_all(dir);
  nn::set_dense_isa_for_testing(isa_before);
  return out;
}

/// The health plane saw the run: every session stepped and, on LingXi
/// fleets, spans traced, exit-net queries pooled into flushes and optimizer
/// rounds run.
void expect_seen(const Fixture& f, const Outputs& out, const std::string& label) {
  if (!out.obs) return;
  EXPECT_EQ(out.session_steps, out.acc.sessions) << label;
  if (!f.cfg.enable_lingxi) return;
  EXPECT_GT(out.trace_events, 0u) << label;
  EXPECT_GT(out.pool_flushes, 0u) << label;
  EXPECT_GE(out.pool_queries, out.pool_flushes) << label;
  EXPECT_GT(out.optimization_rounds, 0u) << label;
}

/// A fixture's reference cell at `seed`, computed once, and checked for
/// what makes its rows non-vacuous.
const Outputs& reference(const Fixture& f, std::uint64_t seed = kSeed) {
  static std::map<std::pair<const Fixture*, std::uint64_t>, Outputs> cache;
  const auto key = std::make_pair(&f, seed);
  if (const auto it = cache.find(key); it != cache.end()) return it->second;
  const Cell cell{{}, {}, seed};
  const std::string label = cell_label(f, cell);
  const Outputs& ref = cache[key] = run_cell(f, cell);
  EXPECT_TRUE(f.witness(ref.acc)) << label << ": " << f.witness_text;
  EXPECT_GT(ref.archive.total_bytes(), 0u) << label;
  EXPECT_EQ(ref.days.size(), f.cfg.days) << label;
  EXPECT_TRUE(std::ranges::any_of(ref.alerts, [](const Alert& a) { return a.day > 1; }))
      << label << ": no alert after day 1";
  expect_seen(f, ref, label);
  return ref;
}

void check_row(const Row& row) {
  for (const std::uint64_t seed : row.seeds) {
    const Outputs& ref = reference(*row.fixture, seed);
    for (const auto& knobs : sweep_knobs(row)) {
      for (const Variant& variant : row.variants) {
        const Cell cell{knobs, variant, seed};
        const std::string label = cell_label(*row.fixture, cell);
        const Outputs got = run_cell(*row.fixture, cell);
        expect_seen(*row.fixture, got, label);
        expect_same(ref, got, label);
      }
    }
  }
}

void check_rows(const Fixture& fixture) {
  for (const Row& row : kRows) {
    if (row.fixture == &fixture) check_row(row);
  }
}

TEST(FleetParity, Lingxi2d) { check_rows(kLingxi2d); }
TEST(FleetParity, Lingxi4d) { check_rows(kLingxi4d); }
TEST(FleetParity, Scenario4d) { check_rows(kScenario4d); }
TEST(FleetParity, Scenario6d) { check_rows(kScenario6d); }
TEST(FleetParity, Small) { check_rows(kSmall); }

// The other half of the scenario contract: scripts that must not, or must,
// change the run.

/// kLingxi4d with `script`.
Fixture scripted(const scenario::ScenarioScript& script) {
  Fixture f = kLingxi4d;
  f.cfg.scenario = script;
  return f;
}

TEST(ScenarioScript, EventScriptActuallyChangesTheRun) {
  // Extra user summaries from the churn departures, a different session
  // tally from the curve and the flash crowd's absence.
  const Outputs& event = reference(kScenario4d);
  const Outputs& plain = reference(kLingxi4d);
  EXPECT_EQ(event.acc.users, plain.acc.users + 2);
  EXPECT_NE(event.acc.sessions, plain.acc.sessions);
  EXPECT_NE(event.acc.checksum(), plain.acc.checksum());
}

TEST(ScenarioScript, EmptyScriptIsByteForByteTheUnscriptedRun) {
  // Full equality INCLUDING the archive manifest: the config digest skips
  // the scenario section when the script is empty, so existing archives and
  // snapshots keep their digests.
  expect_same(reference(kLingxi4d), run_cell(scripted({}), {}), "empty script");
}

TEST(ScenarioScript, NeutralScriptIsBitTransparent) {
  // A non-empty script whose events are all no-ops — scale-1 shock, all-ones
  // curve, day-0 flash crowd, default-config override — runs the scenario
  // code paths yet reproduces every output of the unscripted run but one:
  // a non-empty script is pinned into the manifest's config digest.
  scenario::ScenarioScript script;
  script.shocks.push_back({{0, 8, 1, 0}, 0, 4, 1.0, 1.0});
  script.curves.push_back({{0, 8, 1, 0}, {1.0}});
  script.flash_crowds.push_back({{0, 8, 1, 0}, 0});
  scenario::CohortOverride stock;  // default config == fleet population
  stock.cohort = {0, 8, 1, 0};
  script.cohorts.push_back(stock);
  ASSERT_FALSE(script.empty());

  Outputs neutral = run_cell(scripted(script), {});
  const Outputs& plain = reference(kLingxi4d);
  EXPECT_NE(neutral.archive.manifest.config_digest, plain.archive.manifest.config_digest);
  neutral.archive.manifest.config_digest = plain.archive.manifest.config_digest;
  expect_same(plain, neutral, "neutral script");
}

// ---------------------------------------------------------------------------
// Permutation invariance of batch assembly: the order in which queries are
// parked into an ExitQueryPool flush must not change any individual result —
// each row's forward is an independent, order-preserving accumulation.
// ---------------------------------------------------------------------------

TEST(PredictBatchAssembly, PermutationInvariantAndScalarExact) {
  Rng rng(31);
  auto net = std::make_shared<predictor::StallExitNet>(rng);
  auto os = std::make_shared<predictor::OverallStatsModel>();
  for (std::size_t i = 0; i < 300; ++i) {
    os->observe(i % 4, static_cast<predictor::SwitchType>(i % 3), rng.bernoulli(0.04));
  }
  const predictor::HybridExitPredictor predictor(net, os);

  // Distinct engagement states (varied stall histories) -> distinct queries.
  constexpr std::size_t kQueries = 13;
  std::vector<predictor::EngagementState> states;
  for (std::size_t s = 0; s < kQueries; ++s) {
    Rng hist_rng(900 + s);
    predictor::EngagementState state;
    state.begin_session();
    for (std::size_t i = 0; i < 24; ++i) {
      sim::SegmentRecord seg;
      seg.index = i;
      seg.level = i % 4;
      seg.bitrate = hist_rng.uniform(300.0, 4000.0);
      seg.throughput = hist_rng.uniform(500.0, 8000.0);
      seg.stall_time = hist_rng.bernoulli(0.35) ? hist_rng.uniform(0.1, 3.0) : 0.0;
      state.on_segment(seg, 1.0);
      if (seg.stall_time > 0.0 && hist_rng.bernoulli(0.3)) state.on_stall_exit();
    }
    states.push_back(std::move(state));
  }

  std::vector<predictor::HybridExitPredictor::ExitQuery> queries(kQueries);
  for (std::size_t i = 0; i < kQueries; ++i) {
    queries[i].state = &states[i];
    queries[i].level = i % 4;
    queries[i].stall_time = i % 4 == 0 ? 0.0 : 0.1 + 0.15 * static_cast<double>(i);
    queries[i].sw = static_cast<predictor::SwitchType>(i % 3);
  }

  std::vector<double> scalar(kQueries);
  for (std::size_t i = 0; i < kQueries; ++i) scalar[i] = predictor.predict(queries[i]);

  predictor::ExitQueryPool pool;
  const std::vector<double> in_order = testing_util::pooled_predict(predictor, queries, pool);

  // A fixed non-trivial permutation (reverse + interleave via stride 5,
  // coprime with 13).
  std::vector<std::size_t> perm;
  for (std::size_t i = 0; i < kQueries; ++i) perm.push_back((i * 5 + 3) % kQueries);
  std::vector<predictor::HybridExitPredictor::ExitQuery> shuffled;
  for (const std::size_t p : perm) shuffled.push_back(queries[p]);
  const std::vector<double> permuted = testing_util::pooled_predict(predictor, shuffled, pool);

  for (std::size_t i = 0; i < kQueries; ++i) {
    EXPECT_EQ(in_order[i], scalar[i]) << "in-order query " << i;
    EXPECT_EQ(permuted[i], scalar[perm[i]]) << "permuted slot " << i;
  }
}

}  // namespace
}  // namespace lingxi
