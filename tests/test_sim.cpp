// Unit tests for lingxi_sim: Eq. 3 player dynamics, session simulation,
// QoE_lin, Monte Carlo evaluation and pruning — including an independent
// Algorithm 2 reference the lockstep engine must match bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "abr/abr.h"
#include "abr/hyb.h"
#include "common/rng.h"
#include "inline_exit_evaluator.h"
#include "predictor/hybrid.h"
#include "sim/monte_carlo.h"
#include "sim/player_env.h"
#include "sim/session.h"
#include "trace/bandwidth.h"
#include "trace/video.h"

namespace lingxi::sim {
namespace {

PlayerConfig zero_rtt_config() {
  PlayerConfig c;
  c.rtt = 0.0;
  return c;
}

TEST(PlayerEnv, NoStallWhenBufferCoversDownload) {
  PlayerConfig cfg = zero_rtt_config();
  cfg.startup_buffer = 5.0;
  PlayerEnv env(cfg);
  // 1s segment at 1000 kbps over 2000 kbps link: download = 0.5s < 5s buffer.
  const auto r = env.step(units::segment_bytes(1000.0, 1.0), 1.0, 2000.0);
  EXPECT_DOUBLE_EQ(r.download_time, 0.5);
  EXPECT_DOUBLE_EQ(r.stall_time, 0.0);
  // B' = (5 - 0.5) + 1 = 5.5, under the 8s cap.
  EXPECT_DOUBLE_EQ(r.buffer_after, 5.5);
}

TEST(PlayerEnv, StallIsDownloadMinusBuffer) {
  PlayerConfig cfg = zero_rtt_config();
  cfg.startup_buffer = 0.5;
  PlayerEnv env(cfg);
  // download = 2s, buffer = 0.5 -> stall 1.5s.
  const auto r = env.step(units::segment_bytes(1000.0, 1.0), 1.0, 500.0);
  EXPECT_DOUBLE_EQ(r.download_time, 2.0);
  EXPECT_NEAR(r.stall_time, 1.5, 1e-12);
  // Buffer fully drained, then one fresh segment.
  EXPECT_DOUBLE_EQ(r.buffer_after, 1.0);
  EXPECT_DOUBLE_EQ(env.total_stall(), 1.5);
}

TEST(PlayerEnv, BufferCapEnforcedViaWait) {
  PlayerConfig cfg = zero_rtt_config();
  cfg.base_buffer_max = 4.0;
  cfg.startup_buffer = 4.0;
  PlayerEnv env(cfg);
  // Instant-ish download pushes B_tmp over the cap; wait absorbs the excess.
  const auto r = env.step(units::segment_bytes(350.0, 1.0), 1.0, 100000.0);
  EXPECT_NEAR(r.buffer_after, 4.0, 1e-9);
  EXPECT_GT(r.wait_time, 0.0);
}

TEST(PlayerEnv, RttAlwaysAddsWait) {
  PlayerConfig cfg;
  cfg.rtt = 0.08;
  cfg.startup_buffer = 2.0;
  PlayerEnv env(cfg);
  const auto r = env.step(units::segment_bytes(350.0, 1.0), 1.0, 5000.0);
  EXPECT_GE(r.wait_time, 0.08);
}

TEST(PlayerEnv, WallClockAccumulates) {
  PlayerConfig cfg = zero_rtt_config();
  PlayerEnv env(cfg);
  const auto r1 = env.step(units::segment_bytes(1000.0, 1.0), 1.0, 1000.0);
  const auto r2 = env.step(units::segment_bytes(1000.0, 1.0), 1.0, 1000.0);
  EXPECT_NEAR(env.wall_clock(), r1.download_time + r1.wait_time + r2.download_time +
                                    r2.wait_time, 1e-12);
}

TEST(PlayerEnv, BufferNeverNegative) {
  PlayerConfig cfg = zero_rtt_config();
  PlayerEnv env(cfg);
  Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    const double bw = rng.uniform(100.0, 8000.0);
    env.step(units::segment_bytes(4300.0, 1.0), 1.0, bw);
    EXPECT_GE(env.buffer(), 0.0);
  }
}

TEST(AdaptiveBufferMax, DecreasesWithBandwidth) {
  PlayerConfig cfg;
  const Seconds low = adaptive_buffer_max(cfg, 500.0, 100.0);
  const Seconds mid = adaptive_buffer_max(cfg, 4300.0, 0.0);
  const Seconds high = adaptive_buffer_max(cfg, 50000.0, 100.0);
  EXPECT_GT(low, mid);
  EXPECT_GE(mid, high);
  EXPECT_NEAR(mid, cfg.base_buffer_max, 1e-9);
}

TEST(AdaptiveBufferMax, Clamped) {
  PlayerConfig cfg;
  EXPECT_DOUBLE_EQ(adaptive_buffer_max(cfg, 1.0, 0.0), cfg.max_buffer_max);
  EXPECT_DOUBLE_EQ(adaptive_buffer_max(cfg, 1e9, 0.0), cfg.min_buffer_max);
}

TEST(AdaptiveBufferMax, VarianceIncreasesCap) {
  PlayerConfig cfg;
  EXPECT_GT(adaptive_buffer_max(cfg, 5000.0, 3000.0), adaptive_buffer_max(cfg, 5000.0, 0.0));
}

// -- session simulation -------------------------------------------------

/// Always selects a fixed level.
class FixedSelector final : public BitrateSelector {
 public:
  explicit FixedSelector(std::size_t level) : level_(level) {}
  std::size_t select(const AbrObservation&) override { return level_; }

 private:
  std::size_t level_;
};

/// Exits deterministically at a given segment index.
class ExitAtSegment final : public ExitModel {
 public:
  explicit ExitAtSegment(std::size_t index) : index_(index) {}
  double exit_probability(const SegmentRecord& seg) override {
    return seg.index == index_ ? 1.0 : 0.0;
  }

 private:
  std::size_t index_;
};

TEST(Session, CompletesWithoutExitModel) {
  const trace::Video video(trace::BitrateLadder::default_ladder(), 20, 1.0);
  trace::ConstantBandwidth bw(5000.0);
  FixedSelector abr(0);
  SessionSimulator sim({});
  Rng rng(2);
  const auto result = sim.run(video, abr, bw, nullptr, rng);
  EXPECT_FALSE(result.exited);
  EXPECT_TRUE(result.completed());
  EXPECT_EQ(result.segments.size(), 20u);
  EXPECT_DOUBLE_EQ(result.watch_time, 20.0);
  EXPECT_DOUBLE_EQ(result.mean_bitrate, 350.0);
  EXPECT_EQ(result.quality_switches, 0u);
}

TEST(Session, ExitModelStopsPlayback) {
  const trace::Video video(trace::BitrateLadder::default_ladder(), 20, 1.0);
  trace::ConstantBandwidth bw(5000.0);
  FixedSelector abr(0);
  ExitAtSegment exits(4);
  SessionSimulator sim({});
  Rng rng(3);
  const auto result = sim.run(video, abr, bw, &exits, rng);
  EXPECT_TRUE(result.exited);
  EXPECT_EQ(result.segments.size(), 5u);  // segments 0..4 watched
  EXPECT_DOUBLE_EQ(result.watch_time, 5.0);
}

TEST(Session, CumulativeStallMonotone) {
  const trace::Video video(trace::BitrateLadder::default_ladder(), 30, 1.0);
  trace::ConstantBandwidth bw(300.0);  // below even the lowest rung -> stalls
  FixedSelector abr(0);
  SessionSimulator sim({});
  Rng rng(4);
  const auto result = sim.run(video, abr, bw, nullptr, rng);
  EXPECT_GT(result.total_stall, 0.0);
  for (std::size_t i = 1; i < result.segments.size(); ++i) {
    EXPECT_GE(result.segments[i].cumulative_stall,
              result.segments[i - 1].cumulative_stall);
    EXPECT_GE(result.segments[i].cumulative_stall_events,
              result.segments[i - 1].cumulative_stall_events);
  }
  const auto& last = result.segments.back();
  EXPECT_NEAR(last.cumulative_stall, result.total_stall, 1e-9);
}

TEST(Session, ThroughputHistoryWindowCapped) {
  // Selector that checks the observation invariants as it goes.
  class CheckingSelector final : public BitrateSelector {
   public:
    explicit CheckingSelector(std::size_t window) : window_(window) {}
    std::size_t select(const AbrObservation& obs) override {
      EXPECT_LE(obs.throughput_history.size(), window_);
      EXPECT_EQ(obs.throughput_history.size(), obs.download_time_history.size());
      return 0;
    }

   private:
    std::size_t window_;
  };

  SessionSimulator::Config cfg;
  cfg.throughput_window = 4;
  const trace::Video video(trace::BitrateLadder::default_ladder(), 15, 1.0);
  trace::ConstantBandwidth bw(2000.0);
  CheckingSelector abr(4);
  SessionSimulator sim(cfg);
  Rng rng(5);
  sim.run(video, abr, bw, nullptr, rng);
}

TEST(Session, SwitchCounting) {
  class Alternator final : public BitrateSelector {
   public:
    std::size_t select(const AbrObservation& obs) override { return obs.next_segment % 2; }
  };
  const trace::Video video(trace::BitrateLadder::default_ladder(), 10, 1.0);
  trace::ConstantBandwidth bw(10000.0);
  Alternator abr;
  SessionSimulator sim({});
  Rng rng(6);
  const auto result = sim.run(video, abr, bw, nullptr, rng);
  EXPECT_EQ(result.quality_switches, 9u);
}

TEST(QoeLin, HandComputed) {
  // Build a fake 3-segment session: levels 0,3,3; one 2s stall.
  SessionResult s;
  SegmentRecord a, b, c;
  a.level = 0;
  a.stall_time = 0.0;
  b.level = 3;
  b.stall_time = 2.0;
  c.level = 3;
  c.stall_time = 0.0;
  s.segments = {a, b, c};
  const auto ladder = trace::BitrateLadder::default_ladder();
  // quality = 0.35 + 4.3 + 4.3 = 8.95; stall = 2 * mu; switch = |4.3-0.35|.
  const double q = qoe_lin(s, ladder, trace::QualityMetric::kLinearMbps, 4.3, 1.0);
  EXPECT_NEAR(q, 8.95 - 4.3 * 2.0 - 3.95, 1e-9);
}

TEST(QoeLin, SwitchWeightScales) {
  SessionResult s;
  SegmentRecord a, b;
  a.level = 0;
  b.level = 3;
  s.segments = {a, b};
  const auto ladder = trace::BitrateLadder::default_ladder();
  const double q0 = qoe_lin(s, ladder, trace::QualityMetric::kLinearMbps, 1.0, 0.0);
  const double q2 = qoe_lin(s, ladder, trace::QualityMetric::kLinearMbps, 1.0, 2.0);
  EXPECT_NEAR(q0 - q2, 2.0 * 3.95, 1e-9);
}

// -- Monte Carlo ---------------------------------------------------------

/// Always selects a fixed level; clonable, as every rollout clones its ABR.
class FixedAbr final : public abr::AbrAlgorithm {
 public:
  explicit FixedAbr(std::size_t level) : level_(level) {}
  std::string name() const override { return "fixed"; }
  std::size_t select(const AbrObservation&) override { return level_; }
  std::unique_ptr<abr::AbrAlgorithm> clone() const override {
    return std::make_unique<FixedAbr>(*this);
  }

 private:
  std::size_t level_;
};

/// Constant exit probability.
class ConstantExit final : public ExitModel {
 public:
  explicit ConstantExit(double p) : p_(p) {}
  double exit_probability(const SegmentRecord&) override { return p_; }

 private:
  double p_;
};

testing_util::InlineExitEvaluator constant_exits(double p) {
  return testing_util::InlineExitEvaluator([p] { return std::make_unique<ConstantExit>(p); });
}

constexpr double kNoBound = std::numeric_limits<double>::infinity();

TEST(MonteCarlo, ZeroExitProbabilityGivesZeroRate) {
  MonteCarloConfig mc;
  mc.samples = 8;
  mc.sample_duration = 10.0;
  const MonteCarloEvaluator eval(mc, {});
  const auto ladder = trace::BitrateLadder::default_ladder();
  const trace::Video video = eval.make_virtual_video(ladder, 1.0);
  EXPECT_EQ(video.segment_count(), 10u);
  const FixedAbr abr(0);
  const trace::NormalBandwidth bw(5000.0, 500.0);
  Rng rng(7);
  const auto r =
      eval.evaluate_rollouts(video, abr, constant_exits(0.0), bw, 0.0, kNoBound, rng);
  EXPECT_DOUBLE_EQ(r.exit_rate, 0.0);
  EXPECT_EQ(r.exited_count, 0u);
  EXPECT_EQ(r.watched_count, 80u);
  EXPECT_FALSE(r.pruned);
}

TEST(MonteCarlo, CertainExitGivesOneExitPerSample) {
  MonteCarloConfig mc;
  mc.samples = 10;
  mc.sample_duration = 20.0;
  mc.enable_pruning = false;
  const MonteCarloEvaluator eval(mc, {});
  const auto ladder = trace::BitrateLadder::default_ladder();
  const trace::Video video = eval.make_virtual_video(ladder, 1.0);
  const FixedAbr abr(0);
  const trace::NormalBandwidth bw(5000.0, 0.0);
  Rng rng(8);
  const auto r =
      eval.evaluate_rollouts(video, abr, constant_exits(1.0), bw, 0.0, kNoBound, rng);
  EXPECT_EQ(r.exited_count, 10u);
  EXPECT_EQ(r.watched_count, 10u);  // every sample exits on its first segment
  EXPECT_DOUBLE_EQ(r.exit_rate, 1.0);
}

TEST(MonteCarlo, EstimatesModerateRate) {
  MonteCarloConfig mc;
  mc.samples = 200;
  mc.sample_duration = 30.0;
  mc.enable_pruning = false;
  const MonteCarloEvaluator eval(mc, {});
  const auto ladder = trace::BitrateLadder::default_ladder();
  const trace::Video video = eval.make_virtual_video(ladder, 1.0);
  const FixedAbr abr(0);
  const trace::NormalBandwidth bw(5000.0, 0.0);
  Rng rng(9);
  const auto r =
      eval.evaluate_rollouts(video, abr, constant_exits(0.1), bw, 0.0, kNoBound, rng);
  // Geometric watching: per-segment exit prob 0.1 -> exit rate ~0.1 per
  // watched segment (most samples exit before the horizon).
  EXPECT_NEAR(r.exit_rate, 0.1, 0.03);
}

TEST(MonteCarlo, PruningStopsEarlyAgainstBetterAlternative) {
  MonteCarloConfig mc;
  mc.samples = 100;
  mc.sample_duration = 10.0;
  mc.enable_pruning = true;
  mc.min_samples_before_prune = 5;
  const MonteCarloEvaluator eval(mc, {});
  const auto ladder = trace::BitrateLadder::default_ladder();
  const trace::Video video = eval.make_virtual_video(ladder, 1.0);
  const FixedAbr abr(0);
  const trace::NormalBandwidth bw(5000.0, 0.0);
  Rng rng(10);
  // Terrible candidate; the best known alternative has near-zero exit rate.
  const auto r =
      eval.evaluate_rollouts(video, abr, constant_exits(1.0), bw, 0.0, 0.001, rng);
  EXPECT_TRUE(r.pruned);
  EXPECT_LT(r.samples_run, 100u);
}

TEST(MonteCarlo, NoPruningWhenCandidateIsGood) {
  MonteCarloConfig mc;
  mc.samples = 30;
  mc.sample_duration = 10.0;
  const MonteCarloEvaluator eval(mc, {});
  const auto ladder = trace::BitrateLadder::default_ladder();
  const trace::Video video = eval.make_virtual_video(ladder, 1.0);
  const FixedAbr abr(0);
  const trace::NormalBandwidth bw(5000.0, 0.0);
  Rng rng(11);
  const auto r =
      eval.evaluate_rollouts(video, abr, constant_exits(0.0), bw, 0.0, 0.5, rng);
  EXPECT_FALSE(r.pruned);
  EXPECT_EQ(r.samples_run, 30u);
}

TEST(MonteCarlo, InitialBufferSeedsVirtualPlayer) {
  // With a huge initial buffer and slow bandwidth, the early segments must
  // not stall; with zero initial buffer they must.
  MonteCarloConfig mc;
  mc.samples = 1;
  mc.sample_duration = 5.0;
  SessionSimulator::Config sess;
  sess.adaptive_buffer_max = false;
  sess.player.base_buffer_max = 30.0;
  sess.player.max_buffer_max = 30.0;
  const MonteCarloEvaluator eval(mc, sess);
  const auto ladder = trace::BitrateLadder::default_ladder();
  const trace::Video video = eval.make_virtual_video(ladder, 1.0);

  class StallProbe final : public ExitModel {
   public:
    explicit StallProbe(double& total_stall) : total_stall_(total_stall) {}
    double exit_probability(const SegmentRecord& seg) override {
      total_stall_ += seg.stall_time;
      return 0.0;
    }

   private:
    double& total_stall_;
  };
  const auto total_stall = [&](Seconds initial_buffer) {
    double total = 0.0;
    const testing_util::InlineExitEvaluator probe(
        [&total] { return std::make_unique<StallProbe>(total); });
    const trace::ConstantBandwidth slow(200.0);
    const FixedAbr abr(0);
    Rng rng(12);
    eval.evaluate_rollouts(video, abr, probe, slow, initial_buffer, kNoBound, rng);
    return total;
  };
  EXPECT_LT(total_stall(20.0), total_stall(0.0));
}

// -- Algorithm 2 against an independent reference -------------------------

/// Algorithm 2 written out directly, independent of evaluate_rollouts: fork
/// `samples` streams upfront, play each rollout as one whole
/// SessionSimulator::run over clones of the ABR and bandwidth with its own
/// exit model, and stop at the optimistic prune bound.
MonteCarloResult reference_evaluate(const MonteCarloConfig& mc,
                                    SessionSimulator::Config session,
                                    const trace::Video& video, const abr::AbrAlgorithm& abr,
                                    const BatchExitEvaluator& exits,
                                    const trace::BandwidthModel& bandwidth,
                                    Seconds initial_buffer, double best_known, Rng& rng) {
  session.player.startup_buffer = initial_buffer;
  const SessionSimulator sim(session);
  std::vector<Rng> streams;
  for (std::size_t m = 0; m < mc.samples; ++m) streams.push_back(rng.fork());
  MonteCarloResult r;
  for (std::size_t m = 0; m < mc.samples && !r.pruned; ++m) {
    const auto rollout_abr = abr.clone();
    const auto bw = bandwidth.clone();
    const auto model = exits.make_model();
    const SessionResult played = sim.run(video, *rollout_abr, *bw, model.get(), streams[m]);
    r.watched_count += played.segments.size();
    if (played.exited) ++r.exited_count;
    ++r.samples_run;
    if (mc.enable_pruning && r.samples_run >= mc.min_samples_before_prune &&
        std::isfinite(best_known)) {
      const double optimistic_watched = static_cast<double>(
          r.watched_count + (mc.samples - r.samples_run) * video.segment_count());
      r.pruned = static_cast<double>(r.exited_count) / optimistic_watched > best_known;
    }
  }
  r.exit_rate = r.watched_count == 0 ? 0.0
                                     : static_cast<double>(r.exited_count) /
                                           static_cast<double>(r.watched_count);
  return r;
}

/// A stall-heavy rollout world on the real hybrid predictor, so stalled exit
/// queries park and batch > 1 exercises the batched forward.
struct PredictorWorld {
  predictor::HybridExitPredictor predictor;
  predictor::EngagementState seed_state;
  abr::Hyb hyb;
  trace::NormalBandwidth bandwidth{650.0, 280.0};

  explicit PredictorWorld(std::uint64_t seed) : predictor(make_predictor(seed)) {
    seed_state.begin_session();
    for (int i = 0; i < 6; ++i) {
      SegmentRecord seg;
      seg.level = 1;
      seg.bitrate = 750.0;
      seg.throughput = 700.0;
      seg.stall_time = i % 2 == 0 ? 1.4 : 0.0;
      seed_state.on_segment(seg, 1.0);
    }
  }

  static predictor::HybridExitPredictor make_predictor(std::uint64_t seed) {
    Rng net_rng(seed);
    return {std::make_shared<predictor::StallExitNet>(net_rng),
            std::make_shared<predictor::OverallStatsModel>()};
  }
};

MonteCarloConfig world_mc(std::size_t batch, bool pruning) {
  MonteCarloConfig mc;
  mc.samples = 12;
  mc.sample_duration = 15.0;
  mc.enable_pruning = pruning;
  mc.min_samples_before_prune = 3;
  mc.batch_size = batch;
  return mc;
}

/// Exit hazard that differs per rollout and segment (it reads the stall and
/// the sampled throughput), so a probability delivered to the wrong rollout
/// changes the outcome.
class ThroughputHazard final : public ExitModel {
 public:
  double exit_probability(const SegmentRecord& seg) override {
    return std::min(0.9, 0.3 * seg.stall_time + 1e-4 * seg.throughput);
  }
};

/// Parks every stalled segment and evaluates the parked batch in flush(),
/// in park order — the protocol of the batched predictor, with a hazard that
/// makes any mix-up in the lockstep park bookkeeping visible.
class ParkingExitEvaluator final : public BatchExitEvaluator {
 public:
  std::unique_ptr<ExitModel> make_model() const override {
    return std::make_unique<ThroughputHazard>();
  }
  bool prepare(ExitModel& model, const SegmentRecord& segment, double& out) const override {
    if (segment.stall_time <= 0.0) {
      out = model.exit_probability(segment);
      return true;
    }
    parked_.push_back({&model, segment});
    return false;
  }
  std::size_t flush(double* out) const override {
    for (std::size_t i = 0; i < parked_.size(); ++i) {
      out[i] = parked_[i].model->exit_probability(parked_[i].segment);
    }
    const std::size_t count = parked_.size();
    parked_.clear();
    return count;
  }
  void discard_parked() const override { parked_.clear(); }

 private:
  struct Parked {
    ExitModel* model;
    SegmentRecord segment;
  };
  mutable std::vector<Parked> parked_;
};

TEST(MonteCarlo, WaveMatchesIndependentReference) {
  bool any_pruned = false;
  std::size_t exits_seen = 0;
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const PredictorWorld world(seed);
    predictor::ExitFlushScratch scratch;
    const predictor::BatchPredictorExitEvaluator predictor_exits(world.predictor,
                                                                 world.seed_state, 1.0, scratch);
    const ParkingExitEvaluator parking_exits;
    for (const BatchExitEvaluator* exits :
         {static_cast<const BatchExitEvaluator*>(&predictor_exits),
          static_cast<const BatchExitEvaluator*>(&parking_exits)}) {
      const MonteCarloEvaluator probe(world_mc(1, false), {});
      const trace::Video video =
          probe.make_virtual_video(trace::BitrateLadder::default_ladder(), 1.0);
      // Tight bound: half the unpruned estimate of the same rollouts.
      Rng probe_rng(seed * 97);
      const double unpruned =
          reference_evaluate(world_mc(1, false), {}, video, world.hyb, *exits,
                             world.bandwidth, 1.0, kNoBound, probe_rng)
              .exit_rate;
      for (const bool pruning : {false, true}) {
        const double bound = pruning ? 0.5 * unpruned : kNoBound;
        for (const std::size_t batch : {1u, 3u, 16u}) {
          const MonteCarloConfig mc = world_mc(batch, pruning);
          Rng ref_rng(seed * 97);
          const MonteCarloResult want = reference_evaluate(
              mc, {}, video, world.hyb, *exits, world.bandwidth, 1.0, bound, ref_rng);
          Rng wave_rng(seed * 97);
          const MonteCarloResult got = MonteCarloEvaluator(mc, {}).evaluate_rollouts(
              video, world.hyb, *exits, world.bandwidth, 1.0, bound, wave_rng);
          const std::string cell = "seed=" + std::to_string(seed) +
                                   " parking=" + std::to_string(exits == &parking_exits) +
                                   " pruning=" + std::to_string(pruning) +
                                   " batch=" + std::to_string(batch);
          EXPECT_EQ(got.exit_rate, want.exit_rate) << cell;
          EXPECT_EQ(got.exited_count, want.exited_count) << cell;
          EXPECT_EQ(got.watched_count, want.watched_count) << cell;
          EXPECT_EQ(got.samples_run, want.samples_run) << cell;
          EXPECT_EQ(got.pruned, want.pruned) << cell;
          EXPECT_TRUE(wave_rng.state() == ref_rng.state()) << cell;
          any_pruned = any_pruned || got.pruned;
          exits_seen += got.exited_count;
        }
      }
    }
  }
  // Not vacuous: rollouts exited, and the tight bound pruned some cells.
  EXPECT_GT(exits_seen, 0u);
  EXPECT_TRUE(any_pruned);
}

// -- MonteCarloResult invariants ------------------------------------------

TEST(MonteCarlo, ResultInvariantsHoldAcrossSeedsBatchesAndPruning) {
  std::size_t early_prunes = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const PredictorWorld world(seed);
    predictor::ExitFlushScratch scratch;
    const predictor::BatchPredictorExitEvaluator exits(world.predictor, world.seed_state, 1.0,
                                                       scratch);
    for (const bool pruning : {false, true}) {
      for (const std::size_t batch : {1u, 3u, 16u}) {
        const MonteCarloConfig mc = world_mc(batch, pruning);
        const MonteCarloEvaluator eval(mc, {});
        const trace::Video video =
            eval.make_virtual_video(trace::BitrateLadder::default_ladder(), 1.0);
        Rng rng(seed);
        // A bound from a spread of tight to loose, so both outcomes occur.
        const double bound = pruning ? 0.02 * static_cast<double>(seed) : kNoBound;
        const MonteCarloResult r = eval.evaluate_rollouts(video, world.hyb, exits,
                                                          world.bandwidth, 1.0, bound, rng);
        const std::string cell = "seed=" + std::to_string(seed) +
                                 " pruning=" + std::to_string(pruning) +
                                 " batch=" + std::to_string(batch);
        EXPECT_LE(r.exited_count, r.samples_run) << cell;
        EXPECT_LE(r.samples_run, mc.samples) << cell;
        EXPECT_LE(r.exited_count, r.watched_count) << cell;
        EXPECT_LE(r.watched_count, r.samples_run * video.segment_count()) << cell;
        EXPECT_GE(r.exit_rate, 0.0) << cell;
        EXPECT_LE(r.exit_rate, 1.0) << cell;
        if (r.pruned) {
          EXPECT_TRUE(pruning) << cell;
          EXPECT_LE(mc.min_samples_before_prune, r.samples_run) << cell;
          EXPECT_LE(r.samples_run, mc.samples) << cell;
          // The bound is also checked after the final rollout, where it is
          // the exact estimate: a prune there means the candidate lost.
          if (r.samples_run == mc.samples) {
            EXPECT_GT(r.exit_rate, bound) << cell;
          } else {
            ++early_prunes;
          }
        } else {
          EXPECT_EQ(r.samples_run, mc.samples) << cell;
        }
      }
    }
  }
  EXPECT_GT(early_prunes, 0u);
}

}  // namespace
}  // namespace lingxi::sim
