// Microbenchmarks (google-benchmark): per-operation costs behind the §6
// overhead discussion — "LingXi's overhead is primarily determined by
// personalized predictor invocations, which typically consume hundreds of
// times more computational resources than conventional ABR decisions."
#include <benchmark/benchmark.h>

#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "abr/hyb.h"
#include "abr/pensieve.h"
#include "abr/robust_mpc.h"
#include "bayesopt/gp.h"
#include "bayesopt/obo.h"
#include "bench_util.h"
#include "common/crc32.h"
#include "common/rng.h"
#include "nn/dense.h"
#include "predictor/exit_net.h"
#include "predictor/hybrid.h"
#include "sim/monte_carlo.h"
#include "snapshot/snapshot.h"
#include "trace/bandwidth.h"
#include "trace/video.h"

using namespace lingxi;

namespace {

sim::AbrObservation make_observation(const trace::Video& video) {
  sim::AbrObservation obs;
  obs.video = &video;
  obs.buffer = 4.0;
  obs.buffer_max = 8.0;
  obs.next_segment = 5;
  obs.first_segment = false;
  obs.last_level = 1;
  obs.throughput_history = {1200.0, 1500.0, 900.0, 1100.0, 1300.0};
  obs.download_time_history = {0.5, 0.4, 0.7, 0.6, 0.5};
  return obs;
}

void BM_HybDecision(benchmark::State& state) {
  const trace::Video video(trace::BitrateLadder::default_ladder(), 60, 1.0);
  auto obs = make_observation(video);
  abr::Hyb hyb;
  for (auto _ : state) benchmark::DoNotOptimize(hyb.select(obs));
}
BENCHMARK(BM_HybDecision);

void BM_RobustMpcDecision(benchmark::State& state) {
  const trace::Video video(trace::BitrateLadder::default_ladder(), 60, 1.0);
  auto obs = make_observation(video);
  abr::RobustMpc::Config cfg;
  cfg.horizon = static_cast<std::size_t>(state.range(0));
  abr::RobustMpc mpc(cfg);
  for (auto _ : state) benchmark::DoNotOptimize(mpc.select(obs));
}
BENCHMARK(BM_RobustMpcDecision)->Arg(3)->Arg(5);

void BM_PensieveDecision(benchmark::State& state) {
  const trace::Video video(trace::BitrateLadder::default_ladder(), 60, 1.0);
  auto obs = make_observation(video);
  Rng rng(1);
  abr::Pensieve policy(4, rng);
  for (auto _ : state) benchmark::DoNotOptimize(policy.select(obs));
}
BENCHMARK(BM_PensieveDecision);

// Dense::forward_batch at the stall-exit net's fc1 shape (64 x 1600, the
// layer whose weight traffic dominates batched inference). rows/s is the
// figure of merit: the kernel runs one row at a time and streams every kept
// weight once per row, so it should read flat across row counts.
void BM_DenseForwardBatch(benchmark::State& state) {
  const auto rows = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kIn = 1600, kOut = 64;
  Rng rng(6);
  nn::Dense layer(kIn, kOut, rng);
  std::vector<double> in(rows * kIn);
  std::vector<double> out(rows * kOut);
  for (double& x : in) x = rng.uniform(0.0, 1.0);
  for (auto _ : state) {
    layer.forward_batch({in.data(), rows, kIn}, {out.data(), rows, kOut});
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rows));
  state.counters["rows/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(rows),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_DenseForwardBatch)->Arg(1)->Arg(4)->Arg(8)->Arg(64)->Arg(512);

// The same fc1 shape under each dispatchable ISA (args: isa, rows, zero %):
// 0 = baseline (16-byte vectors), 1 = avx2. The zero share is of whole input
// columns, zero in every row: the kind the branch ReLUs produce (about 40% of
// fc1's inputs in a flush). Zero inputs are skipped per row, not per
// block of rows. Both builds are bitwise identical (lanes across outputs).
void BM_DenseForwardBatchIsa(benchmark::State& state) {
  const auto requested = static_cast<nn::DenseIsa>(state.range(0));
  const auto rows = static_cast<std::size_t>(state.range(1));
  const double zero_fraction = static_cast<double>(state.range(2)) / 100.0;
  if (!nn::dense_isa_supported(requested)) {
    state.SkipWithError("isa not supported on this cpu");
    return;
  }
  const nn::DenseIsa before = nn::dense_isa();
  nn::set_dense_isa_for_testing(requested);
  state.SetLabel(nn::dense_isa_name(requested));
  constexpr std::size_t kIn = 1600, kOut = 64;
  Rng rng(6);
  nn::Dense layer(kIn, kOut, rng);
  std::vector<double> in(rows * kIn);
  std::vector<double> out(rows * kOut);
  for (double& x : in) x = rng.uniform(0.0, 1.0);
  for (std::size_t c = 0; c < kIn; ++c) {
    if (!rng.bernoulli(zero_fraction)) continue;
    for (std::size_t r = 0; r < rows; ++r) in[r * kIn + c] = 0.0;
  }
  for (auto _ : state) {
    layer.forward_batch({in.data(), rows, kIn}, {out.data(), rows, kOut});
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  nn::set_dense_isa_for_testing(before);
  state.counters["rows/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(rows),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_DenseForwardBatchIsa)
    ->ArgsProduct({{0, 1}, {1, 8, 64}, {0, 50}});

// StallExitNet::predict_batch, the forward of one exit-query flush (arg:
// rows; a lowbw fleet averages about 4 rows per flush). Features are
// uniform in [0, 1] with short histories zero-padded on the left, as
// EngagementState::write_features emits them, so the branch ReLUs leave the
// realistic share of zero columns for fc1.
void BM_PredictBatch(benchmark::State& state) {
  const auto rows = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kFeat = predictor::kChannels * predictor::kHistoryLen;
  Rng rng(3);
  predictor::StallExitNet net(rng);
  std::vector<double> features(rows * kFeat);
  for (std::size_t r = 0; r < rows; ++r) {
    const std::size_t history = 1 + r % predictor::kHistoryLen;
    for (std::size_t c = 0; c < predictor::kChannels; ++c) {
      for (std::size_t i = 0; i < predictor::kHistoryLen; ++i) {
        features[r * kFeat + c * predictor::kHistoryLen + i] =
            i + history < predictor::kHistoryLen ? 0.0 : rng.uniform(0.0, 1.0);
      }
    }
  }
  std::vector<double> out(rows);
  predictor::StallExitNet::BatchWorkspace ws;
  for (auto _ : state) {
    net.predict_batch({features.data(), rows, kFeat}, out.data(), &ws);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.counters["rows/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(rows),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_PredictBatch)->Arg(1)->Arg(2)->Arg(5)->Arg(10)->Arg(16)->Arg(64);

void BM_ExitNetInference(benchmark::State& state) {
  Rng rng(2);
  predictor::StallExitNet net(rng);
  nn::Tensor f({predictor::kChannels, predictor::kHistoryLen});
  f.fill(0.4);
  for (auto _ : state) benchmark::DoNotOptimize(net.predict(f));
}
BENCHMARK(BM_ExitNetInference);

// One candidate evaluation (Algorithm 2), as the fleet runs it (args:
// samples, lockstep batch). Batch 1 runs one rollout at a time — every
// stalled exit query pays a 1-row forward; batch 16 gathers a lockstep
// step's stalled queries into one net forward. Results are bitwise
// identical across batch sizes, so the gap is pure inference amortization.
void BM_MonteCarloEvaluation(benchmark::State& state) {
  Rng rng(3);
  const predictor::HybridExitPredictor predictor(
      std::make_shared<predictor::StallExitNet>(rng),
      std::make_shared<predictor::OverallStatsModel>());
  predictor::EngagementState seed;
  predictor::ExitFlushScratch scratch;
  const predictor::BatchPredictorExitEvaluator exits(predictor, seed, 1.0, scratch);

  sim::MonteCarloConfig mc;
  mc.samples = static_cast<std::size_t>(state.range(0));
  mc.batch_size = static_cast<std::size_t>(state.range(1));
  mc.enable_pruning = false;
  const sim::MonteCarloEvaluator eval(mc, {});
  const auto video = eval.make_virtual_video(trace::BitrateLadder::default_ladder(), 1.0);
  const abr::Hyb hyb{};
  const trace::NormalBandwidth bw(1200.0, 300.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(eval.evaluate_rollouts(
        video, hyb, exits, bw, 2.0, std::numeric_limits<double>::infinity(), rng));
  }
  state.counters["rollouts/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(mc.samples),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_MonteCarloEvaluation)->ArgsProduct({{8, 32}, {1, 16}});

void BM_GpUpdateAndPredict(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(4);
  for (auto _ : state) {
    bayesopt::GaussianProcess gp;
    for (std::size_t i = 0; i < n; ++i) {
      gp.observe({rng.uniform(), rng.uniform()}, rng.uniform());
    }
    benchmark::DoNotOptimize(gp.predict({0.5, 0.5}));
  }
}
BENCHMARK(BM_GpUpdateAndPredict)->Arg(8)->Arg(32);

// Building an n-observation GP one observe() at a time: the incremental
// rank-1 Cholesky extension (production path, O(n^2) per observation) vs
// the forced full refactorization (O(n^3) per observation). Both produce
// identical factors bit for bit; the gap is the point of the fast path.
void BM_GpRefitIncremental(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(4);
  for (auto _ : state) {
    bayesopt::GaussianProcess gp;
    for (std::size_t i = 0; i < n; ++i) {
      gp.observe({rng.uniform(), rng.uniform()}, rng.uniform());
    }
    benchmark::DoNotOptimize(gp.factor().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_GpRefitIncremental)->Arg(4)->Arg(16)->Arg(64);

void BM_GpRefitFull(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(4);
  bayesopt::GaussianProcess::set_full_refit_for_testing(true);
  for (auto _ : state) {
    bayesopt::GaussianProcess gp;
    for (std::size_t i = 0; i < n; ++i) {
      gp.observe({rng.uniform(), rng.uniform()}, rng.uniform());
    }
    benchmark::DoNotOptimize(gp.factor().data());
  }
  bayesopt::GaussianProcess::set_full_refit_for_testing(false);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_GpRefitFull)->Arg(4)->Arg(16)->Arg(64);

// One acquisition sweep (OnlineBayesOpt::next_candidate) against an
// n-observation GP: 256 grid + 32 perturbation candidates through
// predict_batch (one k_star panel, shared triangular solves, zero hot-path
// allocations after the first sweep). candidates/s is the figure of merit.
void BM_AcquisitionBatch(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(9);
  bayesopt::OnlineBayesOpt obo(2);
  for (std::size_t i = 0; i < n; ++i) {
    obo.update({rng.uniform(), rng.uniform()}, rng.uniform());
  }
  const std::size_t candidates =
      bayesopt::OnlineBayesOpt::Config{}.candidate_grid +
      bayesopt::OnlineBayesOpt::Config{}.local_perturbations;
  for (auto _ : state) {
    benchmark::DoNotOptimize(obo.next_candidate(rng));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(candidates));
  state.counters["candidates/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(candidates),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_AcquisitionBatch)->Arg(8)->Arg(32);

void BM_PlayerEnvStep(benchmark::State& state) {
  sim::PlayerEnv env(sim::PlayerConfig{});
  for (auto _ : state) {
    benchmark::DoNotOptimize(env.step(100000.0, 1.0, 2000.0));
  }
}
BENCHMARK(BM_PlayerEnvStep);

// CRC-32 throughput against memcpy over the same buffer sizes: every
// persisted byte (capture, archive, checkpoint, recovery) passes through
// crc32_update, and memcpy is the bound a checksum pass can approach.
void BM_Crc32(benchmark::State& state) {
  const auto size = static_cast<std::size_t>(state.range(0));
  std::vector<unsigned char> bytes(size);
  Rng rng(5);
  for (auto& b : bytes) b = static_cast<unsigned char>(rng.next());
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32(bytes.data(), bytes.size()));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size));
}
BENCHMARK(BM_Crc32)->Arg(64)->Arg(4 << 10)->Arg(1 << 20);

void BM_Memcpy(benchmark::State& state) {
  const auto size = static_cast<std::size_t>(state.range(0));
  std::vector<unsigned char> src(size, 0x5a);
  std::vector<unsigned char> dst(size);
  for (auto _ : state) {
    std::memcpy(dst.data(), src.data(), size);
    benchmark::DoNotOptimize(dst.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size));
}
BENCHMARK(BM_Memcpy)->Arg(64)->Arg(4 << 10)->Arg(1 << 20);

// Snapshot save/load throughput (MB/s and users/s): serialization
// regressions in the checkpoint subsystem show up here before they show up
// as warm-start wall time. The synthetic per-user state carries a full
// engagement history + bandwidth window, the shape a stall-heavy LingXi
// fleet produces.
sim::UserFleetState synthetic_user_state(std::uint64_t seed) {
  Rng rng(seed);
  sim::UserFleetState user;
  for (int i = 0; i < 7; ++i) rng.next();
  user.session_rng = rng.state();
  user.params.hyb_beta = 0.4 + 0.5 * rng.uniform();
  user.adjusted_days = 3;
  user.has_lingxi = true;
  auto& lx = user.lingxi;
  for (std::size_t i = 0; i < predictor::kHistoryLen; ++i) {
    lx.engagement.long_term.stall_durations.push_back(rng.uniform(0.1, 3.0));
    lx.engagement.long_term.stall_intervals.push_back(rng.uniform(5.0, 200.0));
    lx.engagement.long_term.stall_exit_intervals.push_back(rng.uniform(60.0, 900.0));
  }
  lx.engagement.long_term.total_watch_time = 5400.0;
  lx.engagement.long_term.total_stall_events = 48;
  lx.engagement.long_term.total_stall_exits = 9;
  lx.engagement.last_stall_at = 5333.0;
  lx.engagement.last_stall_exit_at = 5100.0;
  for (int i = 0; i < 64; ++i) lx.bandwidth_window.push_back(rng.uniform(400.0, 6000.0));
  lx.stalls_since_optimization = 1;
  lx.has_optimized = true;
  lx.stats.triggers = 12;
  lx.stats.optimizations_run = 9;
  lx.stats.mc_evaluations = 36;
  return user;
}

sim::FleetDayState synthetic_day_state(std::size_t users) {
  sim::FleetDayState state;
  state.next_day = 2;
  state.users.reserve(users);
  for (std::size_t u = 0; u < users; ++u) {
    state.users.push_back(synthetic_user_state(100 + u));
  }
  state.accumulated.sessions = users * 16;
  state.accumulated.users = 0;
  return state;
}

/// A run without a predictor net: the snapshot is its state files.
snapshot::RunConstants synthetic_run() {
  snapshot::RunConstants run;
  run.seed = 7;
  return run;
}

void BM_SnapshotUserStateCodec(benchmark::State& state) {
  const sim::UserFleetState user = synthetic_user_state(42);
  const auto bytes = snapshot::encode_user_state(0, user);
  std::uint64_t total = 0;
  for (auto _ : state) {
    const auto encoded = snapshot::encode_user_state(0, user);
    auto decoded = snapshot::decode_user_state(encoded);
    benchmark::DoNotOptimize(decoded);
    total += encoded.size();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(total));
  state.counters["users/s"] = benchmark::Counter(static_cast<double>(state.iterations()),
                                                 benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SnapshotUserStateCodec);

void BM_SnapshotSave(benchmark::State& state) {
  const auto users = static_cast<std::size_t>(state.range(0));
  const sim::FleetDayState day = synthetic_day_state(users);
  const std::string dir = std::filesystem::temp_directory_path() / "lingxi_bm_snap_save";
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    const auto status = snapshot::save_snapshot(synthetic_run(), day, dir, 64, nullptr);
    if (!status.ok()) {
      state.SkipWithError("save_snapshot failed");
      break;
    }
    bytes += snapshot::encode_user_state(0, day.users[0]).size() * users;
  }
  std::filesystem::remove_all(dir);
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(users));
  state.counters["users/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(users),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SnapshotSave)->Arg(64)->Arg(512);

void BM_SnapshotLoad(benchmark::State& state) {
  const auto users = static_cast<std::size_t>(state.range(0));
  const sim::FleetDayState day = synthetic_day_state(users);
  const std::string dir = std::filesystem::temp_directory_path() / "lingxi_bm_snap_load";
  if (!snapshot::save_snapshot(synthetic_run(), day, dir, 64, nullptr).ok()) {
    state.SkipWithError("save_snapshot failed");
    return;
  }
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    auto loaded = snapshot::load_snapshot(dir);
    if (!loaded.has_value()) {
      state.SkipWithError("load_snapshot failed");
      break;
    }
    benchmark::DoNotOptimize(loaded);
    bytes += snapshot::encode_user_state(0, day.users[0]).size() * users;
  }
  std::filesystem::remove_all(dir);
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(users));
  state.counters["users/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(users),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SnapshotLoad)->Arg(64)->Arg(512);

}  // namespace

BENCHMARK_MAIN();
