// Fleet scaling: sessions/sec of sim::FleetRunner at 1/2/4/8 worker threads,
// and batched predictor inference on the LingXi fleet.
//
// Four sections:
//   * a raw-simulation fleet (no LingXi) — pure session-loop throughput;
//   * a LingXi treatment fleet with scalar inference (monte_carlo batch_size
//     1, users_per_shard 1: per-user order, every stalled exit query a
//     1-row forward) — the Fig. 10-12 experiment shape;
//   * the same fleet with per-optimization batching (--batch N, default 16):
//     Monte Carlo rollouts advance in lockstep and the stall-exit net
//     evaluates whole waves per forward, scoped to one optimization;
//   * cross-user vs per-optimization (a larger fleet, 512 users full mode):
//     cohort waves over many-user shards pool every stalled exit query
//     across the shard's users into one flush, against the same fleet at
//     users_per_shard 1 (per-optimization flushes), reported with the mean
//     batch occupancy per flush of both arms.
//
// Checksum contract: within a section the merged FleetAccumulator checksum
// must be identical at every thread count; the batched sections must
// reproduce the scalar section's checksum bit for bit; and both shard sizes
// must agree bitwise on the comparison fleet. A mismatch is a determinism
// bug and exits non-zero — CI runs this binary as the batched-path smoke.
//
// Flags: --batch N (lockstep batch, default 16), --users-per-shard N
// (override the comparison fleet's shard size), --json PATH (machine-readable summary), --smoke (shrunk configs + {1,2}
// threads for CI), --metrics-json PATH (obs registry snapshot across all
// sections), --trace-out PATH (Chrome trace_event JSON of the instrumented
// spans), --timeline-out PATH (per-day health timeline across all sections),
// --slo SPEC (repeatable kind:metric:threshold[:name] SLO rules; a fired
// rule exits 3). The dense kernel ISA follows nn::dense_isa() and is
// reported in the summary; force it with LINGXI_DENSE_ISA.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "abr/hyb.h"
#include "bench_util.h"
#include "nn/dense.h"
#include "sim/fleet_runner.h"

using namespace lingxi;

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

struct ScalingRun {
  std::vector<double> rates;  ///< sessions/sec per thread count
  std::uint32_t checksum = 0;
  bool checksums_match = true;
};

ScalingRun run_scaling(const char* title, const sim::FleetConfig& base,
                       const sim::FleetRunner::PredictorFactory& predictor_factory,
                       std::uint64_t seed, const std::vector<std::size_t>& thread_counts) {
  bench::print_header(title);
  std::printf("%-10s %-12s %-14s %-12s %-10s\n", "threads", "wall (s)", "sessions/s",
              "speedup", "checksum");

  ScalingRun out;
  double serial_rate = 0.0;
  for (std::size_t threads : thread_counts) {
    sim::FleetConfig cfg = base;
    cfg.threads = threads;
    sim::FleetRunner runner(cfg, [] { return std::make_unique<abr::Hyb>(); });
    if (predictor_factory) runner.set_predictor_factory(predictor_factory);

    const auto start = std::chrono::steady_clock::now();
    const sim::FleetAccumulator result = runner.run(seed);
    const double wall = seconds_since(start);

    const double rate = wall > 0.0 ? static_cast<double>(result.sessions) / wall : 0.0;
    out.rates.push_back(rate);
    if (threads == thread_counts.front()) {
      serial_rate = rate;
      out.checksum = result.checksum();
    }
    out.checksums_match = out.checksums_match && result.checksum() == out.checksum;
    std::printf("%-10zu %-12.3f %-14.0f %-12.2f 0x%08x\n", threads, wall, rate,
                serial_rate > 0.0 ? rate / serial_rate : 0.0, result.checksum());
  }
  std::printf("merged metrics bitwise identical across thread counts: %s\n",
              out.checksums_match ? "yes" : "NO — DETERMINISM BUG");
  return out;
}

/// One shard-size arm of the cross-user comparison section.
struct ShardArmRun {
  double rate = 0.0;            ///< sessions/s, first (serial) thread count
  double rate_threaded = 0.0;   ///< sessions/s, last thread count
  std::uint32_t checksum = 0;
  bool checksums_match = true;
  sim::FleetRunStats stats;     ///< from the serial run
};

ShardArmRun run_shard_arm(const sim::FleetConfig& base, std::size_t users_per_shard,
                          const sim::FleetRunner::PredictorFactory& predictor_factory,
                          std::uint64_t seed, const std::vector<std::size_t>& thread_counts) {
  ShardArmRun out;
  bool first = true;
  for (std::size_t threads : thread_counts) {
    sim::FleetConfig cfg = base;
    cfg.users_per_shard = users_per_shard;
    cfg.threads = threads;
    sim::FleetRunner runner(cfg, [] { return std::make_unique<abr::Hyb>(); });
    runner.set_predictor_factory(predictor_factory);
    sim::FleetRunStats stats;
    const auto start = std::chrono::steady_clock::now();
    const sim::FleetAccumulator result = runner.run(seed, &stats);
    const double wall = seconds_since(start);
    const double rate = wall > 0.0 ? static_cast<double>(result.sessions) / wall : 0.0;
    if (first) {
      out.rate = rate;
      out.checksum = result.checksum();
      out.stats = stats;
      first = false;
    }
    out.rate_threaded = rate;
    out.checksums_match = out.checksums_match && result.checksum() == out.checksum;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t batch = 16;
  std::size_t users_per_shard = 0;  // 0 = per-section defaults
  const char* json_path = nullptr;
  std::string metrics_path;
  std::string trace_path;
  std::string timeline_path;
  std::vector<std::string> slo_specs;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--batch") == 0 && i + 1 < argc) {
      batch = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--users-per-shard") == 0 && i + 1 < argc) {
      users_per_shard = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--metrics-json") == 0 && i + 1 < argc) {
      metrics_path = argv[++i];
    } else if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--timeline-out") == 0 && i + 1 < argc) {
      timeline_path = argv[++i];
    } else if (std::strcmp(argv[i], "--slo") == 0 && i + 1 < argc) {
      slo_specs.emplace_back(argv[++i]);
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--batch N] [--users-per-shard N] "
                   "[--json PATH] [--metrics-json PATH] [--trace-out PATH] "
                   "[--timeline-out PATH] [--slo SPEC] [--smoke]\n",
                   argv[0]);
      return 2;
    }
  }
  std::vector<obs::SloRule> slo_rules;
  if (!bench::parse_slo_flags(slo_specs, slo_rules)) return 2;
  const bench::ObsScope obs(metrics_path, trace_path, timeline_path, std::move(slo_rules));
  const std::vector<std::size_t> thread_counts =
      smoke ? std::vector<std::size_t>{1, 2} : std::vector<std::size_t>{1, 2, 4, 8};

  sim::FleetConfig raw;
  raw.users = smoke ? 64 : 256;
  raw.days = 2;
  raw.sessions_per_user_day = 12;
  raw.users_per_shard = 8;
  raw.enable_lingxi = false;
  raw.drift_user_tolerance = true;
  raw.session_jitter_sigma = 0.3;
  raw.network.median_bandwidth = 2500.0;
  raw.network.sigma = 0.6;
  raw.video.mean_duration = 40.0;
  std::printf("raw fleet: %zu users x %zu days x %zu sessions\n", raw.users, raw.days,
              raw.sessions_per_user_day);
  run_scaling("Fleet scaling: raw session simulation", raw, nullptr, 7, thread_counts);

  std::printf("\ntraining shared exit-rate predictor for the LingXi fleet...\n");
  const auto predictor = bench::train_predictor(91, smoke ? 0.1 : 0.25);
  const auto predictor_factory = [&] { return predictor.make(); };

  sim::FleetConfig treated;
  treated.users = smoke ? 16 : 64;
  treated.days = 2;
  treated.sessions_per_user_day = 8;
  // Sections 2-3 measure per-optimization batching: one-user shards keep
  // every flush scoped to a single optimization. The cross-user comparison
  // section below widens the shards.
  treated.users_per_shard = 1;
  treated.enable_lingxi = true;
  treated.drift_user_tolerance = true;
  treated.network.median_bandwidth = 1500.0;
  treated.network.sigma = 0.5;
  treated.network.relative_sd = 0.35;
  treated.lingxi.space.optimize_stall = false;
  treated.lingxi.space.optimize_switch = false;
  treated.lingxi.space.optimize_beta = true;
  treated.lingxi.obo_rounds = 4;
  treated.lingxi.monte_carlo.samples = 16;
  std::printf("lingxi fleet: %zu users x %zu days x %zu sessions, %zu MC samples\n",
              treated.users, treated.days, treated.sessions_per_user_day,
              treated.lingxi.monte_carlo.samples);

  treated.predictor_batch = 1;
  const ScalingRun scalar = run_scaling("Fleet scaling: LingXi fleet, scalar inference",
                                        treated, predictor_factory, 11, thread_counts);

  treated.predictor_batch = batch;
  char title[96];
  std::snprintf(title, sizeof(title),
                "Fleet scaling: LingXi fleet, batched inference (batch %zu)", batch);
  const ScalingRun batched =
      run_scaling(title, treated, predictor_factory, 11, thread_counts);

  bench::print_header("Batched vs scalar (same seed, same checksum contract)");
  std::printf("%-10s %-16s %-16s %-10s\n", "threads", "scalar sess/s", "batched sess/s",
              "speedup");
  for (std::size_t i = 0; i < thread_counts.size(); ++i) {
    std::printf("%-10zu %-16.0f %-16.0f %-10.2f\n", thread_counts[i], scalar.rates[i],
                batched.rates[i],
                scalar.rates[i] > 0.0 ? batched.rates[i] / scalar.rates[i] : 0.0);
  }
  const bool parity = scalar.checksum == batched.checksum;
  std::printf("scalar checksum 0x%08x, batched checksum 0x%08x: %s\n", scalar.checksum,
              batched.checksum,
              parity ? "bitwise identical" : "MISMATCH — PARITY BUG");

  // Cross-user waves vs per-optimization batching, at realistic occupancy:
  // many users per shard, all mid-optimization work pooled, against one-user
  // shards whose flushes hold a single optimization's rollouts.
  sim::FleetConfig cohort = treated;
  cohort.users = smoke ? 24 : 512;
  cohort.users_per_shard = users_per_shard != 0 ? users_per_shard : (smoke ? 3 : 64);
  cohort.predictor_batch = batch;
  std::printf(
      "\ncross-user fleet: %zu users x %zu days x %zu sessions, shard %zu, batch %zu, "
      "dense isa %s\n",
      cohort.users, cohort.days, cohort.sessions_per_user_day, cohort.users_per_shard,
      batch, nn::dense_isa_name(nn::dense_isa()));

  const ShardArmRun per_opt =
      run_shard_arm(cohort, 1, predictor_factory, 11, thread_counts);
  const ShardArmRun cross =
      run_shard_arm(cohort, cohort.users_per_shard, predictor_factory, 11, thread_counts);

  bench::print_header("Cross-user waves vs per-optimization batching");
  std::printf("%-18s %-14s %-14s %-16s %-14s %-10s\n", "arm", "sess/s (1t)",
              "sess/s (max t)", "mean batch/flush", "mean net rows", "checksum");
  std::printf("%-18s %-14.0f %-14.0f %-16.1f %-14.1f 0x%08x\n", "per-optimization",
              per_opt.rate, per_opt.rate_threaded, per_opt.stats.mean_flush_occupancy(),
              per_opt.stats.mean_net_batch(), per_opt.checksum);
  std::printf("%-18s %-14.0f %-14.0f %-16.1f %-14.1f 0x%08x\n", "cross-user waves",
              cross.rate, cross.rate_threaded, cross.stats.mean_flush_occupancy(),
              cross.stats.mean_net_batch(), cross.checksum);
  const double cohort_speedup = per_opt.rate > 0.0 ? cross.rate / per_opt.rate : 0.0;
  std::printf("cross-user speedup (1 thread): %.2fx; max flush %llu vs %llu queries\n",
              cohort_speedup,
              static_cast<unsigned long long>(cross.stats.pool_max_flush),
              static_cast<unsigned long long>(per_opt.stats.pool_max_flush));
  const bool shard_parity = per_opt.checksum == cross.checksum &&
                            per_opt.checksums_match && cross.checksums_match;
  std::printf("shard-size checksums: %s\n",
              shard_parity ? "bitwise identical" : "MISMATCH — PARITY BUG");

  if (json_path != nullptr) {
    std::FILE* f = std::fopen(json_path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path);
      return 2;
    }
    std::fprintf(f,
                 "{\n"
                 "  \"smoke\": %s,\n"
                 "  \"batch\": %zu,\n"
                 "  \"dense_isa\": \"%s\",\n"
                 "  \"scalar_sessions_per_sec\": %.1f,\n"
                 "  \"batched_sessions_per_sec\": %.1f,\n"
                 "  \"cross_user\": {\n"
                 "    \"users\": %zu,\n"
                 "    \"users_per_shard\": %zu,\n"
                 "    \"per_opt_sessions_per_sec\": %.1f,\n"
                 "    \"cross_user_sessions_per_sec\": %.1f,\n"
                 "    \"speedup\": %.3f,\n"
                 "    \"per_opt_mean_flush_occupancy\": %.2f,\n"
                 "    \"cross_user_mean_flush_occupancy\": %.2f,\n"
                 "    \"per_opt_mean_net_rows\": %.2f,\n"
                 "    \"cross_user_mean_net_rows\": %.2f,\n"
                 "    \"checksum\": \"0x%08x\",\n"
                 "    \"checksums_match\": %s\n"
                 "  },\n"
                 "  \"all_checksums_match\": %s\n"
                 "}\n",
                 smoke ? "true" : "false", batch, nn::dense_isa_name(nn::dense_isa()),
                 scalar.rates.front(),
                 batched.rates.front(), cohort.users, cohort.users_per_shard, per_opt.rate,
                 cross.rate, cohort_speedup, per_opt.stats.mean_flush_occupancy(),
                 cross.stats.mean_flush_occupancy(), per_opt.stats.mean_net_batch(),
                 cross.stats.mean_net_batch(), cross.checksum,
                 shard_parity ? "true" : "false",
                 scalar.checksums_match && batched.checksums_match && parity &&
                         shard_parity
                     ? "true"
                     : "false");
    std::fclose(f);
    std::printf("json summary written to %s\n", json_path);
  }

  if (!obs.write()) return 2;

  if (!scalar.checksums_match || !batched.checksums_match || !parity ||
      !shard_parity) {
    return 1;
  }
  if (!obs.slo_ok()) return 3;
  return 0;
}
