// Figure 12: "The A/B Experiment of LingXi" (§5.3) — on the fleet telemetry
// pipeline.
//
// 10-day difference-in-differences A/B test: days 1-5 are an AA period
// (LingXi built but inactive), days 6-10 the AB period (LingXi tunes HYB's
// beta per user). Each arm is simulated ONCE on sim::FleetRunner with a
// telemetry::ShardedCapture attached; every reported series is then computed
// by telemetry::Replay from the on-disk archive, and the replayed
// accumulator checksum is verified against the live run — the
// capture-once / query-many contract.
//
// Paper numbers for reference: watch time +0.146% +- 0.043% (t=3.40,
// p<0.01), bitrate +0.103% +- 0.015%, stall time -1.287% +- 0.103%.
// Our population is far smaller and biased toward the low-bandwidth tail
// (where LingXi acts), so magnitudes are larger; the shape — AA gap ~0,
// positive watch/bitrate effect, strongly negative stall effect — is what
// this bench checks.
//
// Usage: bench_fig12_ab_test [--users N] [--days N] [--sessions N]
//                            [--archive-dir PATH] [--json PATH]
//                            [--metrics-json PATH] [--trace-out PATH]
//                            [--timeline-out PATH] [--slo SPEC]...
//
// --metrics-json dumps the obs registry (both arms' counters and timing
// histograms) and --trace-out a Chrome trace_event JSON of the instrumented
// spans. Tracing also arms an AutoCheckpointer on the treatment arm (one
// mid-run checkpoint under the archive dir) so the trace exercises the
// checkpoint.commit span alongside predictor.flush and obo.refit — the shape
// the CI smoke validates.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "abr/hyb.h"
#include "bench_util.h"
#include "sim/fleet_runner.h"
#include "snapshot/checkpoint.h"
#include "stats/did.h"
#include "telemetry/capture.h"
#include "telemetry/replay.h"

using namespace lingxi;

namespace {

struct Args {
  std::size_t users = 400;
  std::size_t days = 10;
  std::size_t sessions = 12;
  std::string archive_dir;
  std::string json_path;
  std::string metrics_path;
  std::string trace_path;
  std::string timeline_path;
  std::vector<std::string> slo_specs;
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", argv[i]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--users") == 0) {
      args.users = static_cast<std::size_t>(std::strtoull(next(), nullptr, 10));
    } else if (std::strcmp(argv[i], "--days") == 0) {
      args.days = static_cast<std::size_t>(std::strtoull(next(), nullptr, 10));
    } else if (std::strcmp(argv[i], "--sessions") == 0) {
      args.sessions = static_cast<std::size_t>(std::strtoull(next(), nullptr, 10));
    } else if (std::strcmp(argv[i], "--archive-dir") == 0) {
      args.archive_dir = next();
    } else if (std::strcmp(argv[i], "--json") == 0) {
      args.json_path = next();
    } else if (std::strcmp(argv[i], "--metrics-json") == 0) {
      args.metrics_path = next();
    } else if (std::strcmp(argv[i], "--trace-out") == 0) {
      args.trace_path = next();
    } else if (std::strcmp(argv[i], "--timeline-out") == 0) {
      args.timeline_path = next();
    } else if (std::strcmp(argv[i], "--slo") == 0) {
      args.slo_specs.emplace_back(next());
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      std::exit(2);
    }
  }
  if (args.users == 0 || args.days < 4 || args.sessions == 0) {
    // DiD needs at least two AA and two AB days.
    std::fprintf(stderr, "need users >= 1, days >= 4, sessions >= 1\n");
    std::exit(2);
  }
  if (args.archive_dir.empty()) {
    args.archive_dir =
        (std::filesystem::temp_directory_path() / "lingxi_fig12_archives").string();
  }
  return args;
}

struct ArmResult {
  telemetry::ReplayResult replay;
  bool checksum_match = false;
  std::uint64_t archive_bytes = 0;
};

/// Simulate one arm once, archive it, and recompute everything via replay.
/// A non-empty `checkpoint_root` arms an AutoCheckpointer (one mid-run
/// checkpoint) so the run exercises the snapshot commit path — used by the
/// trace smoke; checkpointing never perturbs the simulation itself, so the
/// replay/live checksum contract is unchanged.
ArmResult run_arm(const sim::FleetConfig& base, bool treatment,
                  const bench::TrainedPredictor& predictor, std::uint64_t seed,
                  const std::string& dir, const std::string& checkpoint_root = "") {
  sim::FleetConfig cfg = base;
  cfg.enable_lingxi = treatment;
  telemetry::ShardedCapture capture;
  sim::FleetRunner runner(cfg, [] { return std::make_unique<abr::Hyb>(); });
  if (treatment) {
    runner.set_predictor_factory([&predictor] { return predictor.make(); });
  }
  runner.set_telemetry_sink(&capture);
  std::unique_ptr<snapshot::AutoCheckpointer> checkpointer;
  if (!checkpoint_root.empty()) {
    snapshot::CheckpointPolicy policy;
    policy.root = checkpoint_root;
    policy.every_k_days = std::max<std::size_t>(cfg.days / 2, 1);
    policy.retain = 1;
    checkpointer = std::make_unique<snapshot::AutoCheckpointer>(runner, seed, policy,
                                                                &capture);
    checkpointer->arm(runner);
  }
  const sim::FleetAccumulator live = runner.run(seed);
  if (checkpointer && !checkpointer->status()) {
    std::fprintf(stderr, "auto-checkpoint failed: %s\n",
                 checkpointer->status().error().message.c_str());
    std::exit(1);
  }

  const telemetry::FleetArchive archive = capture.finish();
  if (auto s = archive.write(dir); !s) {
    std::fprintf(stderr, "archive write failed: %s\n", s.error().message.c_str());
    std::exit(1);
  }
  auto replayed = telemetry::Replay::run(dir);
  if (!replayed) {
    std::fprintf(stderr, "replay failed: %s\n", replayed.error().message.c_str());
    std::exit(1);
  }
  ArmResult result{std::move(*replayed), false, archive.total_bytes()};
  result.checksum_match = result.replay.fleet.checksum() == live.checksum();
  std::printf("  %s arm: %llu sessions -> %s (%.1f MiB), replay checksum %s\n",
              treatment ? "treatment" : "control",
              static_cast<unsigned long long>(live.sessions), dir.c_str(),
              static_cast<double>(result.archive_bytes) / (1024.0 * 1024.0),
              result.checksum_match ? "MATCH" : "MISMATCH");
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  std::vector<obs::SloRule> slo_rules;
  if (!bench::parse_slo_flags(args.slo_specs, slo_rules)) return 2;
  const bench::ObsScope obs(args.metrics_path, args.trace_path, args.timeline_path,
                            std::move(slo_rules));

  std::printf("training shared exit-rate predictor...\n");
  const auto predictor = bench::train_predictor(808, 0.7);

  sim::FleetConfig cfg;
  cfg.users = args.users;
  cfg.days = args.days;
  cfg.sessions_per_user_day = args.sessions;
  cfg.intervention_day = args.days / 2;  // 5 AA days at the paper's 10
  cfg.threads = 0;  // hardware concurrency
  cfg.drift_user_tolerance = true;
  cfg.network.median_bandwidth = 4000.0;  // mixed population with low-BW tail
  cfg.network.sigma = 0.8;
  cfg.lingxi.obo_rounds = 5;
  cfg.lingxi.monte_carlo.samples = 8;
  cfg.lingxi.monte_carlo.sample_duration = 30.0;
  // The production A/B test tunes HYB's beta (§5.3): search beta only.
  cfg.lingxi.space.optimize_stall = false;
  cfg.lingxi.space.optimize_switch = false;
  cfg.lingxi.space.optimize_beta = true;
  cfg.fixed_params = cfg.lingxi.default_params;

  std::printf("simulating both arms once (%zu users x %zu days, capture on)...\n",
              cfg.users, cfg.days);
  const auto control =
      run_arm(cfg, false, predictor, 31337, args.archive_dir + "/control");
  // When tracing, the treatment arm also cuts one mid-run checkpoint so the
  // trace covers the snapshot commit path.
  const std::string checkpoint_root =
      args.trace_path.empty() ? "" : args.archive_dir + "/treatment-checkpoints";
  const auto treatment = run_arm(cfg, true, predictor, 31337,
                                 args.archive_dir + "/treatment", checkpoint_root);

  struct Metric {
    const char* name;
    const char* key;
    double (analytics::MetricAccumulator::*fn)() const;
    const char* paper;
  };
  const Metric metrics[3] = {
      {"(a) Overall watch time", "watch_time",
       &analytics::MetricAccumulator::total_watch_time, "+0.146% +- 0.043%"},
      {"(b) Bitrate", "bitrate", &analytics::MetricAccumulator::mean_bitrate,
       "+0.103% +- 0.015%"},
      {"(c) Stall time", "stall_time", &analytics::MetricAccumulator::total_stall_time,
       "-1.287% +- 0.103%"},
  };

  struct DidRow {
    const char* key;
    stats::DidResult did;
  };
  std::vector<DidRow> did_rows;

  for (const auto& metric : metrics) {
    const auto gaps =
        analytics::relative_daily_gap(treatment.replay.daily, control.replay.daily, metric.fn);
    bench::print_header(std::string("Figure 12") + metric.name + " (replayed)");
    std::printf("%-6s %-14s\n", "day", "relative gap %");
    for (std::size_t d = 0; d < gaps.size(); ++d) {
      std::printf("%-6zu %+10.3f%s\n", d + 1, gaps[d] * 100.0,
                  d + 1 == cfg.intervention_day ? "   <- LingXi starts next day" : "");
    }
    const std::vector<double> pre(gaps.begin(),
                                  gaps.begin() + static_cast<long>(cfg.intervention_day));
    const std::vector<double> post(gaps.begin() + static_cast<long>(cfg.intervention_day),
                                   gaps.end());
    const auto did = stats::difference_in_differences(pre, post);
    std::printf("DiD: %+.3f%% +- %.3f%% (t=%.3f, p=%.4f) | paper: %s\n",
                did.effect * 100.0, did.stderr_effect * 100.0, did.t, did.p_two_sided,
                metric.paper);
    did_rows.push_back({metric.key, did});
  }

  const bool all_match = control.checksum_match && treatment.checksum_match;
  std::printf("\nreplay-vs-live accumulator checksums: %s\n",
              all_match ? "both arms MATCH" : "MISMATCH (capture bug!)");

  if (!args.json_path.empty()) {
    std::FILE* f = std::fopen(args.json_path.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "cannot write %s\n", args.json_path.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\n  \"users\": %zu,\n  \"days\": %zu,\n  \"sessions_per_user_day\": "
                 "%zu,\n  \"intervention_day\": %zu,\n  \"checksum_match\": %s,\n",
                 cfg.users, cfg.days, cfg.sessions_per_user_day, cfg.intervention_day,
                 all_match ? "true" : "false");
    std::fprintf(f, "  \"metrics\": {\n");
    for (std::size_t i = 0; i < did_rows.size(); ++i) {
      std::fprintf(f,
                   "    \"%s\": {\"did_pct\": %.6f, \"stderr_pct\": %.6f, \"t\": %.4f, "
                   "\"p\": %.6f}%s\n",
                   did_rows[i].key, did_rows[i].did.effect * 100.0,
                   did_rows[i].did.stderr_effect * 100.0, did_rows[i].did.t,
                   did_rows[i].did.p_two_sided, i + 1 < did_rows.size() ? "," : "");
    }
    std::fprintf(f, "  }\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", args.json_path.c_str());
  }

  if (!obs.write()) return 1;
  if (!all_match) return 1;
  if (!obs.slo_ok()) return 3;
  return 0;
}
