// Observability overhead gate: sessions/sec of a LingXi treatment fleet with
// the obs layer disabled vs fully enabled (metrics registry + span tracer +
// per-day health timeline + SLO monitor installed — the full health plane,
// including the in-band per-day accumulator totals run_days collects for
// interior day records).
//
// Protocol: one untimed warmup run, then N timed repetitions, each an
// adjacent obs-off / obs-on pair whose arm order alternates per rep (even
// reps run off first, odd reps run on first) so that time-correlated
// frequency/thermal drift, which taxes whichever arm runs second, cancels
// across reps instead of compounding. Runs are timed in PROCESS CPU TIME,
// not wall time: on a shared CI runner, preemption by unrelated work
// inflates wall clocks by tens of percent, while CPU time charges each mode
// exactly the work it did — which is the quantity the gate is about. The
// gated figure is BEST-OF-N per arm: overhead = (best_off - best_on) /
// best_off in sessions per CPU-second. CPU-time noise is one-sided —
// interference can only ADD charged work (cache/TLB pollution, migration,
// and on virtualized runners host-side vCPU steal that the guest clock
// charges to the process) — so each arm's best rate converges on its
// intrinsic cost floor, while per-pair ratios inherit the full +-5-25%
// per-run swing observed on shared runners and their median still strays
// past a few-percent gate. The per-pair overheads are printed as
// diagnostics. Because a steal burst can outlast one attempt's whole run
// window and blanket every sample of one arm, an over-gate attempt is
// re-measured from scratch up to --attempts times (default 3) — attempts
// are separated in time and sample independent host conditions, and since
// noise only ever inflates an arm, a measurement that passes is faithful
// while a genuine regression fails every attempt.
//
// The gate: overhead = (off - on) / off in sessions/sec must stay below
// --threshold percent (default 3), or the bench exits 1 — scripts/ci.sh runs
// this in Release as the obs fast-path regression gate. The run also verifies
// the obs-on checksum is bitwise identical to obs-off (the determinism
// contract test_properties pins across the full grid).
//
// Flags: --reps N (timed pairs, default 3), --attempts N (re-measure cap,
// default 3), --threshold PCT (default 3.0), --json PATH, --smoke (shrunk
// fleet for CI).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <memory>
#include <vector>

#include "abr/hyb.h"
#include "bench_util.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "sim/fleet_runner.h"

using namespace lingxi;

namespace {

/// CPU seconds consumed by the whole process (all threads). Falls back to
/// wall time where the POSIX clock is unavailable.
double process_cpu_seconds() {
#if defined(CLOCK_PROCESS_CPUTIME_ID)
  timespec ts{};
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) == 0) {
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
  }
#endif
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct TimedRun {
  double rate = 0.0;  ///< sessions per CPU-second
  std::uint32_t checksum = 0;
};

TimedRun run_once(const sim::FleetConfig& cfg,
                  const sim::FleetRunner::PredictorFactory& predictor_factory,
                  std::uint64_t seed) {
  sim::FleetRunner runner(cfg, [] { return std::make_unique<abr::Hyb>(); });
  runner.set_predictor_factory(predictor_factory);
  const double start = process_cpu_seconds();
  const sim::FleetAccumulator result = runner.run(seed);
  const double cpu = process_cpu_seconds() - start;
  TimedRun out;
  out.rate = cpu > 0.0 ? static_cast<double>(result.sessions) / cpu : 0.0;
  out.checksum = result.checksum();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t reps = 3;
  std::size_t attempts = 3;
  double threshold = 3.0;
  const char* json_path = nullptr;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      reps = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--attempts") == 0 && i + 1 < argc) {
      attempts = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--threshold") == 0 && i + 1 < argc) {
      threshold = std::strtod(argv[++i], nullptr);
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--reps N] [--attempts N] [--threshold PCT] "
                   "[--json PATH] [--smoke]\n",
                   argv[0]);
      return 2;
    }
  }
  if (reps == 0) reps = 1;
  if (attempts == 0) attempts = 1;
  constexpr std::uint64_t kSeed = 11;

  std::printf("training shared exit-rate predictor...\n");
  const auto trained = bench::train_predictor(91, smoke ? 0.1 : 0.25);
  const auto predictor_factory = [&] { return trained.make(); };

  // A LingXi treatment fleet with batched rollout inference — the hottest
  // instrumented path (session stepping, exit-net flushes, GP refits,
  // acquisition evals all fire).
  sim::FleetConfig cfg;
  // Smoke keeps 32 users: small enough for CI, large enough that per-rep
  // walls dwarf scheduler jitter on a single-core runner.
  cfg.users = smoke ? 32 : 64;
  cfg.days = 2;
  cfg.sessions_per_user_day = 8;
  cfg.users_per_shard = 4;
  cfg.threads = 1;  // serial: per-session cost, no scheduler noise
  cfg.enable_lingxi = true;
  cfg.drift_user_tolerance = true;
  cfg.predictor_batch = 16;
  cfg.network.median_bandwidth = 1500.0;
  cfg.network.sigma = 0.5;
  cfg.network.relative_sd = 0.35;
  cfg.lingxi.space.optimize_stall = false;
  cfg.lingxi.space.optimize_switch = false;
  cfg.lingxi.space.optimize_beta = true;
  cfg.lingxi.obo_rounds = 4;
  cfg.lingxi.monte_carlo.samples = 16;
  std::printf("fleet: %zu users x %zu days x %zu sessions, %zu reps, gate %.1f%%\n",
              cfg.users, cfg.days, cfg.sessions_per_user_day, reps, threshold);

  run_once(cfg, predictor_factory, kSeed);  // warmup, untimed

  // The "on" arm is the FULL health plane: registry + tracer + per-day
  // timeline + SLO monitor (with rules that stay quiet), so the measured
  // overhead includes the in-band per-day totals and the day records'
  // snapshot/append at run end.
  const auto run_on = [&] {
    const std::string timeline_path =
        (std::filesystem::temp_directory_path() / "lingxi_obs_overhead_timeline.bin")
            .string();
    obs::Registry registry;
    obs::Tracer tracer;
    obs::TimelineWriter timeline(timeline_path);
    obs::HealthMonitor monitor({{obs::SloKind::kGaugeFloor, "sim.fleet.sessions_total",
                                 1.0, "sessions-floor"},
                                {obs::SloKind::kGaugeCeiling, "process.rss_bytes",
                                 1e15, "rss-ceiling"}});
    obs::Registry::install(&registry);
    obs::Tracer::install(&tracer);
    obs::TimelineWriter::install(&timeline);
    obs::HealthMonitor::install(&monitor);
    const TimedRun on = run_once(cfg, predictor_factory, kSeed);
    obs::Registry::install(nullptr);
    obs::Tracer::install(nullptr);
    obs::TimelineWriter::install(nullptr);
    obs::HealthMonitor::install(nullptr);
    timeline.close();
    std::filesystem::remove(timeline_path);
    return on;
  };

  double best_off = 0.0;
  double best_on = 0.0;
  double overhead_pct = 0.0;
  std::uint32_t checksum_off = 0;
  std::uint32_t checksum_on = 0;
  bool checksum_match = true;
  bool over_threshold = true;
  std::size_t attempts_run = 0;
  for (std::size_t attempt = 0; attempt < attempts && over_threshold; ++attempt) {
    ++attempts_run;
    bench::print_header(attempt == 0
                            ? "Obs overhead: alternating off/on pairs"
                            : "Obs overhead: retry (prior attempt over gate)");
    std::printf("%-6s %-16s %-16s %-12s\n", "rep", "off sess/s", "on sess/s",
                "overhead %");
    best_off = 0.0;
    best_on = 0.0;
    std::vector<double> pair_overheads;
    for (std::size_t rep = 0; rep < reps; ++rep) {
      // Alternate which arm runs first: CPU-frequency and thermal drift are
      // correlated in time and systematically tax whichever arm of a pair
      // runs second, so a fixed order biases every pair the same way while
      // alternation cancels the bias across pairs.
      TimedRun off;
      TimedRun on;
      if (rep % 2 == 0) {
        off = run_once(cfg, predictor_factory, kSeed);
        on = run_on();
      } else {
        on = run_on();
        off = run_once(cfg, predictor_factory, kSeed);
      }

      best_off = std::max(best_off, off.rate);
      best_on = std::max(best_on, on.rate);
      const double pair =
          off.rate > 0.0 ? (off.rate - on.rate) / off.rate * 100.0 : 0.0;
      pair_overheads.push_back(pair);
      checksum_off = off.checksum;
      checksum_on = on.checksum;
      checksum_match = checksum_match && off.checksum == on.checksum;
      std::printf("%-6zu %-16.0f %-16.0f %+-12.2f\n", rep + 1, off.rate, on.rate, pair);
    }

    std::sort(pair_overheads.begin(), pair_overheads.end());
    const std::size_t n = pair_overheads.size();
    const double median_pair_pct =
        n % 2 == 1 ? pair_overheads[n / 2]
                   : 0.5 * (pair_overheads[n / 2 - 1] + pair_overheads[n / 2]);
    overhead_pct = best_off > 0.0 ? (best_off - best_on) / best_off * 100.0 : 0.0;
    over_threshold = overhead_pct > threshold;
    std::printf("attempt %zu: best off %.0f, best on %.0f sessions/s -> "
                "best-of-%zu overhead %.2f%% (median pair %+.2f%%, diagnostic)\n",
                attempt + 1, best_off, best_on, reps, overhead_pct, median_pair_pct);
  }

  bench::print_header("Obs overhead summary");
  std::printf("best-of-%zu overhead: %.2f%% after %zu attempt(s) (gate %.1f%%): %s\n",
              reps, overhead_pct, attempts_run, threshold,
              over_threshold ? "FAIL — OBS FAST-PATH REGRESSION" : "ok");
  std::printf("obs-on checksum 0x%08x vs obs-off 0x%08x: %s\n", checksum_on, checksum_off,
              checksum_match ? "bitwise identical" : "MISMATCH — DETERMINISM BUG");

  if (json_path != nullptr) {
    std::FILE* f = std::fopen(json_path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path);
      return 2;
    }
    std::fprintf(f,
                 "{\n"
                 "  \"smoke\": %s,\n"
                 "  \"reps\": %zu,\n"
                 "  \"attempts\": %zu,\n"
                 "  \"users\": %zu,\n"
                 "  \"off_sessions_per_sec\": %.1f,\n"
                 "  \"on_sessions_per_sec\": %.1f,\n"
                 "  \"overhead_pct\": %.3f,\n"
                 "  \"threshold_pct\": %.3f,\n"
                 "  \"checksums_match\": %s,\n"
                 "  \"pass\": %s\n"
                 "}\n",
                 smoke ? "true" : "false", reps, attempts_run, cfg.users, best_off,
                 best_on, overhead_pct, threshold, checksum_match ? "true" : "false",
                 !over_threshold && checksum_match ? "true" : "false");
    std::fclose(f);
    std::printf("json summary written to %s\n", json_path);
  }

  return !over_threshold && checksum_match ? 0 : 1;
}
