// Warm-start benchmark: resume a fleet from a day-D snapshot instead of
// re-simulating days [0, D) — the wall-time payoff of src/snapshot/.
//
// Protocol (default: 512-user LingXi fleet, D = K = 2):
//   1. full run      — simulate days [0, D+K) in one go, capture attached;
//   2. checkpoint    — simulate days [0, D), snapshot state + capture
//                      cursors to disk (manifest + framed shard state files);
//   3. warm start    — in "another process": load the snapshot, restore the
//                      capture, resume days [D, D+K) only.
//
// The resumed run must reproduce the full run bitwise — FleetAccumulator
// checksum AND telemetry archive bytes — or the bench exits non-zero (the
// scripts/ci.sh snapshot smoke runs it in Debug and Release). The figure of
// merit is wall(full) / wall(load + resume): the resumed leg skips
// ~D/(D+K) of the simulation, so at D = K the expected reduction is ~2x.
//
// Flags: --users N (default 512), --days N (total, default 4), --resume-at D
// (default days/2), --threads N (default 4), --dir PATH (snapshot directory,
// default ./warm-start-snapshot), --json PATH, --smoke (64-user fleet),
// --metrics-json PATH (obs registry snapshot: snapshot save/load stage
// timings and the fleet counters), --trace-out PATH (Chrome trace JSON).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>

#include "abr/hyb.h"
#include "bench_util.h"
#include "sim/fleet_runner.h"
#include "snapshot/snapshot.h"
#include "telemetry/capture.h"

using namespace lingxi;

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

/// The snapshot directory's files plus the capture segments its manifest
/// lists in the store beside it.
std::uint64_t snapshot_size(const std::string& dir) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  if (const auto segments = snapshot::listed_segment_files(dir)) {
    for (const std::string& name : *segments) {
      const auto bytes =
          std::filesystem::file_size(snapshot::capture_store_dir(dir) + "/" + name, ec);
      if (!ec) total += bytes;
    }
  }
  return total;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t users = 512;
  std::size_t days = 4;
  std::size_t resume_at = 0;  // 0 = days / 2
  std::size_t threads = 4;
  std::string dir = "warm-start-snapshot";
  const char* json_path = nullptr;
  std::string metrics_path;
  std::string trace_path;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--users") == 0 && i + 1 < argc) {
      users = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--days") == 0 && i + 1 < argc) {
      days = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--resume-at") == 0 && i + 1 < argc) {
      resume_at = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--dir") == 0 && i + 1 < argc) {
      dir = argv[++i];
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--metrics-json") == 0 && i + 1 < argc) {
      metrics_path = argv[++i];
    } else if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--users N] [--days N] [--resume-at D] [--threads N] "
                   "[--dir PATH] [--json PATH] [--metrics-json PATH] "
                   "[--trace-out PATH] [--smoke]\n",
                   argv[0]);
      return 2;
    }
  }
  const bench::ObsScope obs(metrics_path, trace_path);
  if (smoke) users = std::min<std::size_t>(users, 64);
  if (resume_at == 0) resume_at = days / 2;
  if (resume_at == 0 || resume_at >= days) {
    std::fprintf(stderr, "resume-at must be in [1, days)\n");
    return 2;
  }
  constexpr std::uint64_t kSeed = 2024;

  std::printf("training shared exit-rate predictor...\n");
  const auto trained = bench::train_predictor(91, smoke ? 0.1 : 0.25);
  const auto predictor_factory = [&] { return trained.make(); };

  // The Fig. 12 A/B treatment-arm shape: LingXi from day 0, stall-prone
  // world, per-user tolerance drift.
  sim::FleetConfig cfg;
  cfg.users = users;
  cfg.days = days;
  cfg.sessions_per_user_day = 8;
  cfg.threads = threads;
  cfg.users_per_shard = 16;
  cfg.enable_lingxi = true;
  cfg.drift_user_tolerance = true;
  cfg.network.median_bandwidth = 1500.0;
  cfg.network.sigma = 0.5;
  cfg.network.relative_sd = 0.35;
  cfg.lingxi.space.optimize_stall = false;
  cfg.lingxi.space.optimize_switch = false;
  cfg.lingxi.space.optimize_beta = true;
  cfg.lingxi.obo_rounds = 4;
  cfg.lingxi.monte_carlo.samples = 16;
  std::printf("fleet: %zu users x %zu days x %zu sessions, %zu threads, resume at day %zu\n",
              cfg.users, cfg.days, cfg.sessions_per_user_day, threads, resume_at);

  // --- 1. Full run [0, days), the cold-start reference. ---------------------
  bench::print_header("Full run (cold start)");
  sim::FleetRunner full_runner(cfg, [] { return std::make_unique<abr::Hyb>(); });
  full_runner.set_predictor_factory(predictor_factory);
  telemetry::ShardedCapture full_capture(telemetry::ShardedCapture::Config{64});
  full_runner.set_telemetry_sink(&full_capture);
  const auto full_start = std::chrono::steady_clock::now();
  const sim::FleetAccumulator full = full_runner.run(kSeed);
  const double full_wall = seconds_since(full_start);
  const telemetry::FleetArchive full_archive = full_capture.finish();
  std::printf("wall %.3fs, %llu sessions, %llu optimizations, checksum 0x%08x\n",
              full_wall, static_cast<unsigned long long>(full.sessions),
              static_cast<unsigned long long>(full.lingxi_optimizations), full.checksum());

  // --- 2. Checkpoint leg [0, D) -> snapshot directory. ----------------------
  bench::print_header("Checkpoint leg + snapshot save");
  std::filesystem::remove_all(dir);
  sim::FleetRunner leg_runner(cfg, [] { return std::make_unique<abr::Hyb>(); });
  leg_runner.set_predictor_factory(predictor_factory);
  telemetry::ShardedCapture leg_capture(telemetry::ShardedCapture::Config{64});
  leg_runner.set_telemetry_sink(&leg_capture);
  const auto leg_start = std::chrono::steady_clock::now();
  sim::FleetDayState state;
  leg_runner.run_days(kSeed, 0, resume_at, nullptr, &state);
  const double leg_wall = seconds_since(leg_start);
  const auto save_start = std::chrono::steady_clock::now();
  auto snap = snapshot::capture_snapshot(leg_runner, kSeed, std::move(state), &leg_capture);
  if (!snap) {
    std::fprintf(stderr, "capture_snapshot failed: %s\n", snap.error().message.c_str());
    return 1;
  }
  if (auto s = snapshot::save_snapshot(*snap, dir, 64); !s) {
    std::fprintf(stderr, "save_snapshot failed: %s\n", s.error().message.c_str());
    return 1;
  }
  const double save_wall = seconds_since(save_start);
  const std::uint64_t snapshot_bytes = snapshot_size(dir);
  std::printf("days [0, %zu) simulated in %.3fs; snapshot saved in %.3fs (%.2f MB -> %s)\n",
              resume_at, leg_wall, save_wall,
              static_cast<double>(snapshot_bytes) / 1e6, dir.c_str());

  // --- 3. Warm start: load + resume [D, days) in a fresh context. -----------
  bench::print_header("Warm start (load snapshot, resume)");
  const auto resume_start = std::chrono::steady_clock::now();
  auto loaded = snapshot::load_snapshot(dir);
  if (!loaded) {
    std::fprintf(stderr, "load_snapshot failed: %s\n", loaded.error().message.c_str());
    return 1;
  }
  if (auto s = snapshot::check_compatible(*loaded, cfg, kSeed); !s) {
    std::fprintf(stderr, "snapshot incompatible: %s\n", s.error().message.c_str());
    return 1;
  }
  const double load_wall = seconds_since(resume_start);
  sim::FleetRunner resumed_runner(cfg, [] { return std::make_unique<abr::Hyb>(); });
  resumed_runner.set_predictor_factory(
      snapshot::resume_predictor_factory(predictor_factory, loaded->net_model));
  telemetry::ShardedCapture resumed_capture(telemetry::ShardedCapture::Config{64});
  // Moving form: the loaded snapshot's cursor bytes are not needed again, so
  // the resumed capture adopts them without duplicating the archive.
  if (auto s = snapshot::restore_capture(resumed_capture, cfg, loaded->seed,
                                         std::move(loaded->capture));
      !s) {
    std::fprintf(stderr, "restore_capture failed: %s\n", s.error().message.c_str());
    return 1;
  }
  resumed_runner.set_telemetry_sink(&resumed_capture);
  const sim::FleetAccumulator resumed =
      resumed_runner.run_days(kSeed, resume_at, days, &loaded->state);
  const double resume_wall = seconds_since(resume_start);
  const telemetry::FleetArchive resumed_archive = resumed_capture.finish();
  std::printf("snapshot loaded in %.3fs; days [%zu, %zu) resumed; total warm wall %.3fs\n",
              load_wall, resume_at, days, resume_wall);

  // --- Verification + summary. ----------------------------------------------
  const bool checksum_match = resumed.checksum() == full.checksum();
  const bool archive_match = resumed_archive.checksum() == full_archive.checksum() &&
                             resumed_archive.shards == full_archive.shards;
  const double speedup = resume_wall > 0.0 ? full_wall / resume_wall : 0.0;
  const double skipped = static_cast<double>(resume_at) / static_cast<double>(days);

  bench::print_header("Warm-start summary");
  std::printf("%-26s %-12s %-12s %-10s\n", "run", "wall (s)", "days", "checksum");
  std::printf("%-26s %-12.3f [0, %zu)     0x%08x\n", "full (cold)", full_wall, days,
              full.checksum());
  std::printf("%-26s %-12.3f [%zu, %zu)     0x%08x\n", "resume (warm)", resume_wall,
              resume_at, days, resumed.checksum());
  std::printf("skipped %.0f%% of the calendar; wall-time reduction %.2fx\n",
              100.0 * skipped, speedup);
  std::printf("accumulator bitwise identical: %s\n",
              checksum_match ? "yes" : "NO — RESUME PARITY BUG");
  std::printf("archive bytes bitwise identical: %s\n",
              archive_match ? "yes" : "NO — RESUME PARITY BUG");

  if (json_path != nullptr) {
    std::FILE* f = std::fopen(json_path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path);
      return 2;
    }
    std::fprintf(f,
                 "{\n"
                 "  \"smoke\": %s,\n"
                 "  \"users\": %zu,\n"
                 "  \"days\": %zu,\n"
                 "  \"resume_at\": %zu,\n"
                 "  \"threads\": %zu,\n"
                 "  \"full_wall_s\": %.4f,\n"
                 "  \"checkpoint_leg_wall_s\": %.4f,\n"
                 "  \"snapshot_save_s\": %.4f,\n"
                 "  \"snapshot_load_s\": %.4f,\n"
                 "  \"resume_wall_s\": %.4f,\n"
                 "  \"speedup\": %.3f,\n"
                 "  \"calendar_skipped\": %.3f,\n"
                 "  \"snapshot_bytes\": %llu,\n"
                 "  \"checksum\": \"0x%08x\",\n"
                 "  \"checksums_match\": %s,\n"
                 "  \"archive_bytes_match\": %s\n"
                 "}\n",
                 smoke ? "true" : "false", users, days, resume_at, threads, full_wall,
                 leg_wall, save_wall, load_wall, resume_wall, speedup, skipped,
                 static_cast<unsigned long long>(snapshot_bytes), resumed.checksum(),
                 checksum_match ? "true" : "false", archive_match ? "true" : "false");
    std::fclose(f);
    std::printf("json summary written to %s\n", json_path);
  }

  if (!obs.write()) return 2;
  return checksum_match && archive_match ? 0 : 1;
}
