// Crash/recovery driver: kill a checkpointing fleet mid-run (or mid-commit)
// and prove the resumed run is bitwise identical to one that never crashed.
//
// Three modes, designed to be run as separate processes (scripts/ci.sh does,
// with a real `kill -9` window; the --kill-* flags raise SIGKILL from inside
// the snapshot commit hook for surgically placed crashes):
//
//   --reference --json P
//       Uninterrupted run over the full calendar, capture attached. Emits
//       the FleetAccumulator checksum and archive checksum to P.
//
//   --run --root DIR --every K [--kill-at-checkpoint N]
//         [--kill-during-commit STAGE]
//       Run with an AutoCheckpointer cutting a checkpoint every K days into
//       DIR. --kill-at-checkpoint N raises SIGKILL right after the Nth
//       checkpoint commits (mid-day-crash coverage); --kill-during-commit
//       STAGE (state-files | manifest | durable | committed, applied to the
//       Nth checkpoint, N defaulting to 1) raises SIGKILL inside the commit
//       protocol itself (torn-commit coverage). Without kill flags the run
//       completes and reports its own parity.
//
//   --resume --root DIR --json P [--every K] [--expect-checksum 0xC]
//            [--expect-archive-checksum 0xA]
//       Recover via snapshot::find_latest_valid, re-arm an AutoCheckpointer
//       on the restored capture (same root, every K days), resume to the
//       horizon checkpointing on the way, and exit non-zero unless every
//       commit succeeds and the accumulator checksum AND archive checksum
//       match the expectations (from the --reference JSON). The JSON also
//       reports the first resumed commit's logged capture bytes
//       (`snapshot.capture_log.bytes`) beside the bytes captured since the
//       recovered boundary: equal when the commit continues the recovered
//       segment table, one day's bytes at K = 1.
//
// Shared flags: --users N (default 512), --days N (default 6), --threads N
// (default 4), --smoke (64-user fleet, cheap predictor training).
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "abr/hyb.h"
#include "bench_util.h"
#include "obs/metrics.h"
#include "sim/fleet_runner.h"
#include "snapshot/checkpoint.h"
#include "snapshot/snapshot.h"
#include "telemetry/capture.h"

using namespace lingxi;

namespace {

constexpr std::uint64_t kSeed = 2024;

// Commit-hook kill plan (file-scope: SaveCommitHook is a plain function
// pointer). kill_during_stage < 0 means "kill after commit N", else kill at
// that SaveStage of the Nth save.
int g_kill_at_save = 0;
int g_kill_during_stage = -1;
int g_saves_started = 0;
int g_saves_committed = 0;

bool kill_hook(snapshot::SaveStage stage) {
  if (stage == snapshot::SaveStage::kStateFilesStaged) ++g_saves_started;
  if (g_kill_during_stage >= 0 && g_saves_started == g_kill_at_save &&
      stage == static_cast<snapshot::SaveStage>(g_kill_during_stage)) {
    std::raise(SIGKILL);
  }
  if (stage == snapshot::SaveStage::kCommitted) {
    ++g_saves_committed;
    if (g_kill_during_stage < 0 && g_kill_at_save > 0 &&
        g_saves_committed == g_kill_at_save) {
      std::raise(SIGKILL);
    }
  }
  return true;
}

int parse_stage(const char* name) {
  if (std::strcmp(name, "state-files") == 0) return 0;
  if (std::strcmp(name, "manifest") == 0) return 1;
  if (std::strcmp(name, "durable") == 0) return 2;
  if (std::strcmp(name, "committed") == 0) return 3;
  return -1;
}

// The Fig. 12 treatment-arm fleet shape shared by every mode — the three
// processes must agree on every result-shaping knob for parity to hold.
sim::FleetConfig make_config(std::size_t users, std::size_t days, std::size_t threads) {
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
  return cfg;
}

/// `extra`: further `"name": value` lines, each ending in ",\n".
int write_json(const char* path, std::uint32_t checksum, std::uint32_t archive_checksum,
               bool match, const std::string& extra = "") {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return 2;
  }
  std::fprintf(f,
               "{\n"
               "%s"
               "  \"checksum\": \"0x%08x\",\n"
               "  \"archive_checksum\": \"0x%08x\",\n"
               "  \"match\": %s\n"
               "}\n",
               extra.c_str(), checksum, archive_checksum, match ? "true" : "false");
  std::fclose(f);
  std::printf("json summary written to %s\n", path);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  enum class Mode { kNone, kReference, kRun, kResume };
  Mode mode = Mode::kNone;
  std::size_t users = 512;
  std::size_t days = 6;
  std::size_t threads = 4;
  std::size_t every = 2;
  std::string root = "crash-recovery-checkpoints";
  const char* json_path = nullptr;
  std::uint32_t expect_checksum = 0;
  std::uint32_t expect_archive = 0;
  bool have_expect_checksum = false;
  bool have_expect_archive = false;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--reference") == 0) {
      mode = Mode::kReference;
    } else if (std::strcmp(argv[i], "--run") == 0) {
      mode = Mode::kRun;
    } else if (std::strcmp(argv[i], "--resume") == 0) {
      mode = Mode::kResume;
    } else if (std::strcmp(argv[i], "--users") == 0 && i + 1 < argc) {
      users = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--days") == 0 && i + 1 < argc) {
      days = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--every") == 0 && i + 1 < argc) {
      every = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--root") == 0 && i + 1 < argc) {
      root = argv[++i];
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--kill-at-checkpoint") == 0 && i + 1 < argc) {
      g_kill_at_save = static_cast<int>(std::strtol(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--kill-during-commit") == 0 && i + 1 < argc) {
      g_kill_during_stage = parse_stage(argv[++i]);
      if (g_kill_during_stage < 0) {
        std::fprintf(stderr,
                     "--kill-during-commit wants state-files|manifest|durable|committed\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--expect-checksum") == 0 && i + 1 < argc) {
      expect_checksum = static_cast<std::uint32_t>(std::strtoul(argv[++i], nullptr, 0));
      have_expect_checksum = true;
    } else if (std::strcmp(argv[i], "--expect-archive-checksum") == 0 && i + 1 < argc) {
      expect_archive = static_cast<std::uint32_t>(std::strtoul(argv[++i], nullptr, 0));
      have_expect_archive = true;
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s (--reference | --run | --resume) [--root DIR] [--every K]\n"
                   "       [--kill-at-checkpoint N] [--kill-during-commit STAGE]\n"
                   "       [--expect-checksum 0xC] [--expect-archive-checksum 0xA]\n"
                   "       [--users N] [--days N] [--threads N] [--json PATH] [--smoke]\n",
                   argv[0]);
      return 2;
    }
  }
  if (mode == Mode::kNone) {
    std::fprintf(stderr, "pick a mode: --reference, --run or --resume\n");
    return 2;
  }
  if (smoke) users = std::min<std::size_t>(users, 64);
  if (g_kill_during_stage >= 0 && g_kill_at_save == 0) g_kill_at_save = 1;

  std::printf("training shared exit-rate predictor...\n");
  const auto trained = bench::train_predictor(91, smoke ? 0.1 : 0.25);
  const auto predictor_factory = [&] { return trained.make(); };
  const sim::FleetConfig cfg = make_config(users, days, threads);
  std::printf("fleet: %zu users x %zu days x %zu sessions, %zu threads\n", cfg.users,
              cfg.days, cfg.sessions_per_user_day, threads);

  if (mode == Mode::kReference) {
    bench::print_header("Reference run (never interrupted)");
    sim::FleetRunner runner(cfg, [] { return std::make_unique<abr::Hyb>(); });
    runner.set_predictor_factory(predictor_factory);
    telemetry::ShardedCapture capture(telemetry::ShardedCapture::Config{64});
    runner.set_telemetry_sink(&capture);
    const sim::FleetAccumulator acc = runner.run(kSeed);
    const telemetry::FleetArchive archive = capture.finish();
    if (acc.has_overflow()) {
      std::fprintf(stderr, "accumulator overflow latched — totals saturated\n");
      return 1;
    }
    std::printf("checksum 0x%08x, archive checksum 0x%08x\n", acc.checksum(),
                archive.checksum());
    if (json_path != nullptr) {
      return write_json(json_path, acc.checksum(), archive.checksum(), true);
    }
    return 0;
  }

  if (mode == Mode::kRun) {
    bench::print_header("Checkpointing run (crash target)");
    if (every == 0) {
      std::fprintf(stderr, "--every must be >= 1\n");
      return 2;
    }
    sim::FleetRunner runner(cfg, [] { return std::make_unique<abr::Hyb>(); });
    runner.set_predictor_factory(predictor_factory);
    telemetry::ShardedCapture capture(telemetry::ShardedCapture::Config{64});
    runner.set_telemetry_sink(&capture);
    snapshot::AutoCheckpointer ckpt(
        runner, kSeed, {root, every, /*retain=*/2, /*users_per_shard=*/64}, &capture);
    ckpt.arm(runner);
    if (g_kill_at_save > 0) snapshot::set_save_commit_hook(&kill_hook);
    std::printf("checkpoint every %zu days into %s", every, root.c_str());
    if (g_kill_at_save > 0) {
      static const char* kStageNames[] = {"state-files", "manifest", "durable",
                                          "committed"};
      if (g_kill_during_stage >= 0) {
        std::printf("; SIGKILL armed at checkpoint %d, commit stage %s", g_kill_at_save,
                    kStageNames[g_kill_during_stage]);
      } else {
        std::printf("; SIGKILL armed after checkpoint %d commits", g_kill_at_save);
      }
    }
    std::printf("\n");
    const sim::FleetAccumulator acc = runner.run_days(kSeed, 0, days, nullptr, nullptr);
    // Only reached when no kill fired (or none was armed).
    const telemetry::FleetArchive archive = capture.finish();
    if (!archive.status) {
      std::fprintf(stderr, "archive read-back failed: %s\n",
                   archive.status.error().message.c_str());
      return 1;
    }
    if (!ckpt.status()) {
      std::fprintf(stderr, "checkpointing failed: %s\n",
                   ckpt.status().error().message.c_str());
      return 1;
    }
    if (acc.has_overflow()) {
      std::fprintf(stderr, "accumulator overflow latched — totals saturated\n");
      return 1;
    }
    std::printf("run completed uninterrupted: %zu checkpoints, checksum 0x%08x, "
                "archive checksum 0x%08x\n",
                ckpt.checkpoints_committed(), acc.checksum(), archive.checksum());
    if (json_path != nullptr) {
      return write_json(json_path, acc.checksum(), archive.checksum(), true);
    }
    return 0;
  }

  // --- Mode::kResume ---------------------------------------------------------
  bench::print_header("Recovery (find_latest_valid + resume)");
  auto recovered = snapshot::find_latest_valid(root);
  if (!recovered) {
    std::fprintf(stderr, "recovery failed: %s\n", recovered.error().message.c_str());
    return 1;
  }
  std::printf("recovered day-%zu checkpoint from %s\n",
              recovered->snapshot.state.next_day, recovered->dir.c_str());
  if (auto s = snapshot::check_compatible(recovered->snapshot, cfg, kSeed); !s) {
    std::fprintf(stderr, "checkpoint incompatible: %s\n", s.error().message.c_str());
    return 1;
  }
  sim::FleetRunner runner(cfg, [] { return std::make_unique<abr::Hyb>(); });
  runner.set_predictor_factory(
      snapshot::resume_predictor_factory(predictor_factory, recovered->snapshot.net_model));
  telemetry::ShardedCapture capture(telemetry::ShardedCapture::Config{64});
  if (auto s = snapshot::restore_capture(capture, cfg, recovered->snapshot.seed,
                                         std::move(recovered->snapshot.capture));
      !s) {
    std::fprintf(stderr, "restore_capture failed: %s\n", s.error().message.c_str());
    return 1;
  }
  runner.set_telemetry_sink(&capture);
  if (every == 0) {
    std::fprintf(stderr, "--every must be >= 1\n");
    return 2;
  }
  // Keep checkpointing into the same root. The restored capture continues
  // the recovered segment table, so the first commit logs only the bytes
  // captured since the recovered boundary.
  snapshot::AutoCheckpointer ckpt(
      runner, kSeed, {root, every, /*retain=*/2, /*users_per_shard=*/64}, &capture);
  obs::Registry registry;
  obs::Registry::install(&registry);
  const auto captured = [&capture] {
    std::uint64_t bytes = 0;
    for (const auto& cursor : capture.cursors()) bytes += cursor.byte_count();
    return bytes;
  };
  const std::uint64_t recovered_bytes = captured();
  std::uint64_t first_commit_captured = 0;
  std::uint64_t first_commit_logged = 0;
  runner.set_checkpoint_hook(
      [&](const sim::FleetDayState& state) {
        const bool first = ckpt.checkpoints_committed() == 0;
        const std::uint64_t captured_now = captured();
        const std::uint64_t logged_before = registry.counter("snapshot.capture_log.bytes");
        ckpt.on_boundary(state);
        if (first) {
          first_commit_captured = captured_now - recovered_bytes;
          first_commit_logged = registry.counter("snapshot.capture_log.bytes") - logged_before;
        }
      },
      every);
  const std::size_t resume_day = recovered->snapshot.state.next_day;
  const sim::FleetAccumulator acc =
      runner.run_days(kSeed, resume_day, days, &recovered->snapshot.state);
  obs::Registry::install(nullptr);
  const telemetry::FleetArchive archive = capture.finish();
  if (!ckpt.status()) {
    std::fprintf(stderr, "resumed checkpointing failed: %s\n",
                 ckpt.status().error().message.c_str());
    return 1;
  }
  if (!archive.status) {
    std::fprintf(stderr, "archive read-back failed: %s\n",
                 archive.status.error().message.c_str());
    return 1;
  }
  std::printf("resumed run committed %zu checkpoints; the first logged %llu capture bytes, "
              "%llu captured since the recovered boundary\n",
              ckpt.checkpoints_committed(),
              static_cast<unsigned long long>(first_commit_logged),
              static_cast<unsigned long long>(first_commit_captured));
  if (acc.has_overflow()) {
    std::fprintf(stderr, "accumulator overflow latched — totals saturated\n");
    return 1;
  }
  const bool checksum_match = !have_expect_checksum || acc.checksum() == expect_checksum;
  const bool archive_match = !have_expect_archive || archive.checksum() == expect_archive;
  std::printf("resumed days [%zu, %zu): checksum 0x%08x, archive checksum 0x%08x\n",
              resume_day, days, acc.checksum(), archive.checksum());
  if (have_expect_checksum) {
    std::printf("accumulator bitwise identical to reference: %s\n",
                checksum_match ? "yes" : "NO — RECOVERY PARITY BUG");
  }
  if (have_expect_archive) {
    std::printf("archive bytes bitwise identical to reference: %s\n",
                archive_match ? "yes" : "NO — RECOVERY PARITY BUG");
  }
  int rc = checksum_match && archive_match ? 0 : 1;
  if (json_path != nullptr) {
    const std::string extra =
        "  \"resumed_checkpoints\": " + std::to_string(ckpt.checkpoints_committed()) +
        ",\n  \"first_commit_log_bytes\": " + std::to_string(first_commit_logged) +
        ",\n  \"first_commit_captured_bytes\": " + std::to_string(first_commit_captured) +
        ",\n";
    const int jrc = write_json(json_path, acc.checksum(), archive.checksum(), rc == 0, extra);
    if (rc == 0) rc = jrc;
  }
  return rc;
}
