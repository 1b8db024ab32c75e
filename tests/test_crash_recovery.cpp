// Crash-safe checkpointing: AutoCheckpointer policy (cadence, retention,
// serving-style failure handling), the transactional save commit under
// injected crashes at every stage, torn-write recovery via
// find_latest_valid, and a real fork + SIGKILL round trip — all pinned to
// the bitwise-parity contract (resumed accumulator checksums AND archive
// bytes match an uninterrupted run).
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "abr/hyb.h"
#include "archive_bytes.h"
#include "common/bytes.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "predictor/exit_net.h"
#include "predictor/hybrid.h"
#include "predictor/os_model.h"
#include "sim/fleet_runner.h"
#include "snapshot/checkpoint.h"
#include "snapshot/snapshot.h"
#include "telemetry/capture.h"

namespace lingxi {
namespace {

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/lingxi_crash_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

// Small stall-prone LingXi fleet (single-threaded: the kill test forks).
sim::FleetConfig fleet_config() {
  sim::FleetConfig cfg;
  cfg.users = 8;
  cfg.days = 4;
  cfg.sessions_per_user_day = 5;
  cfg.users_per_shard = 3;
  cfg.enable_lingxi = true;
  cfg.drift_user_tolerance = true;
  cfg.intervention_day = 1;
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

sim::FleetRunner::PredictorFactory predictor_factory(std::uint64_t net_seed = 4242) {
  return [net_seed] {
    Rng net_rng(net_seed);
    return predictor::HybridExitPredictor(
        std::make_shared<predictor::StallExitNet>(net_rng),
        std::make_shared<predictor::OverallStatsModel>());
  };
}

sim::FleetRunner make_runner(const sim::FleetConfig& cfg) {
  sim::FleetRunner runner(cfg, [] { return std::make_unique<abr::Hyb>(); });
  runner.set_predictor_factory(predictor_factory());
  return runner;
}

struct Reference {
  sim::FleetAccumulator acc;
  testing_util::ArchiveBytes archive;
};

/// One uninterrupted run with a capture — the parity baseline.
Reference reference_run(const sim::FleetConfig& cfg, std::uint64_t seed) {
  sim::FleetRunner runner = make_runner(cfg);
  telemetry::ShardedCapture capture(telemetry::ShardedCapture::Config{4});
  runner.set_telemetry_sink(&capture);
  Reference ref;
  ref.acc = runner.run(seed);
  ref.archive = testing_util::materialize(capture.finish());
  return ref;
}

/// Recover the newest valid checkpoint under `root` and resume to the
/// horizon in a fresh runner/capture ("new process" discipline), asserting
/// bitwise parity against the reference.
void resume_and_expect_parity(const std::string& root, const sim::FleetConfig& cfg,
                              std::uint64_t seed, const Reference& ref,
                              std::size_t expect_resume_day) {
  auto recovered = snapshot::find_latest_valid(root);
  ASSERT_TRUE(recovered.has_value()) << recovered.error().message;
  EXPECT_EQ(recovered->snapshot.state.next_day, expect_resume_day);

  sim::FleetRunner runner = make_runner(cfg);
  telemetry::ShardedCapture capture(telemetry::ShardedCapture::Config{4});
  const Status resumed_ok = snapshot::resume(recovered->snapshot, seed, runner, &capture);
  ASSERT_TRUE(resumed_ok.ok()) << resumed_ok.error().message;
  const sim::FleetAccumulator resumed = runner.run_days(
      seed, recovered->snapshot.state.next_day, cfg.days, &recovered->snapshot.state);
  EXPECT_EQ(resumed.checksum(), ref.acc.checksum());
  EXPECT_FALSE(resumed.has_overflow());

  const testing_util::ArchiveBytes archive = testing_util::materialize(capture.finish());
  EXPECT_TRUE(archive.manifest.encode() == ref.archive.manifest.encode());
  ASSERT_EQ(archive.shards.size(), ref.archive.shards.size());
  for (std::size_t s = 0; s < archive.shards.size(); ++s) {
    EXPECT_TRUE(archive.shards[s] == ref.archive.shards[s]) << "shard " << s;
  }
}

/// Run [0, days) with an AutoCheckpointer armed (capture attached). Returns
/// the accumulator; `committed`/`status` receive the checkpointer's final
/// state when non-null.
sim::FleetAccumulator checkpointed_run(const sim::FleetConfig& cfg, std::uint64_t seed,
                                       snapshot::CheckpointPolicy policy,
                                       std::size_t* committed = nullptr,
                                       Status* status = nullptr) {
  sim::FleetRunner runner = make_runner(cfg);
  telemetry::ShardedCapture capture(telemetry::ShardedCapture::Config{4});
  runner.set_telemetry_sink(&capture);
  snapshot::AutoCheckpointer ckpt(runner, seed, std::move(policy), &capture);
  ckpt.arm(runner);
  const sim::FleetAccumulator acc = runner.run_days(seed, 0, cfg.days, nullptr, nullptr);
  capture.finish();
  if (committed != nullptr) *committed = ckpt.checkpoints_committed();
  if (status != nullptr) *status = ckpt.status();
  return acc;
}

// Commit-hook crash plan (file-scope: SaveCommitHook is a plain function
// pointer). Aborts (or SIGKILLs) at `stage` of the `at_save`-th save — and
// stays "crashed" for every later stage: a dead process writes nothing after
// the crash point, so later boundary saves must abort immediately too (their
// staging dirs end up torn, exactly like a kill would leave nothing at all —
// either way recovery must not see a valid newer checkpoint).
int g_abort_at_save = 0;
int g_abort_stage = -1;
int g_saves_seen = 0;
bool g_abort_with_sigkill = false;
bool g_crashed = false;

bool crash_hook(snapshot::SaveStage stage) {
  if (g_crashed) return false;
  if (stage == snapshot::SaveStage::kStateFilesStaged) ++g_saves_seen;
  if (g_saves_seen == g_abort_at_save &&
      stage == static_cast<snapshot::SaveStage>(g_abort_stage)) {
    if (g_abort_with_sigkill) std::raise(SIGKILL);
    g_crashed = true;
    return false;
  }
  return true;
}

void arm_crash_hook(int at_save, snapshot::SaveStage stage, bool sigkill = false) {
  g_abort_at_save = at_save;
  g_abort_stage = static_cast<int>(stage);
  g_saves_seen = 0;
  g_abort_with_sigkill = sigkill;
  g_crashed = false;
  snapshot::set_save_commit_hook(&crash_hook);
}

void disarm_crash_hook() { snapshot::set_save_commit_hook(nullptr); }

// ---------------------------------------------------------------------------
// Policy mechanics.
// ---------------------------------------------------------------------------

TEST(Checkpoint, DirnameIsDayOrdered) {
  EXPECT_EQ(snapshot::checkpoint_dirname(3), "checkpoint-day-000003");
  EXPECT_EQ(snapshot::checkpoint_dirname(42), "checkpoint-day-000042");
  EXPECT_LT(snapshot::checkpoint_dirname(9), snapshot::checkpoint_dirname(10));
}

TEST(AutoCheckpointer, CutsOnCadencePrunesToRetentionAndStaysBitwise) {
  const sim::FleetConfig cfg = fleet_config();
  constexpr std::uint64_t kSeed = 77;
  const Reference ref = reference_run(cfg, kSeed);

  const std::string root = fresh_dir("cadence");
  std::size_t committed = 0;
  Status status;
  const sim::FleetAccumulator acc = checkpointed_run(
      cfg, kSeed, {root, /*every_k_days=*/1, /*retain=*/2, /*users_per_shard=*/4},
      &committed, &status);
  EXPECT_TRUE(status.ok()) << status.error().message;
  // Interior boundaries of [0, 4) at k = 1: days 1, 2, 3.
  EXPECT_EQ(committed, 3u);
  // Arming checkpoints must not change results (chunked-run contract).
  EXPECT_EQ(acc.checksum(), ref.acc.checksum());

  // Retention keeps the newest two committed checkpoints; day 1 is pruned.
  EXPECT_FALSE(std::filesystem::exists(root + "/checkpoint-day-000001"));
  EXPECT_TRUE(std::filesystem::exists(root + "/checkpoint-day-000002"));
  EXPECT_TRUE(std::filesystem::exists(root + "/checkpoint-day-000003"));

  resume_and_expect_parity(root, cfg, kSeed, ref, /*expect_resume_day=*/3);
}

TEST(AutoCheckpointer, FailureIsRecordedButRunContinues) {
  const sim::FleetConfig cfg = fleet_config();
  constexpr std::uint64_t kSeed = 13;
  const Reference ref = reference_run(cfg, kSeed);

  // A file where the checkpoint root should be: every save fails.
  const std::string root = fresh_dir("blocked-root");
  std::filesystem::create_directories(std::filesystem::path(root).parent_path());
  { std::ofstream(root) << "occupied"; }

  std::size_t committed = 0;
  Status status;
  const sim::FleetAccumulator acc = checkpointed_run(
      cfg, kSeed, {root, /*every_k_days=*/1, /*retain=*/2, /*users_per_shard=*/4},
      &committed, &status);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(committed, 0u);
  // Serving-style: a durability failure never changes (or stops) the run.
  EXPECT_EQ(acc.checksum(), ref.acc.checksum());
  std::filesystem::remove(root);
}

TEST(AutoCheckpointer, CommitWritesOnlyTheDaySinceThePreviousCommit) {
  // Six days, a checkpoint at every interior boundary: commit k must write
  // exactly the capture bytes recorded on day k - 1 (the new segments), and
  // no segment an earlier commit wrote may be written again.
  sim::FleetConfig cfg = fleet_config();
  cfg.days = 6;
  constexpr std::uint64_t kSeed = 77;
  const Reference ref = reference_run(cfg, kSeed);

  const std::string root = fresh_dir("flat-cost");
  const std::string store = snapshot::capture_store_dir(root + "/x");
  sim::FleetRunner runner = make_runner(cfg);
  telemetry::ShardedCapture capture(telemetry::ShardedCapture::Config{4});
  runner.set_telemetry_sink(&capture);
  snapshot::AutoCheckpointer ckpt(runner, kSeed, {root, 1, /*retain=*/2, 4}, &capture);
  obs::Registry registry;
  obs::Registry::install(&registry);

  std::uint64_t captured_before = 0;
  std::uint64_t logged_before = 0;
  std::map<std::string, std::pair<ino_t, std::int64_t>> written;  // inode, mtime ns
  const auto file_id = [](const std::filesystem::path& path) {
    struct stat st {};
    EXPECT_EQ(::stat(path.c_str(), &st), 0) << path;
    return std::make_pair(st.st_ino, std::int64_t{st.st_mtim.tv_sec} * 1000000000 +
                                         st.st_mtim.tv_nsec);
  };
  runner.set_checkpoint_hook(
      [&](const sim::FleetDayState& state) {
        ckpt.on_boundary(state);
        std::uint64_t captured = 0;
        for (const auto& cursor : capture.cursors()) captured += cursor.byte_count();
        const std::uint64_t logged = registry.counter("snapshot.capture_log.bytes");
        EXPECT_GT(captured, captured_before) << "day " << state.next_day - 1;
        EXPECT_EQ(logged - logged_before, captured - captured_before)
            << "commit at day " << state.next_day;
        captured_before = captured;
        logged_before = logged;
        // One new segment per archive shard (8 users / 4), none rewritten.
        std::size_t fresh = 0;
        for (const auto& entry : std::filesystem::directory_iterator(store)) {
          const std::string name = entry.path().filename().string();
          const auto id = file_id(entry.path());
          const auto [it, inserted] = written.emplace(name, id);
          if (inserted) {
            ++fresh;
          } else {
            EXPECT_EQ(it->second, id) << name << " rewritten at day " << state.next_day;
          }
        }
        EXPECT_EQ(fresh, 2u) << "commit at day " << state.next_day;
      },
      1);
  const sim::FleetAccumulator acc = runner.run(kSeed);
  obs::Registry::install(nullptr);
  EXPECT_TRUE(ckpt.status().ok()) << ckpt.status().error().message;
  EXPECT_EQ(ckpt.checkpoints_committed(), 5u);
  EXPECT_EQ(acc.checksum(), ref.acc.checksum());
  EXPECT_EQ(written.size(), 10u);
  for (const auto& [name, id] : written) {
    EXPECT_EQ(file_id(store + "/" + name), id) << name;
  }
  // The day-5 checkpoint reads its capture back from five days of segments.
  resume_and_expect_parity(root, cfg, kSeed, ref, /*expect_resume_day=*/5);
}

TEST(AutoCheckpointer, ResumedRunAppendsToTheRecoveredSegmentTable) {
  // A process checkpoints days 1 and 2, then stops. Its successor recovers
  // day 2, re-arms its capture on the recovered segment table and
  // checkpoints into the same root: each commit must write the capture bytes
  // of its own day only, not days [0, 3) again.
  sim::FleetConfig cfg = fleet_config();
  cfg.days = 5;
  constexpr std::uint64_t kSeed = 77;
  const Reference ref = reference_run(cfg, kSeed);
  const std::string root = fresh_dir("resume-append");
  const snapshot::CheckpointPolicy policy{root, 1, /*retain=*/2, 4};
  {
    sim::FleetRunner runner = make_runner(cfg);
    telemetry::ShardedCapture capture(telemetry::ShardedCapture::Config{4});
    runner.set_telemetry_sink(&capture);
    snapshot::AutoCheckpointer ckpt(runner, kSeed, policy, &capture);
    ckpt.arm(runner);
    runner.run_days(kSeed, 0, 3, nullptr, nullptr);
    ASSERT_EQ(ckpt.checkpoints_committed(), 2u);
  }

  auto recovered = snapshot::find_latest_valid(root);
  ASSERT_TRUE(recovered.has_value()) << recovered.error().message;
  ASSERT_EQ(recovered->snapshot.state.next_day, 2u);
  sim::FleetRunner runner = make_runner(cfg);
  telemetry::ShardedCapture capture(telemetry::ShardedCapture::Config{4});
  ASSERT_TRUE(snapshot::resume(recovered->snapshot, kSeed, runner, &capture).ok());
  snapshot::AutoCheckpointer ckpt(runner, kSeed, policy, &capture);

  const auto captured = [&capture] {
    std::uint64_t bytes = 0;
    for (const auto& cursor : capture.cursors()) bytes += cursor.byte_count();
    return bytes;
  };
  std::uint64_t captured_before = captured();
  obs::Registry registry;
  obs::Registry::install(&registry);
  runner.set_checkpoint_hook(
      [&](const sim::FleetDayState& state) {
        const std::uint64_t before = registry.counter("snapshot.capture_log.bytes");
        ckpt.on_boundary(state);
        EXPECT_EQ(registry.counter("snapshot.capture_log.bytes") - before,
                  captured() - captured_before)
            << "commit at day " << state.next_day;
        captured_before = captured();
      },
      1);
  const sim::FleetAccumulator resumed =
      runner.run_days(kSeed, 2, cfg.days, &recovered->snapshot.state);
  obs::Registry::install(nullptr);
  EXPECT_TRUE(ckpt.status().ok()) << ckpt.status().error().message;
  EXPECT_EQ(ckpt.checkpoints_committed(), 2u);  // boundaries 3 and 4

  // The store holds the newest checkpoint's segments and nothing else, each
  // exactly one day: days 0-3, two archive shards each.
  auto latest = snapshot::find_latest_valid(root);
  ASSERT_TRUE(latest.has_value()) << latest.error().message;
  const auto& segments = latest->snapshot.capture.log.segments;
  EXPECT_EQ(segments.size(), 8u);
  for (const telemetry::CaptureSegment& seg : segments) {
    EXPECT_EQ(seg.end_day, seg.first_day + 1) << "days " << seg.first_day << "-" << seg.end_day;
  }
  const std::filesystem::directory_iterator store(snapshot::capture_store_dir(root + "/x"));
  EXPECT_EQ(std::distance(store, std::filesystem::directory_iterator{}), 8);

  EXPECT_EQ(resumed.checksum(), ref.acc.checksum());

  // Another root is another store, and a log lives in one store: a commit
  // there is kInvalidArg, writes nothing and keeps the tails (day 4's bytes,
  // recorded since the last commit).
  const std::vector<telemetry::ShardedCapture::CaptureCursor> before = capture.cursors();
  std::uint64_t tail_bytes = 0;
  for (const auto& cursor : before) tail_bytes += cursor.tail.size();
  ASSERT_GT(tail_bytes, 0u);
  const std::string elsewhere = fresh_dir("resume-append-elsewhere");
  const auto moved = capture.commit(snapshot::capture_store_dir(elsewhere + "/x"), cfg.days);
  ASSERT_FALSE(moved.has_value());
  EXPECT_EQ(moved.error().code, Error::Code::kInvalidArg);
  EXPECT_FALSE(std::filesystem::exists(elsewhere));
  EXPECT_TRUE(capture.cursors() == before);
  EXPECT_EQ(capture.log().segments.size(), 8u);

  EXPECT_TRUE(testing_util::materialize(capture.finish()) == ref.archive);
  resume_and_expect_parity(root, cfg, kSeed, ref, /*expect_resume_day=*/4);
}

TEST(AutoCheckpointer, CaptureOfAnotherRunFailsBeforeWritingAnything) {
  // The checkpointer stamps its manifests with its own seed and digest; the
  // capture names its segments with the run's. When they disagree a commit
  // would list files that do not exist (and pruning would delete every
  // segment), so each commit must fail before writing a file, the failure
  // must land in status(), and the capture must keep every byte.
  const sim::FleetConfig cfg = fleet_config();
  constexpr std::uint64_t kSeed = 2;
  const Reference ref = reference_run(cfg, kSeed);
  {
    const std::string root = fresh_dir("other-seed");
    sim::FleetRunner runner = make_runner(cfg);
    telemetry::ShardedCapture capture(telemetry::ShardedCapture::Config{4});
    runner.set_telemetry_sink(&capture);
    snapshot::AutoCheckpointer ckpt(runner, /*seed=*/1, {root, 1, /*retain=*/2, 4}, &capture);
    ckpt.arm(runner);
    const sim::FleetAccumulator acc = runner.run_days(kSeed, 0, cfg.days, nullptr, nullptr);
    ASSERT_FALSE(ckpt.status().ok());
    EXPECT_EQ(ckpt.status().error().code, Error::Code::kInvalidArg);
    EXPECT_EQ(ckpt.checkpoints_committed(), 0u);
    EXPECT_TRUE(std::filesystem::is_empty(root)) << "a failed commit wrote under " << root;
    EXPECT_TRUE(capture.log().segments.empty());
    EXPECT_EQ(acc.checksum(), ref.acc.checksum());
    EXPECT_TRUE(testing_util::materialize(capture.finish()) == ref.archive);
    const auto recovered = snapshot::find_latest_valid(root);
    ASSERT_FALSE(recovered.has_value());
    EXPECT_EQ(recovered.error().code, Error::Code::kNotFound);
  }
  {
    // Same seed, a capture begun on a drifted config: the digest disagrees.
    const std::string root = fresh_dir("other-digest");
    sim::FleetRunner runner = make_runner(cfg);
    sim::FleetDayState state;
    runner.run_days(kSeed, 0, 1, nullptr, &state);
    sim::FleetConfig drifted = cfg;
    drifted.network.median_bandwidth += 100.0;
    telemetry::ShardedCapture capture(telemetry::ShardedCapture::Config{4});
    capture.begin_fleet(drifted, kSeed);
    snapshot::AutoCheckpointer ckpt(runner, kSeed, {root, 1, /*retain=*/2, 4}, &capture);
    ckpt.on_boundary(state);
    ASSERT_FALSE(ckpt.status().ok());
    EXPECT_EQ(ckpt.status().error().code, Error::Code::kInvalidArg);
    EXPECT_TRUE(std::filesystem::is_empty(root)) << "a failed commit wrote under " << root;
  }
}

TEST(CaptureReadBack, CorruptSegmentFailsFinishAndLoad) {
  // Damage a committed segment between the last commit and the archive's
  // write(): the capture no longer holds those bytes, so the archive must
  // fail rather than come out short or wrong, leave no file behind — also
  // when the damaged segment belongs to the last shard, after the earlier
  // shards were written — and every checkpoint that lists the segment must
  // be rejected. finish() reads no segment, so it cannot see the damage.
  const sim::FleetConfig cfg = fleet_config();
  constexpr std::uint64_t kSeed = 77;
  for (int damage = 0; damage < 4; ++damage) {
    const bool last_shard = damage >= 2;
    const bool truncate = damage % 2 == 0;
    const std::string name = std::string(last_shard ? "last-shard-" : "first-shard-") +
                             (truncate ? "readback-truncated" : "readback-flipped");
    const std::string root = fresh_dir(name);
    sim::FleetRunner runner = make_runner(cfg);
    telemetry::ShardedCapture capture(telemetry::ShardedCapture::Config{4});
    runner.set_telemetry_sink(&capture);
    snapshot::AutoCheckpointer ckpt(runner, kSeed, {root, 1, /*retain=*/3, 4}, &capture);
    ckpt.arm(runner);
    runner.run(kSeed);
    ASSERT_TRUE(ckpt.status().ok()) << ckpt.status().error().message;
    ASSERT_EQ(ckpt.checkpoints_committed(), 3u);

    // Day 0 of the first or the last archive shard: listed by every
    // checkpoint.
    const std::uint64_t first_user = last_shard ? cfg.users - 4 : 0;
    const auto& segments = capture.log().segments;
    const auto damaged = std::find_if(segments.begin(), segments.end(), [&](const auto& seg) {
      return seg.first_user == first_user && seg.first_day == 0;
    });
    ASSERT_NE(damaged, segments.end()) << name;
    const telemetry::CaptureSegment& seg = *damaged;
    const std::string path = capture.log().store + "/" +
                             telemetry::segment_filename(kSeed, snapshot::resume_digest(cfg), seg);
    auto bytes = read_file(path);
    ASSERT_TRUE(bytes.has_value()) << path;
    if (truncate) {
      bytes->pop_back();
    } else {
      (*bytes)[bytes->size() / 2] ^= 0x10;
    }
    ASSERT_TRUE(write_file(path, *bytes).ok());

    const telemetry::FleetArchive archive = capture.finish();
    ASSERT_TRUE(archive.status.ok()) << name;
    const auto checksum = archive.checksum();
    ASSERT_FALSE(checksum.has_value()) << name;
    EXPECT_EQ(checksum.error().code, Error::Code::kCorrupt) << name;
    const std::string archive_dir = root + "-archive";
    std::filesystem::remove_all(archive_dir);
    const Status written = archive.write(archive_dir);
    ASSERT_FALSE(written.ok()) << name;
    EXPECT_EQ(written.error().code, Error::Code::kCorrupt) << name;
    EXPECT_FALSE(std::filesystem::exists(archive_dir)) << name;

    for (std::size_t day = 1; day <= 3; ++day) {
      const auto loaded = snapshot::load_snapshot(root + "/" + snapshot::checkpoint_dirname(day));
      ASSERT_FALSE(loaded.has_value()) << name << " day " << day;
      EXPECT_EQ(loaded.error().code, Error::Code::kCorrupt) << name << " day " << day;
      EXPECT_NE(loaded.error().message.find(truncate ? "size disagrees" : "segment disagrees"),
                std::string::npos)
          << loaded.error().message;
    }
    const auto recovered = snapshot::find_latest_valid(root);
    ASSERT_FALSE(recovered.has_value()) << name;
    EXPECT_EQ(recovered.error().code, Error::Code::kNotFound) << name;
  }
}

// ---------------------------------------------------------------------------
// Injected crashes inside the commit protocol.
// ---------------------------------------------------------------------------

TEST(CommitCrash, BeforeManifestLeavesTornStagingThatRecoverySkips) {
  const sim::FleetConfig cfg = fleet_config();
  constexpr std::uint64_t kSeed = 77;
  const Reference ref = reference_run(cfg, kSeed);

  const std::string root = fresh_dir("torn-staging");
  // Crash the second save after its state files are staged but BEFORE the
  // manifest exists: the staging dir is torn by construction.
  arm_crash_hook(2, snapshot::SaveStage::kStateFilesStaged);
  Status status;
  checkpointed_run(cfg, kSeed,
                   {root, /*every_k_days=*/1, /*retain=*/2, /*users_per_shard=*/4},
                   nullptr, &status);
  disarm_crash_hook();
  EXPECT_FALSE(status.ok());  // the aborted save was recorded

  // The torn staging dir is on disk and manifest-less...
  EXPECT_TRUE(std::filesystem::exists(root + "/checkpoint-day-000002.tmp"));
  EXPECT_FALSE(std::filesystem::exists(root + "/checkpoint-day-000002.tmp/" +
                                       snapshot::manifest_filename()));
  // ...so recovery falls back to the last committed checkpoint (day 1) and
  // still reproduces the reference bitwise.
  resume_and_expect_parity(root, cfg, kSeed, ref, /*expect_resume_day=*/1);
}

TEST(CommitCrash, AfterManifestLeavesCompleteStagingThatRecoveryAdopts) {
  const sim::FleetConfig cfg = fleet_config();
  constexpr std::uint64_t kSeed = 77;
  const Reference ref = reference_run(cfg, kSeed);

  const std::string root = fresh_dir("complete-staging");
  // Crash between the staging fsync and the commit rename: the `.tmp` dir is
  // complete (manifest written last), just not renamed.
  arm_crash_hook(2, snapshot::SaveStage::kStagingDurable);
  checkpointed_run(cfg, kSeed,
                   {root, /*every_k_days=*/1, /*retain=*/2, /*users_per_shard=*/4});
  disarm_crash_hook();

  EXPECT_TRUE(std::filesystem::exists(root + "/checkpoint-day-000002.tmp"));
  EXPECT_FALSE(std::filesystem::exists(root + "/checkpoint-day-000002"));
  // Content beats names: the complete staging dir IS the newest checkpoint.
  resume_and_expect_parity(root, cfg, kSeed, ref, /*expect_resume_day=*/2);
}

TEST(CommitCrash, EveryStageLeavesRecoverableState) {
  const sim::FleetConfig cfg = fleet_config();
  constexpr std::uint64_t kSeed = 91;
  const Reference ref = reference_run(cfg, kSeed);

  const snapshot::SaveStage stages[] = {
      snapshot::SaveStage::kStateFilesStaged,
      snapshot::SaveStage::kManifestStaged,
      snapshot::SaveStage::kStagingDurable,
      snapshot::SaveStage::kCommitted,
  };
  for (const auto stage : stages) {
    const std::string root =
        fresh_dir("stage-" + std::to_string(static_cast<int>(stage)));
    arm_crash_hook(2, stage);
    checkpointed_run(cfg, kSeed,
                     {root, /*every_k_days=*/1, /*retain=*/2, /*users_per_shard=*/4});
    disarm_crash_hook();

    // Whatever the crash point, SOME checkpoint is recoverable and resuming
    // from it reproduces the reference bitwise. Crashes before the manifest
    // recover day 1; later ones recover day 2.
    const std::size_t expect_day =
        stage == snapshot::SaveStage::kStateFilesStaged ? 1u : 2u;
    resume_and_expect_parity(root, cfg, kSeed, ref, expect_day);
  }
}

// ---------------------------------------------------------------------------
// Torn-write recovery.
// ---------------------------------------------------------------------------

TEST(FindLatestValid, MissingRootIsIoErrorEmptyRootIsNotFound) {
  const auto missing = snapshot::find_latest_valid(fresh_dir("absent"));
  ASSERT_FALSE(missing.has_value());
  EXPECT_EQ(missing.error().code, Error::Code::kIo);

  const std::string empty = fresh_dir("empty");
  std::filesystem::create_directories(empty);
  const auto none = snapshot::find_latest_valid(empty);
  ASSERT_FALSE(none.has_value());
  EXPECT_EQ(none.error().code, Error::Code::kNotFound);
}

TEST(FindLatestValid, TruncatedManifestFallsBackToPriorCheckpoint) {
  const sim::FleetConfig cfg = fleet_config();
  constexpr std::uint64_t kSeed = 77;
  const Reference ref = reference_run(cfg, kSeed);

  const std::string root = fresh_dir("torn-manifest");
  checkpointed_run(cfg, kSeed,
                   {root, /*every_k_days=*/1, /*retain=*/3, /*users_per_shard=*/4});

  // Tear the newest checkpoint's manifest mid-byte (a torn write a
  // non-atomic writer could have produced).
  const std::string manifest =
      root + "/checkpoint-day-000003/" + snapshot::manifest_filename();
  auto bytes = read_file(manifest);
  ASSERT_TRUE(bytes.has_value());
  bytes->resize(bytes->size() / 2);
  ASSERT_TRUE(write_file(manifest, *bytes).ok());

  // Recovery skips the torn day-3 checkpoint and resumes from day 2.
  resume_and_expect_parity(root, cfg, kSeed, ref, /*expect_resume_day=*/2);
}

TEST(FindLatestValid, TruncatedShardFallsBackToPriorCheckpoint) {
  const sim::FleetConfig cfg = fleet_config();
  constexpr std::uint64_t kSeed = 77;
  const Reference ref = reference_run(cfg, kSeed);

  const std::string root = fresh_dir("torn-shard");
  checkpointed_run(cfg, kSeed,
                   {root, /*every_k_days=*/1, /*retain=*/3, /*users_per_shard=*/4});

  const std::string shard =
      root + "/checkpoint-day-000003/" + snapshot::state_filename(0);
  auto bytes = read_file(shard);
  ASSERT_TRUE(bytes.has_value());
  bytes->resize(bytes->size() - 3);
  ASSERT_TRUE(write_file(shard, *bytes).ok());

  resume_and_expect_parity(root, cfg, kSeed, ref, /*expect_resume_day=*/2);
}

TEST(FindLatestValid, CommittedNameOutranksLeftoverOfSameDay) {
  const sim::FleetConfig cfg = fleet_config();
  constexpr std::uint64_t kSeed = 77;
  const Reference ref = reference_run(cfg, kSeed);

  const std::string root = fresh_dir("exchange-leftover");
  checkpointed_run(cfg, kSeed,
                   {root, /*every_k_days=*/1, /*retain=*/3, /*users_per_shard=*/4});

  // Simulate an exchange leftover: a stale `.old` copy of the newest day.
  std::filesystem::copy(root + "/checkpoint-day-000003",
                        root + "/checkpoint-day-000003.old",
                        std::filesystem::copy_options::recursive);
  auto recovered = snapshot::find_latest_valid(root);
  ASSERT_TRUE(recovered.has_value()) << recovered.error().message;
  EXPECT_EQ(recovered->dir, root + "/checkpoint-day-000003");

  resume_and_expect_parity(root, cfg, kSeed, ref, /*expect_resume_day=*/3);
}

TEST(FindLatestValid, DirectoryNamedForALaterDayIsSkipped) {
  const sim::FleetConfig cfg = fleet_config();
  constexpr std::uint64_t kSeed = 77;
  const Reference ref = reference_run(cfg, kSeed);

  const std::string root = fresh_dir("misnamed");
  checkpointed_run(cfg, kSeed,
                   {root, /*every_k_days=*/1, /*retain=*/3, /*users_per_shard=*/4});
  // A directory named for day 3 that holds day 2's bytes: valid bytes, but
  // not the checkpoint its name promises.
  std::filesystem::remove_all(root + "/checkpoint-day-000003");
  std::filesystem::copy(root + "/checkpoint-day-000002", root + "/checkpoint-day-000003",
                        std::filesystem::copy_options::recursive);
  obs::Registry registry;
  obs::Registry::install(&registry);
  auto recovered = snapshot::find_latest_valid(root);
  obs::Registry::install(nullptr);
  ASSERT_TRUE(recovered.has_value()) << recovered.error().message;
  EXPECT_EQ(recovered->dir, root + "/checkpoint-day-000002");
  // Newest first, one load per candidate until one holds: day 3 is rejected,
  // day 2 recovered, day 1 never read.
  EXPECT_EQ(registry.counter("snapshot.recovery.candidates"), 2u);
  EXPECT_EQ(registry.counter("snapshot.recovery.rejected"), 1u);

  resume_and_expect_parity(root, cfg, kSeed, ref, /*expect_resume_day=*/2);
}

// ---------------------------------------------------------------------------
// Real kill -9 round trip.
// ---------------------------------------------------------------------------

TEST(CrashRecovery, ForkedChildKilledMidCommitResumesBitwise) {
  const sim::FleetConfig cfg = fleet_config();  // threads = 1: fork-safe
  constexpr std::uint64_t kSeed = 77;
  const Reference ref = reference_run(cfg, kSeed);
  const std::string root = fresh_dir("sigkill");

  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: checkpoint every day, raise SIGKILL inside the second commit
    // right before the rename — dies by signal, no cleanup, no flush.
    arm_crash_hook(2, snapshot::SaveStage::kStagingDurable, /*sigkill=*/true);
    checkpointed_run(cfg, kSeed,
                     {root, /*every_k_days=*/1, /*retain=*/2, /*users_per_shard=*/4});
    _exit(7);  // only reached if the kill never fired
  }
  int wstatus = 0;
  ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(wstatus)) << "child exited instead of dying by signal";
  EXPECT_EQ(WTERMSIG(wstatus), SIGKILL);

  // The kill landed after day 2's staging was complete: recovery adopts it.
  resume_and_expect_parity(root, cfg, kSeed, ref, /*expect_resume_day=*/2);
}

}  // namespace
}  // namespace lingxi
