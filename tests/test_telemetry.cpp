// Telemetry subsystem: replay fidelity (bitwise accumulator reconstruction,
// and replayed records equal to the live assembler's), the full archive scan,
// and corruption detection. Archive bytes independent of thread count and
// runner shard size are pinned by the fleet parity harness in
// test_properties.cpp.
#include <gtest/gtest.h>

#include <bit>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>

#include "abr/hyb.h"
#include "common/crc32.h"
#include "analytics/experiment.h"
#include "logstore/record.h"
#include "predictor/exit_net.h"
#include "predictor/os_model.h"
#include "scenario/scenario.h"
#include "sim/fleet_runner.h"
#include "telemetry/capture.h"
#include "telemetry/replay.h"

namespace lingxi {
namespace {

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

sim::FleetRunner::AbrFactory hyb_factory() {
  return [] { return std::make_unique<abr::Hyb>(); };
}

sim::FleetRunner::PredictorFactory test_predictor_factory() {
  Rng rng(1234);
  auto net = std::make_shared<predictor::StallExitNet>(rng);
  auto os_model = std::make_shared<predictor::OverallStatsModel>();
  for (int i = 0; i < 200; ++i) {
    os_model->observe(1, predictor::SwitchType::kNone, i % 9 == 0);
  }
  return [net, os_model] { return predictor::HybridExitPredictor(net, os_model); };
}

sim::FleetConfig lingxi_fleet() {
  sim::FleetConfig cfg = small_fleet();
  cfg.users = 8;
  cfg.users_per_shard = 2;
  cfg.network.median_bandwidth = 1000.0;  // stalls so the trigger fires
  cfg.enable_lingxi = true;
  cfg.lingxi.space.optimize_stall = false;
  cfg.lingxi.space.optimize_switch = false;
  cfg.lingxi.space.optimize_beta = true;
  cfg.lingxi.obo_rounds = 2;
  cfg.lingxi.monte_carlo.samples = 4;
  return cfg;
}

/// Run the fleet with a capture attached; returns the archive and optionally
/// the live accumulator.
telemetry::FleetArchive capture_fleet(sim::FleetConfig cfg, std::size_t threads,
                                      std::uint64_t seed,
                                      sim::FleetAccumulator* live = nullptr) {
  cfg.threads = threads;
  telemetry::ShardedCapture capture;
  sim::FleetRunner runner(cfg, hyb_factory());
  if (cfg.enable_lingxi) runner.set_predictor_factory(test_predictor_factory());
  runner.set_telemetry_sink(&capture);
  const auto acc = runner.run(seed);
  if (live) *live = acc;
  return capture.finish();
}

void expect_identical_accumulators(const sim::FleetAccumulator& a,
                                   const sim::FleetAccumulator& b) {
  EXPECT_EQ(a.checksum(), b.checksum());
  EXPECT_EQ(a.sessions, b.sessions);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.measured_sessions, b.measured_sessions);
  EXPECT_EQ(a.measured_completed, b.measured_completed);
  EXPECT_EQ(a.stall_events, b.stall_events);
  EXPECT_EQ(a.stall_exits, b.stall_exits);
  EXPECT_EQ(a.quality_switches, b.quality_switches);
  EXPECT_EQ(a.users, b.users);
  EXPECT_EQ(a.watch_ticks, b.watch_ticks);
  EXPECT_EQ(a.stall_ticks, b.stall_ticks);
  EXPECT_EQ(a.startup_ticks, b.startup_ticks);
  EXPECT_EQ(a.bitrate_time_ticks, b.bitrate_time_ticks);
  EXPECT_EQ(a.lingxi_triggers, b.lingxi_triggers);
  EXPECT_EQ(a.lingxi_optimizations, b.lingxi_optimizations);
  EXPECT_EQ(a.lingxi_mc_evaluations, b.lingxi_mc_evaluations);
  EXPECT_EQ(a.adjusted_user_days, b.adjusted_user_days);
  EXPECT_EQ(a.overflowed, b.overflowed);
}

std::string fresh_dir(const std::string& name) {
  return ::testing::TempDir() + "/lingxi_telemetry_" + name;
}

TEST(ShardedCapture, DifferentSeedsProduceDifferentArchives) {
  EXPECT_NE(capture_fleet(small_fleet(), 2, 1).checksum().value(),
            capture_fleet(small_fleet(), 2, 2).checksum().value());
}

TEST(ShardedCapture, ShardFilesFollowArchiveGranularity) {
  sim::FleetConfig cfg = small_fleet();
  cfg.threads = 2;
  telemetry::ShardedCapture capture({/*users_per_shard=*/10});
  sim::FleetRunner runner(cfg, hyb_factory());
  runner.set_telemetry_sink(&capture);
  runner.run(3);
  const auto archive = capture.finish();
  ASSERT_EQ(archive.manifest.shards.size(), 3u);  // 24 users / 10 per shard
  EXPECT_EQ(archive.manifest.shards[0].user_count, 10u);
  EXPECT_EQ(archive.manifest.shards[2].user_count, 4u);
  EXPECT_EQ(archive.manifest.shards[1].first_user, 10u);
  // records per user: sessions + one user summary
  const std::uint64_t per_user = cfg.days * cfg.sessions_per_user_day + 1;
  EXPECT_EQ(archive.manifest.shards[0].record_count, 10 * per_user);
  EXPECT_EQ(capture.session_count(), cfg.users * cfg.days * cfg.sessions_per_user_day);
}

// The 24-user, 10-per-shard archive of ShardFilesFollowArchiveGranularity,
// pinned from the archive that finish() materialized in memory before shards
// were built one at a time: its checksum and each shard's size and CRC-32.
constexpr std::uint32_t kGranularityChecksum = 0x55d9c1ec;
constexpr std::uint64_t kGranularityShardBytes[] = {74200, 81000, 33248};
constexpr std::uint32_t kGranularityShardCrcs[] = {0xd0f59f19, 0x55b7cd51, 0xbd409ae7};

/// The checksum and the per-shard sizes and CRC-32s equal the pins, the
/// shards visited in order.
void expect_granularity_golden(const telemetry::FleetArchive& archive, const std::string& leg) {
  const auto checksum = archive.checksum();
  ASSERT_TRUE(checksum.has_value()) << leg << ": " << checksum.error().message;
  EXPECT_EQ(*checksum, kGranularityChecksum) << leg;
  std::size_t visited = 0;
  const Status built = archive.visit_shards([&](std::size_t shard, ByteSpan bytes) {
    EXPECT_EQ(shard, visited) << leg;
    EXPECT_EQ(bytes.size(), kGranularityShardBytes[shard]) << leg << " shard " << shard;
    EXPECT_EQ(crc32(bytes.data(), bytes.size()), kGranularityShardCrcs[shard])
        << leg << " shard " << shard;
    ++visited;
    return Status{};
  });
  ASSERT_TRUE(built.ok()) << leg << ": " << built.error().message;
  EXPECT_EQ(visited, 3u) << leg;
}

/// ShardFilesFollowArchiveGranularity's fleet at `seed`, committing into
/// `store` after day 0 when `store` is non-empty.
telemetry::FleetArchive granularity_archive(telemetry::ShardedCapture& capture,
                                            std::uint64_t seed, const std::string& store) {
  sim::FleetConfig cfg = small_fleet();
  cfg.threads = 2;
  sim::FleetRunner runner(cfg, hyb_factory());
  runner.set_telemetry_sink(&capture);
  if (store.empty()) {
    runner.run(seed);
  } else {
    sim::FleetDayState state;
    runner.run_days(seed, 0, 1, nullptr, &state);
    const auto committed = capture.commit(store, 1);
    EXPECT_TRUE(committed.has_value() && *committed > 0);
    runner.run_days(seed, 1, cfg.days, &state);
  }
  return capture.finish();
}

TEST(ShardedCapture, StreamedShardsMatchTheMaterializedGolden) {
  // Tails only, and day 0 read back from the segment store: both legs build
  // the pinned bytes.
  telemetry::ShardedCapture tails_only({/*users_per_shard=*/10});
  expect_granularity_golden(granularity_archive(tails_only, 3, ""), "tails only");
  const std::string store = fresh_dir("golden_store");
  std::filesystem::remove_all(store);
  telemetry::ShardedCapture committed({/*users_per_shard=*/10});
  const telemetry::FleetArchive archive = granularity_archive(committed, 3, store);
  ASSERT_EQ(archive.log.segments.size(), 3u);
  expect_granularity_golden(archive, "committed day 0");
  std::filesystem::remove_all(store);
}

TEST(ShardedCapture, FinishHandsOverOnceAndItsArchiveOutlivesReuse) {
  // finish() moves the tails out: until the next begin_fleet() a second
  // finish() yields an archive that refuses to be written or checksummed
  // (never an empty or short one), and commit() is refused too. An archive
  // taken before the capture is reused keeps writing its own bytes, also
  // after the reused capture commits into the same store.
  const std::string store = fresh_dir("reuse_store");
  const std::string dir = fresh_dir("reuse_archive");
  std::filesystem::remove_all(store);
  std::filesystem::remove_all(dir);
  telemetry::ShardedCapture capture({/*users_per_shard=*/10});
  const telemetry::FleetArchive first = granularity_archive(capture, 3, store);

  const telemetry::FleetArchive again = capture.finish();
  const Status written = again.write(dir);
  ASSERT_FALSE(written.ok());
  EXPECT_EQ(written.error().code, Error::Code::kInvalidArg);
  EXPECT_FALSE(std::filesystem::exists(dir));
  ASSERT_FALSE(again.checksum().has_value());
  EXPECT_EQ(again.checksum().error().code, Error::Code::kInvalidArg);
  const auto committed = capture.commit(store, 2);
  ASSERT_FALSE(committed.has_value());
  EXPECT_EQ(committed.error().code, Error::Code::kInvalidArg);

  const telemetry::FleetArchive second = granularity_archive(capture, 4, store);
  EXPECT_NE(second.checksum().value(), kGranularityChecksum);
  expect_granularity_golden(first, "archive taken before reuse");
  ASSERT_TRUE(first.write(dir).ok());
  const auto replayed = telemetry::Replay::run(dir);
  ASSERT_TRUE(replayed.has_value()) << replayed.error().message;
  sim::FleetAccumulator live;
  capture_fleet(small_fleet(), 2, 3, &live);
  EXPECT_EQ(replayed->fleet.checksum(), live.checksum());
  std::filesystem::remove_all(store);
  std::filesystem::remove_all(dir);
}

TEST(Replay, AccumulatorBitwiseMatchesLiveRun) {
  sim::FleetAccumulator live;
  const auto archive = capture_fleet(small_fleet(), 4, 99, &live);
  const std::string dir = fresh_dir("replay_plain");
  ASSERT_TRUE(archive.write(dir).ok());
  const auto replayed = telemetry::Replay::run(dir);
  ASSERT_TRUE(replayed.has_value()) << replayed.error().message;
  expect_identical_accumulators(live, replayed->fleet);
}

TEST(Replay, AccumulatorBitwiseMatchesLiveRunWithLingXi) {
  sim::FleetAccumulator live;
  const auto archive = capture_fleet(lingxi_fleet(), 3, 7, &live);
  EXPECT_GT(live.lingxi_triggers, 0u);
  const std::string dir = fresh_dir("replay_lingxi");
  ASSERT_TRUE(archive.write(dir).ok());
  const auto replayed = telemetry::Replay::run(dir);
  ASSERT_TRUE(replayed.has_value()) << replayed.error().message;
  expect_identical_accumulators(live, replayed->fleet);
}

TEST(Replay, DailyMetricsAndUserDaysCoverTheFleet) {
  sim::FleetAccumulator live;
  const sim::FleetConfig cfg = small_fleet();
  const auto archive = capture_fleet(cfg, 2, 11, &live);
  const std::string dir = fresh_dir("replay_metrics");
  ASSERT_TRUE(archive.write(dir).ok());
  const auto replayed = telemetry::Replay::run(dir);
  ASSERT_TRUE(replayed.has_value()) << replayed.error().message;

  ASSERT_EQ(replayed->daily.size(), cfg.days);
  std::size_t daily_sessions = 0;
  double daily_watch = 0.0;
  for (const auto& day : replayed->daily) {
    daily_sessions += day.sessions();
    daily_watch += day.total_watch_time();
  }
  EXPECT_EQ(daily_sessions, live.sessions);
  EXPECT_NEAR(daily_watch, live.total_watch_time(), 1e-6 * daily_watch + 1e-9);

  EXPECT_EQ(replayed->user_days.size(), cfg.users * cfg.days);
}

// ---------------------------------------------------------------------------
// Live equals replay: one treatment arm runs through a tee of the live
// record assembler and a ShardedCapture; replaying the archive must rebuild
// the live records bit for bit.
// ---------------------------------------------------------------------------

class TeeSink final : public telemetry::TelemetrySink {
 public:
  TeeSink(telemetry::TelemetrySink& a, telemetry::TelemetrySink& b) : a_(a), b_(b) {}

  void begin_fleet(const sim::FleetConfig& config, std::uint64_t seed) override {
    a_.begin_fleet(config, seed);
    b_.begin_fleet(config, seed);
  }
  void record_session(const telemetry::SessionContext& ctx,
                      const sim::SessionResult& session) override {
    a_.record_session(ctx, session);
    b_.record_session(ctx, session);
  }
  void record_user(const telemetry::UserTelemetry& user) override {
    a_.record_user(user);
    b_.record_user(user);
  }

 private:
  telemetry::TelemetrySink& a_;
  telemetry::TelemetrySink& b_;
};

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

void expect_records_bitwise(const analytics::ExperimentResult& live,
                            const telemetry::ReplayResult& replay, const std::string& cell) {
  ASSERT_EQ(live.daily.size(), replay.daily.size()) << cell;
  for (std::size_t d = 0; d < live.daily.size(); ++d) {
    const auto& x = live.daily[d];
    const auto& y = replay.daily[d];
    EXPECT_EQ(x.sessions(), y.sessions()) << cell << " day " << d;
    EXPECT_EQ(x.completed(), y.completed()) << cell << " day " << d;
    EXPECT_EQ(x.stall_events(), y.stall_events()) << cell << " day " << d;
    EXPECT_EQ(x.quality_switches(), y.quality_switches()) << cell << " day " << d;
    EXPECT_EQ(bits(x.total_watch_time()), bits(y.total_watch_time())) << cell << " day " << d;
    EXPECT_EQ(bits(x.total_stall_time()), bits(y.total_stall_time())) << cell << " day " << d;
    EXPECT_EQ(bits(x.mean_bitrate()), bits(y.mean_bitrate())) << cell << " day " << d;
  }
  ASSERT_EQ(live.user_days.size(), replay.user_days.size()) << cell;
  for (std::size_t i = 0; i < live.user_days.size(); ++i) {
    const auto& x = live.user_days[i];
    const auto& y = replay.user_days[i];
    EXPECT_EQ(x.user, y.user) << cell << " record " << i;
    EXPECT_EQ(x.day, y.day) << cell << " record " << i;
    EXPECT_EQ(bits(x.mean_stall_penalty), bits(y.mean_stall_penalty)) << cell << " record " << i;
    EXPECT_EQ(bits(x.mean_beta), bits(y.mean_beta)) << cell << " record " << i;
    EXPECT_EQ(bits(x.stall_events), bits(y.stall_events)) << cell << " record " << i;
    EXPECT_EQ(bits(x.stall_exits), bits(y.stall_exits)) << cell << " record " << i;
    EXPECT_EQ(bits(x.stall_time), bits(y.stall_time)) << cell << " record " << i;
    EXPECT_EQ(bits(x.watch_time), bits(y.watch_time)) << cell << " record " << i;
    EXPECT_EQ(bits(x.mean_bandwidth), bits(y.mean_bandwidth)) << cell << " record " << i;
  }
  ASSERT_EQ(live.stall_events.size(), replay.stall_events.size()) << cell;
  for (std::size_t i = 0; i < live.stall_events.size(); ++i) {
    const auto& x = live.stall_events[i];
    const auto& y = replay.stall_events[i];
    EXPECT_EQ(x.user, y.user) << cell << " event " << i;
    EXPECT_EQ(x.event_index, y.event_index) << cell << " event " << i;
    EXPECT_EQ(bits(x.stall_time), bits(y.stall_time)) << cell << " event " << i;
    EXPECT_EQ(bits(x.param_beta_after), bits(y.param_beta_after)) << cell << " event " << i;
    EXPECT_EQ(bits(x.param_stall_after), bits(y.param_stall_after)) << cell << " event " << i;
    EXPECT_EQ(x.exited, y.exited) << cell << " event " << i;
    EXPECT_EQ(bits(x.user_tolerance), bits(y.user_tolerance)) << cell << " event " << i;
  }
}

TEST(Replay, RecordsEqualLiveAssemblerBitwise) {
  // Cells: drift on and unscripted, and the canonical brownout + flash crowd
  // + churn script (flash-crowd users have zero-session days), each at 1 and
  // 4 threads.
  for (const bool scripted : {false, true}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      sim::FleetConfig cfg = lingxi_fleet();
      cfg.users = 16;
      cfg.days = 6;
      cfg.intervention_day = 2;
      cfg.users_per_shard = 3;
      cfg.threads = threads;
      if (scripted) cfg.scenario = scenario::canonical_script(cfg.users, cfg.days);
      const std::string cell = std::string(scripted ? "canonical_script" : "unscripted") +
                               " @ " + std::to_string(threads) + " thread(s)";

      analytics::SessionRecords records(cfg.users, true, cfg.intervention_day);
      analytics::SessionRecordsSink live_sink(records);
      telemetry::ShardedCapture capture;
      TeeSink tee(live_sink, capture);
      sim::FleetRunner runner(cfg, hyb_factory());
      runner.set_predictor_factory(test_predictor_factory());
      runner.set_telemetry_sink(&tee);
      const sim::FleetAccumulator acc = runner.run(23);
      const analytics::ExperimentResult live = records.finish(cfg.days);

      const std::string dir = fresh_dir("live_parity");
      ASSERT_TRUE(capture.finish().write(dir).ok()) << cell;
      telemetry::Replay::Options opts;
      opts.collect_stall_events = true;
      const auto replayed = telemetry::Replay::run(dir, opts);
      ASSERT_TRUE(replayed.has_value()) << cell << ": " << replayed.error().message;
      EXPECT_EQ(replayed->fleet.checksum(), acc.checksum()) << cell;

      ASSERT_EQ(live.user_days.size(), cfg.users * cfg.days) << cell;
      ASSERT_GT(live.stall_events.size(), 0u) << cell;
      std::size_t idle_days = 0;
      for (const auto& rec : live.user_days) idle_days += rec.watch_time == 0.0 ? 1 : 0;
      if (scripted) {
        EXPECT_GT(idle_days, 0u) << cell;
      }
      expect_records_bitwise(live, *replayed, cell);
    }
  }
}

TEST(ArchiveReader, FullScanRecordsCarryTheirUserAndDay) {
  // Every session record's embedded log entry names its user and encodes its
  // (day, session) slot, and the scan yields each user's and each day's full
  // session count plus one user record per user.
  const auto archive = capture_fleet(small_fleet(), 2, 5);
  const std::string dir = fresh_dir("full_scan");
  ASSERT_TRUE(archive.write(dir).ok());
  auto reader = telemetry::ArchiveReader::open(dir);
  ASSERT_TRUE(reader.has_value()) << reader.error().message;

  const sim::FleetConfig cfg = small_fleet();
  std::vector<std::size_t> per_user(cfg.users, 0), per_day(cfg.days, 0);
  std::size_t users = 0;
  const auto status = reader->scan(
      [&](const telemetry::ArchiveSessionRecord& rec) {
        EXPECT_EQ(rec.entry.user_id, rec.user);
        EXPECT_EQ(rec.entry.timestamp, 86400u * rec.day + rec.session_in_day);
        ASSERT_LT(rec.user, cfg.users);
        ASSERT_LT(rec.day, cfg.days);
        ++per_user[rec.user];
        ++per_day[rec.day];
      },
      [&](const telemetry::ArchiveUserRecord& rec) {
        EXPECT_EQ(rec.user, users);  // user order
        ++users;
      });
  ASSERT_TRUE(status.ok()) << status.error().message;
  EXPECT_EQ(users, cfg.users);
  for (std::size_t u = 0; u < cfg.users; ++u) {
    EXPECT_EQ(per_user[u], cfg.days * cfg.sessions_per_user_day) << "user " << u;
  }
  for (std::size_t d = 0; d < cfg.days; ++d) {
    EXPECT_EQ(per_day[d], cfg.users * cfg.sessions_per_user_day) << "day " << d;
  }
}

TEST(ArchiveReader, MissingManifestIsIoError) {
  const auto opened = telemetry::ArchiveReader::open(fresh_dir("nonexistent"));
  ASSERT_FALSE(opened.has_value());
  EXPECT_EQ(opened.error().code, Error::Code::kIo);
}

TEST(ArchiveReader, DetectsFlippedByteInShard) {
  const auto archive = capture_fleet(small_fleet(), 1, 13);
  const std::string dir = fresh_dir("flip");
  ASSERT_TRUE(archive.write(dir).ok());
  const std::string shard_path = dir + "/" + telemetry::shard_filename(0);
  auto bytes = read_file(shard_path);
  ASSERT_TRUE(bytes.has_value());
  (*bytes)[bytes->size() / 2] ^= 0x01;
  ASSERT_TRUE(write_file(shard_path, *bytes).ok());

  const auto replayed = telemetry::Replay::run(dir);
  ASSERT_FALSE(replayed.has_value());
  EXPECT_EQ(replayed.error().code, Error::Code::kCorrupt);
}

TEST(ArchiveReader, DetectsTruncatedShard) {
  const auto archive = capture_fleet(small_fleet(), 1, 13);
  const std::string dir = fresh_dir("trunc");
  ASSERT_TRUE(archive.write(dir).ok());
  const std::string shard_path = dir + "/" + telemetry::shard_filename(0);
  // A reader opened before the truncation must catch it mid-scan; a fresh
  // open() catches it up front, from the shard size in the manifest.
  auto reader = telemetry::ArchiveReader::open(dir);
  ASSERT_TRUE(reader.has_value()) << reader.error().message;
  auto bytes = read_file(shard_path);
  ASSERT_TRUE(bytes.has_value());
  bytes->resize(bytes->size() - 7);
  ASSERT_TRUE(write_file(shard_path, *bytes).ok());

  const auto replayed = telemetry::Replay::run(*reader);
  ASSERT_FALSE(replayed.has_value());
  EXPECT_EQ(replayed.error().code, Error::Code::kCorrupt);
  const auto reopened = telemetry::ArchiveReader::open(dir);
  ASSERT_FALSE(reopened.has_value());
  EXPECT_EQ(reopened.error().code, Error::Code::kCorrupt);
}

TEST(ArchiveReader, DetectsFlippedByteInManifest) {
  const auto archive = capture_fleet(small_fleet(), 1, 13);
  const std::string dir = fresh_dir("manifest-flip");
  ASSERT_TRUE(archive.write(dir).ok());
  const std::string path = dir + "/" + telemetry::manifest_filename();
  auto bytes = read_file(path);
  ASSERT_TRUE(bytes.has_value());
  // Flip one payload byte; the record CRC must catch it at open() instead of
  // scans running against a corrupt shard table.
  (*bytes)[bytes->size() / 2] ^= 0x04;
  ASSERT_TRUE(write_file(path, *bytes).ok());

  const auto opened = telemetry::ArchiveReader::open(dir);
  ASSERT_FALSE(opened.has_value());
  EXPECT_EQ(opened.error().code, Error::Code::kCorrupt);
}

TEST(ArchiveReader, DetectsManifestTruncatedMidShardEntry) {
  const auto archive = capture_fleet(small_fleet(), 1, 13);
  ASSERT_GE(archive.manifest.shards.size(), 1u);
  const std::string dir = fresh_dir("manifest-trunc");
  ASSERT_TRUE(archive.write(dir).ok());
  // Chop the payload mid shard-index entry and re-frame it with a valid
  // record CRC, so only the manifest decoder itself can reject it.
  auto payload = archive.manifest.encode();
  payload.resize(payload.size() - 12);
  std::vector<unsigned char> framed;
  logstore::write_record(framed, payload);
  ASSERT_TRUE(
      write_file(dir + "/" + telemetry::manifest_filename(), framed).ok());

  const auto opened = telemetry::ArchiveReader::open(dir);
  ASSERT_FALSE(opened.has_value());
  EXPECT_EQ(opened.error().code, Error::Code::kCorrupt);
}

TEST(ArchiveReader, RejectsShardTableNotCoveringUsers) {
  // A manifest whose shard table does not tile [0, users) would make every
  // scan silently yield nothing for the uncovered users; open() must reject
  // it as corrupt instead.
  const auto archive = capture_fleet(small_fleet(), 1, 13);
  const std::string dir = fresh_dir("manifest-holes");
  ASSERT_TRUE(archive.write(dir).ok());
  telemetry::ArchiveManifest manifest = archive.manifest;
  ASSERT_GE(manifest.shards.size(), 1u);
  manifest.shards.clear();  // claims users but covers none
  std::vector<unsigned char> framed;
  logstore::write_record(framed, manifest.encode());
  ASSERT_TRUE(
      write_file(dir + "/" + telemetry::manifest_filename(), framed).ok());

  const auto opened = telemetry::ArchiveReader::open(dir);
  ASSERT_FALSE(opened.has_value());
  EXPECT_EQ(opened.error().code, Error::Code::kCorrupt);
}

TEST(ArchiveReader, RejectsBadManifestVersion) {
  const auto archive = capture_fleet(small_fleet(), 1, 13);
  const std::string dir = fresh_dir("badversion");
  ASSERT_TRUE(archive.write(dir).ok());
  // Re-frame the manifest with its format_version field (leading u32 of the
  // payload) clobbered; the record CRC is recomputed so only the version
  // check can reject it.
  auto payload = archive.manifest.encode();
  payload[0] = 0x63;
  std::vector<unsigned char> framed;
  logstore::write_record(framed, payload);
  ASSERT_TRUE(
      write_file(dir + "/" + telemetry::manifest_filename(), framed).ok());

  const auto opened = telemetry::ArchiveReader::open(dir);
  ASSERT_FALSE(opened.has_value());
  EXPECT_EQ(opened.error().code, Error::Code::kCorrupt);
}

TEST(Replay, RejectsManifestDayCountDisagreeingWithShards) {
  const auto archive = capture_fleet(small_fleet(), 1, 13);
  const std::string dir = fresh_dir("daymismatch");
  ASSERT_TRUE(archive.write(dir).ok());
  // Rewrite the manifest claiming one day fewer than the shards contain.
  telemetry::ArchiveManifest manifest = archive.manifest;
  manifest.days -= 1;
  std::vector<unsigned char> framed;
  logstore::write_record(framed, manifest.encode());
  ASSERT_TRUE(
      write_file(dir + "/" + telemetry::manifest_filename(), framed).ok());

  const auto replayed = telemetry::Replay::run(dir);
  ASSERT_FALSE(replayed.has_value());
  EXPECT_EQ(replayed.error().code, Error::Code::kCorrupt);
}

TEST(ArchiveManifest, EncodeDecodeRoundTrip) {
  const auto archive = capture_fleet(small_fleet(), 1, 21);
  const auto decoded = telemetry::ArchiveManifest::decode(archive.manifest.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->seed, 21u);
  EXPECT_EQ(decoded->users, archive.manifest.users);
  EXPECT_EQ(decoded->config_digest, archive.manifest.config_digest);
  ASSERT_EQ(decoded->shards.size(), archive.manifest.shards.size());
  EXPECT_EQ(decoded->shards.back().byte_count, archive.manifest.shards.back().byte_count);
}

TEST(ArchiveManifest, ConfigDigestIgnoresSchedulingKnobs) {
  sim::FleetConfig a = small_fleet();
  sim::FleetConfig b = small_fleet();
  b.threads = 16;
  b.users_per_shard = 1;
  EXPECT_EQ(telemetry::config_digest(a), telemetry::config_digest(b));
  b.users += 1;
  EXPECT_NE(telemetry::config_digest(a), telemetry::config_digest(b));
}

TEST(Replay, StallEventsCarryGroundTruthTolerance) {
  sim::FleetConfig cfg = lingxi_fleet();
  sim::FleetAccumulator live;
  const auto archive = capture_fleet(cfg, 2, 17, &live);
  const std::string dir = fresh_dir("stall_events");
  ASSERT_TRUE(archive.write(dir).ok());
  telemetry::Replay::Options opts;
  opts.collect_stall_events = true;
  const auto replayed = telemetry::Replay::run(dir, opts);
  ASSERT_TRUE(replayed.has_value()) << replayed.error().message;
  ASSERT_GT(replayed->stall_events.size(), 0u);
  for (const auto& ev : replayed->stall_events) {
    EXPECT_GT(ev.stall_time, 0.05);
    EXPECT_GT(ev.user_tolerance, 0.0);  // the base user's, from the user record
    EXPECT_LT(ev.user, cfg.users);
  }
}

TEST(ArchiveReader, ShardReadFailureIsIoErrorNotShortScan) {
  const auto archive = capture_fleet(small_fleet(), 1, 13);
  const std::string dir = fresh_dir("shard-io");
  // This test turns the shard file into a directory below, which a plain
  // rewrite on the next run cannot replace — clear the dir for idempotence.
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(archive.write(dir).ok());
  const std::string shard_path = dir + "/" + telemetry::shard_filename(0);
  // Replace the shard with a directory: the stream opens but every read
  // fails (badbit) without tripping eofbit. That must surface as kIo — a
  // stream failing mid-scan — and never fall through to the record-count
  // cross-check as a "clean but short" scan (kCorrupt). The reader is opened
  // first: open() itself already refuses a shard it cannot size.
  auto reader = telemetry::ArchiveReader::open(dir);
  ASSERT_TRUE(reader.has_value()) << reader.error().message;
  std::filesystem::remove(shard_path);
  std::filesystem::create_directory(shard_path);

  const auto replayed = telemetry::Replay::run(*reader);
  ASSERT_FALSE(replayed.has_value());
  EXPECT_EQ(replayed.error().code, Error::Code::kIo);
}

}  // namespace
}  // namespace lingxi
