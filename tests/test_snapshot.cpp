// Unit + integration tests for src/snapshot: state codecs (engagement,
// per-user fleet state), on-disk snapshot round trips and corruption
// rejection, and the one resume call (compatibility rejection, resumed
// predictor weights, extended horizons).
// Resume parity — in process and through a saved snapshot directory, at
// every scheduling knob — is a set of rows of the fleet parity harness in
// test_properties.cpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <typeinfo>
#include <utility>
#include <vector>

#include "abr/hyb.h"
#include "archive_bytes.h"
#include "common/crc32.h"
#include "common/rng.h"
#include "logstore/record.h"
#include "nn/serialize.h"
#include "predictor/engagement_state.h"
#include "predictor/exit_net.h"
#include "predictor/hybrid.h"
#include "predictor/os_model.h"
#include "sim/fleet_runner.h"
#include "snapshot/snapshot.h"
#include "telemetry/capture.h"

namespace lingxi {
namespace {

/// A snapshot directory inside a fresh parent of its own, so the capture
/// segment store beside it belongs to this test alone.
std::string fresh_dir(const std::string& name) {
  const std::string parent = ::testing::TempDir() + "/lingxi_snapshot_" + name;
  std::filesystem::remove_all(parent);
  return parent + "/snapshot";
}

// Small stall-prone LingXi fleet: optimizations (and so evolving per-user
// state worth snapshotting) actually happen.
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

// ---------------------------------------------------------------------------
// State codecs.
// ---------------------------------------------------------------------------

predictor::EngagementState stall_heavy_engagement(std::uint64_t seed) {
  Rng rng(seed);
  predictor::EngagementState state;
  state.begin_session();
  for (std::size_t i = 0; i < 40; ++i) {
    sim::SegmentRecord seg;
    seg.index = i;
    seg.level = i % 4;
    seg.bitrate = rng.uniform(300.0, 4000.0);
    seg.throughput = rng.uniform(500.0, 8000.0);
    seg.stall_time = rng.bernoulli(0.3) ? rng.uniform(0.1, 3.0) : 0.0;
    state.on_segment(seg, 1.0);
    if (seg.stall_time > 0.0 && rng.bernoulli(0.4)) state.on_stall_exit();
  }
  return state;
}

TEST(EngagementSnapshot, RoundTripContinuesBitwise) {
  predictor::EngagementState original = stall_heavy_engagement(5);
  predictor::EngagementState restored;
  restored.restore(original.snapshot());
  EXPECT_EQ(restored.snapshot(), original.snapshot());

  // Feed both the same future and compare the exact feature matrices — the
  // interval anchors must carry over, not re-anchor.
  original.begin_session();
  restored.begin_session();
  Rng rng(77);
  for (std::size_t i = 0; i < 16; ++i) {
    sim::SegmentRecord seg;
    seg.index = i;
    seg.bitrate = rng.uniform(300.0, 4000.0);
    seg.throughput = rng.uniform(500.0, 8000.0);
    seg.stall_time = i % 3 == 0 ? rng.uniform(0.1, 2.0) : 0.0;
    original.on_segment(seg, 1.0);
    restored.on_segment(seg, 1.0);
    if (seg.stall_time > 0.0 && i % 6 == 0) {
      original.on_stall_exit();
      restored.on_stall_exit();
    }
    const nn::Tensor a = original.features();
    const nn::Tensor b = restored.features();
    for (std::size_t j = 0; j < a.size(); ++j) {
      EXPECT_EQ(a[j], b[j]) << "segment " << i << " feature " << j;
    }
  }
}

sim::UserFleetState sample_user_state() {
  sim::UserFleetState state;
  Rng rng(63);
  for (int i = 0; i < 19; ++i) rng.next();
  (void)rng.normal();  // exercise the cached-normal flag
  state.session_rng = rng.state();
  state.params.stall_penalty = 7.5;
  state.params.switch_penalty = 1.25;
  state.params.hyb_beta = 0.62;
  state.adjusted_days = 3;
  state.has_lingxi = true;
  state.lingxi.engagement = stall_heavy_engagement(8).snapshot();
  state.lingxi.bandwidth_window = {900.0, 1100.0, 1050.5, 980.25};
  state.lingxi.stalls_since_optimization = 2;
  state.lingxi.has_optimized = true;
  // The controller's adopted params differ from the live ABR params during
  // an AA period — the codec must carry both.
  state.lingxi.params.stall_penalty = 6.25;
  state.lingxi.params.switch_penalty = 0.5;
  state.lingxi.params.hyb_beta = 0.71;
  state.lingxi.stats.triggers = 5;
  state.lingxi.stats.optimizations_run = 4;
  state.lingxi.stats.pruned_preplay = 1;
  state.lingxi.stats.mc_evaluations = 9;
  state.lingxi.stats.mc_rollouts_pruned = 2;
  return state;
}

void expect_user_state_eq(const sim::UserFleetState& a, const sim::UserFleetState& b) {
  EXPECT_EQ(a.session_rng, b.session_rng);
  EXPECT_EQ(a.params, b.params);
  EXPECT_EQ(a.adjusted_days, b.adjusted_days);
  ASSERT_EQ(a.has_lingxi, b.has_lingxi);
  if (a.has_lingxi) {
    EXPECT_EQ(a.lingxi.engagement, b.lingxi.engagement);
    EXPECT_EQ(a.lingxi.bandwidth_window, b.lingxi.bandwidth_window);
    EXPECT_EQ(a.lingxi.stalls_since_optimization, b.lingxi.stalls_since_optimization);
    EXPECT_EQ(a.lingxi.has_optimized, b.lingxi.has_optimized);
    EXPECT_EQ(a.lingxi.params, b.lingxi.params);
    EXPECT_EQ(a.lingxi.stats.triggers, b.lingxi.stats.triggers);
    EXPECT_EQ(a.lingxi.stats.optimizations_run, b.lingxi.stats.optimizations_run);
    EXPECT_EQ(a.lingxi.stats.pruned_preplay, b.lingxi.stats.pruned_preplay);
    EXPECT_EQ(a.lingxi.stats.mc_evaluations, b.lingxi.stats.mc_evaluations);
    EXPECT_EQ(a.lingxi.stats.mc_rollouts_pruned, b.lingxi.stats.mc_rollouts_pruned);
  }
}

TEST(UserStateCodec, RoundTrip) {
  const sim::UserFleetState state = sample_user_state();
  const auto decoded = snapshot::decode_user_state(snapshot::encode_user_state(42, state));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->first, 42u);
  expect_user_state_eq(decoded->second, state);
}

TEST(UserStateCodec, RoundTripWithoutLingxi) {
  sim::UserFleetState state;
  state.params.hyb_beta = 0.8;
  state.adjusted_days = 0;
  state.has_lingxi = false;
  const auto decoded = snapshot::decode_user_state(snapshot::encode_user_state(7, state));
  ASSERT_TRUE(decoded.has_value());
  expect_user_state_eq(decoded->second, state);
}

TEST(UserStateCodec, RejectsTruncation) {
  auto bytes = snapshot::encode_user_state(1, sample_user_state());
  bytes.resize(bytes.size() - 3);
  const auto decoded = snapshot::decode_user_state(bytes);
  ASSERT_FALSE(decoded.has_value());
  EXPECT_EQ(decoded.error().code, Error::Code::kCorrupt);
}

// ---------------------------------------------------------------------------
// On-disk snapshot round trip + corruption / compatibility rejection.
// ---------------------------------------------------------------------------

/// One leg [0, 2) of the standard fleet with a capture attached, saved into
/// `dir` through the one writer with `users_per_shard` users per state file.
struct SavedLeg {
  sim::FleetConfig cfg;
  snapshot::RunConstants run;
  sim::FleetDayState state;
  /// The capture's cursors once the save committed them.
  std::vector<telemetry::ShardedCapture::CaptureCursor> cursors;
};

SavedLeg save_leg(const std::string& dir, std::uint64_t seed = 77,
                  std::size_t users_per_shard = 64) {
  SavedLeg leg;
  leg.cfg = fleet_config();
  sim::FleetRunner runner = make_runner(leg.cfg);
  telemetry::ShardedCapture capture(telemetry::ShardedCapture::Config{4});
  runner.set_telemetry_sink(&capture);
  runner.run_days(seed, 0, 2, nullptr, &leg.state);
  leg.run = snapshot::run_constants(runner, seed);
  const Status saved = snapshot::save_snapshot(leg.run, leg.state, dir, users_per_shard, &capture);
  EXPECT_TRUE(saved.ok()) << saved.error().message;
  leg.cursors = capture.cursors();
  return leg;
}

TEST(SnapshotDisk, SaveLoadRoundTrip) {
  const std::string dir = fresh_dir("roundtrip");
  // users_per_shard 3 forces a partial final state file.
  const SavedLeg leg = save_leg(dir, 77, 3);

  const auto loaded = snapshot::load_snapshot(dir);
  ASSERT_TRUE(loaded.has_value()) << loaded.error().message;
  EXPECT_EQ(loaded->seed, leg.run.seed);
  EXPECT_EQ(loaded->resume_digest, leg.run.resume_digest);
  EXPECT_EQ(loaded->state.next_day, leg.state.next_day);
  EXPECT_EQ(loaded->state.accumulated.checksum(), leg.state.accumulated.checksum());
  ASSERT_EQ(loaded->state.users.size(), leg.state.users.size());
  for (std::size_t u = 0; u < loaded->state.users.size(); ++u) {
    expect_user_state_eq(loaded->state.users[u], leg.state.users[u]);
  }
  EXPECT_EQ(loaded->net_model, leg.run.net_model);
  // The loaded capture holds no bytes: each cursor's length is logged in the
  // store beside the snapshot.
  ASSERT_TRUE(loaded->has_capture);
  EXPECT_EQ(loaded->capture.log.store, snapshot::capture_store_dir(dir));
  ASSERT_EQ(loaded->capture.cursors.size(), leg.cursors.size());
  for (std::size_t u = 0; u < loaded->capture.cursors.size(); ++u) {
    const auto& got = loaded->capture.cursors[u];
    const auto& want = leg.cursors[u];
    EXPECT_TRUE(got.tail.empty()) << "user " << u;
    EXPECT_GT(got.logged, 0u) << "user " << u;
    EXPECT_EQ(got.logged, want.byte_count()) << "user " << u;
    EXPECT_EQ(got.records, want.records) << "user " << u;
    EXPECT_EQ(got.next_expected_at_least, want.next_expected_at_least) << "user " << u;
  }
}

TEST(SnapshotDisk, MissingDirectoryIsIoError) {
  const auto loaded = snapshot::load_snapshot(fresh_dir("nonexistent"));
  ASSERT_FALSE(loaded.has_value());
  EXPECT_EQ(loaded.error().code, Error::Code::kIo);
}

TEST(SnapshotDisk, DetectsFlippedByteInManifest) {
  const std::string dir = fresh_dir("manifest-flip");
  save_leg(dir);
  const std::string path = dir + "/" + snapshot::manifest_filename();
  auto bytes = read_file(path);
  ASSERT_TRUE(bytes.has_value());
  (*bytes)[bytes->size() / 2] ^= 0x20;
  ASSERT_TRUE(write_file(path, *bytes).ok());
  const auto loaded = snapshot::load_snapshot(dir);
  ASSERT_FALSE(loaded.has_value());
  EXPECT_EQ(loaded.error().code, Error::Code::kCorrupt);
}

TEST(SnapshotDisk, RejectsBadFormatVersion) {
  const std::string dir = fresh_dir("bad-version");
  save_leg(dir);
  const std::string path = dir + "/" + snapshot::manifest_filename();
  auto bytes = read_file(path);
  ASSERT_TRUE(bytes.has_value());
  std::size_t pos = 0;
  auto record = logstore::read_record(*bytes, pos);
  ASSERT_TRUE(record.has_value());
  // Clobber the leading format_version u32 and re-frame with a fresh record
  // CRC: only the version check can reject it.
  std::vector<unsigned char> payload(record->begin(), record->end());
  payload[0] = 0x55;
  std::vector<unsigned char> framed;
  logstore::write_record(framed, payload);
  ASSERT_TRUE(write_file(path, framed).ok());
  const auto loaded = snapshot::load_snapshot(dir);
  ASSERT_FALSE(loaded.has_value());
  EXPECT_EQ(loaded.error().code, Error::Code::kCorrupt);
}

TEST(SnapshotDisk, RejectsAbsurdUserCountInsteadOfAllocating) {
  // A manifest claiming 2^50 users must come back as kCorrupt from the
  // bounded decoder — never drive the user-table allocation (bad_alloc /
  // abort). Built by hand, following the format spec in snapshot.h.
  std::vector<unsigned char> payload;
  put_u32(payload, snapshot::kSnapshotFormatVersion);
  put_u64(payload, 77);        // seed
  put_u32(payload, 0);         // resume digest
  const std::uint64_t absurd_users = 1ULL << 50;
  put_u64(payload, absurd_users);
  put_u64(payload, 2);         // next_day
  put_u64(payload, 64);        // users_per_shard
  put_u32(payload, 0);         // has_net
  put_u32(payload, 0);         // net_crc
  put_u32(payload, 0);         // has_capture
  for (int i = 0; i < 19; ++i) put_u64(payload, 0);  // accumulator
  put_u64(payload, 1);         // shard_count
  put_u64(payload, 0);         // shard first_user
  put_u64(payload, absurd_users);
  put_u64(payload, 0);         // byte_count
  put_u32(payload, 0);         // crc

  const std::string dir = fresh_dir("absurd-users");
  std::filesystem::create_directories(dir);
  std::vector<unsigned char> framed;
  logstore::write_record(framed, payload);
  ASSERT_TRUE(write_file(dir + "/" + snapshot::manifest_filename(), framed).ok());

  const auto loaded = snapshot::load_snapshot(dir);
  ASSERT_FALSE(loaded.has_value());
  EXPECT_EQ(loaded.error().code, Error::Code::kCorrupt);
}

TEST(SnapshotDisk, DetectsTruncatedStateFile) {
  const std::string dir = fresh_dir("state-trunc");
  save_leg(dir);
  const std::string path = dir + "/" + snapshot::state_filename(0);
  auto bytes = read_file(path);
  ASSERT_TRUE(bytes.has_value());
  bytes->resize(bytes->size() - 9);
  ASSERT_TRUE(write_file(path, *bytes).ok());
  const auto loaded = snapshot::load_snapshot(dir);
  ASSERT_FALSE(loaded.has_value());
  EXPECT_EQ(loaded.error().code, Error::Code::kCorrupt);
}

TEST(SnapshotDisk, DetectsNetContainerFlip) {
  const std::string dir = fresh_dir("net-flip");
  ASSERT_FALSE(save_leg(dir).run.net_model.empty());
  const std::string path = dir + "/" + snapshot::net_filename();
  auto bytes = read_file(path);
  ASSERT_TRUE(bytes.has_value());
  (*bytes)[bytes->size() / 3] ^= 0x01;
  ASSERT_TRUE(write_file(path, *bytes).ok());
  const auto loaded = snapshot::load_snapshot(dir);
  ASSERT_FALSE(loaded.has_value());
  EXPECT_EQ(loaded.error().code, Error::Code::kCorrupt);
}

TEST(SnapshotDisk, RejectsNetContainerThatDoesNotFitTheNet) {
  // Valid LXNC frames with valid CRCs whose tensors do not fit the
  // stall-exit net: the loader must answer kCorrupt rather than hand the
  // blob to a resumed predictor factory, which cannot report an error.
  const SavedLeg leg = save_leg(fresh_dir("net-fit"));
  const auto original = predictor_factory(4242)();
  const std::vector<nn::Tensor> weights = original.net().weights();
  ASSERT_TRUE(predictor::StallExitNet::validate_weights(weights).ok());

  const nn::Tensor one({1, 1});
  std::vector<nn::Tensor> wrong_shape = weights;
  wrong_shape[2] = nn::Tensor({64, 1, 3});  // branch 1's kernel, one tap short
  std::vector<nn::Tensor> nan_weight = weights;
  nan_weight.back()[1] = std::numeric_limits<double>::quiet_NaN();
  const std::pair<const char*, std::vector<nn::Tensor>> cases[] = {
      {"wrong-count", {one}},
      {"wrong-shape", wrong_shape},
      {"nan-weight", nan_weight},
  };
  for (const auto& [name, tensors] : cases) {
    snapshot::RunConstants run = leg.run;
    run.net_model = nn::serialize_model(nn::kModelKindStallExitNet, tensors);
    run.net_crc = crc32(run.net_model.data(), run.net_model.size());
    const std::string dir = fresh_dir(std::string("net-misfit-") + name);
    ASSERT_TRUE(snapshot::save_snapshot(run, leg.state, dir, 64, nullptr).ok()) << name;
    const auto loaded = snapshot::load_snapshot(dir);
    ASSERT_FALSE(loaded.has_value()) << name;
    EXPECT_EQ(loaded.error().code, Error::Code::kCorrupt) << name;
  }
}

// ---------------------------------------------------------------------------
// The one resume call: compatibility checks, resumed weights, extended
// horizons.
// ---------------------------------------------------------------------------

TEST(SnapshotResume, RejectsMismatchesTouchingNothing) {
  const std::string dir = fresh_dir("resume-checks");
  const SavedLeg leg = save_leg(dir, 77);
  const auto loaded = snapshot::load_snapshot(dir);
  ASSERT_TRUE(loaded.has_value()) << loaded.error().message;

  sim::FleetConfig fewer_users = leg.cfg;
  fewer_users.users = 7;
  sim::FleetConfig drifted = leg.cfg;
  drifted.network.median_bandwidth += 100.0;
  sim::FleetConfig short_horizon = leg.cfg;
  short_horizon.days = 2;  // not past the boundary at day 2
  const struct {
    const char* name;
    sim::FleetConfig cfg;
    std::uint64_t seed;
  } cases[] = {
      {"wrong seed", leg.cfg, 78},
      {"user count", fewer_users, 77},
      {"config drift", drifted, 77},
      {"horizon not past the boundary", short_horizon, 77},
  };
  for (const auto& c : cases) {
    sim::FleetRunner runner = make_runner(c.cfg);
    const std::type_info& factory = runner.predictor_factory().target_type();
    // A capture begun on the runner's own fleet: a rejected resume must not
    // re-arm it on the snapshot's cursors and segment table.
    telemetry::ShardedCapture capture(telemetry::ShardedCapture::Config{4});
    capture.begin_fleet(c.cfg, c.seed);
    const std::vector<telemetry::ShardedCapture::CaptureCursor> cursors = capture.cursors();
    const Status status = snapshot::resume(*loaded, c.seed, runner, &capture);
    ASSERT_FALSE(status.ok()) << c.name;
    EXPECT_EQ(status.error().code, Error::Code::kInvalidArg) << c.name;
    EXPECT_TRUE(runner.predictor_factory().target_type() == factory) << c.name;
    EXPECT_TRUE(capture.cursors() == cursors) << c.name;
    EXPECT_TRUE(capture.log().segments.empty()) << c.name;
  }

  // Extending the horizon is explicitly allowed: the runner's factory then
  // carries the snapshot's net and the capture continues its segment table.
  sim::FleetConfig extended = leg.cfg;
  extended.days = 9;
  sim::FleetRunner runner = make_runner(extended);
  const std::type_info& factory = runner.predictor_factory().target_type();
  telemetry::ShardedCapture capture(telemetry::ShardedCapture::Config{4});
  const Status status = snapshot::resume(*loaded, 77, runner, &capture);
  ASSERT_TRUE(status.ok()) << status.error().message;
  EXPECT_FALSE(runner.predictor_factory().target_type() == factory);
  EXPECT_TRUE(capture.cursors() == loaded->capture.cursors);
  EXPECT_EQ(capture.log().store, loaded->capture.log.store);
  EXPECT_EQ(capture.log().segments.size(), loaded->capture.log.segments.size());
}

TEST(SnapshotResume, PredictorFactoryOverridesDriftedWeights) {
  // The resumed process hands the saved weights out even when its own base
  // factory drifted (different init seed): predictions match the original
  // factory's, not the drifted one's.
  const std::string dir = fresh_dir("drifted-net");
  const SavedLeg leg = save_leg(dir);
  const auto loaded = snapshot::load_snapshot(dir);
  ASSERT_TRUE(loaded.has_value()) << loaded.error().message;
  sim::FleetRunner runner(leg.cfg, [] { return std::make_unique<abr::Hyb>(); });
  runner.set_predictor_factory(predictor_factory(999));
  ASSERT_TRUE(snapshot::resume(*loaded, 77, runner, nullptr).ok());
  auto restored = runner.predictor_factory()();

  const predictor::EngagementState state = stall_heavy_engagement(3);
  predictor::HybridExitPredictor::ExitQuery query;
  query.state = &state;
  query.level = 1;
  query.stall_time = 0.8;
  query.sw = predictor::SwitchType::kNone;
  auto original = predictor_factory(4242)();  // predict() is non-const on the net
  EXPECT_EQ(restored.predict(query), original.predict(query));

  auto drifted = predictor_factory(999)();
  EXPECT_NE(restored.predict(query), drifted.predict(query));
}

TEST(SnapshotResume, ExtendedHorizonMatchesLongerFullRun) {
  // Incremental-day experiment at the fleet layer: snapshot a 4-day fleet at
  // day 2, resume with a 6-day horizon and a capture; equal to a
  // from-scratch 6-day run, accumulator and archive bytes alike.
  sim::FleetConfig extended_cfg = fleet_config();
  extended_cfg.days = 6;
  sim::FleetRunner extended_runner = make_runner(extended_cfg);
  telemetry::ShardedCapture full_capture(telemetry::ShardedCapture::Config{4});
  extended_runner.set_telemetry_sink(&full_capture);
  const sim::FleetAccumulator full6 = extended_runner.run(77);
  const testing_util::ArchiveBytes full_archive = testing_util::materialize(full_capture.finish());

  const std::string dir = fresh_dir("extend");
  save_leg(dir, 77);
  const auto loaded = snapshot::load_snapshot(dir);
  ASSERT_TRUE(loaded.has_value()) << loaded.error().message;
  sim::FleetRunner resumed_runner = make_runner(extended_cfg);
  telemetry::ShardedCapture capture(telemetry::ShardedCapture::Config{4});
  const Status status = snapshot::resume(*loaded, 77, resumed_runner, &capture);
  ASSERT_TRUE(status.ok()) << status.error().message;
  const sim::FleetAccumulator resumed =
      resumed_runner.run_days(77, 2, 6, &loaded->state);
  EXPECT_EQ(resumed.checksum(), full6.checksum());

  const testing_util::ArchiveBytes archive = testing_util::materialize(capture.finish());
  EXPECT_TRUE(archive.manifest.encode() == full_archive.manifest.encode());
  ASSERT_EQ(archive.shards.size(), full_archive.shards.size());
  for (std::size_t s = 0; s < archive.shards.size(); ++s) {
    EXPECT_TRUE(archive.shards[s] == full_archive.shards[s]) << "shard " << s;
  }
}

}  // namespace
}  // namespace lingxi
