// The binary codec (common/bytes.h) and the on-disk formats built on it.
//
//   * Golden bytes: every persisted format is built from fixed inputs and
//     compared to a hex literal. The LXRC (session log, archive, snapshot)
//     and LXTL (timeline) literals were captured before these
//     formats moved onto the shared codec and must never change without a
//     format version bump; LXNC pins the version-2 net container.
//   * ByteReader semantics: sticky failure, counted reads checked before
//     they allocate, trailing-byte rejection.
//   * One table of frame-corruption cases, run for the LXRC and LXTL magics
//     through both the in-memory and the streaming reader.
//   * Hostile lengths behind valid CRCs: every decoder returns kCorrupt
//     without allocating from the claimed count.
//   * Misrouted archive records behind valid CRCs: a record outside its
//     shard's users or past the manifest's days is kCorrupt.
//   * Hostile archive shard tables behind a valid CRC: counts that exceed
//     the shard's bytes, or bytes that differ from the file, are kCorrupt
//     at open().
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "logstore/record.h"
#include "logstore/session_log.h"
#include "nn/serialize.h"
#include "obs/timeline.h"
#include "snapshot/checkpoint.h"
#include "snapshot/snapshot.h"
#include "telemetry/archive.h"
#include "telemetry/capture.h"
#include "telemetry/replay.h"

namespace lingxi {
namespace {

std::string hex(const std::vector<unsigned char>& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (unsigned char b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xf]);
  }
  return out;
}

std::vector<unsigned char> file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

std::string temp_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/lingxi_codec_" + name;
  std::filesystem::remove_all(path);
  return path;
}

// ---------------------------------------------------------------------------
// Fixed inputs.
// ---------------------------------------------------------------------------

logstore::SessionLogEntry golden_session() {
  logstore::SessionLogEntry e;
  e.user_id = 9;
  e.timestamp = 86401;
  e.video_duration = 30.0;
  e.session.exited = true;
  e.session.watch_time = 12.5;
  e.session.startup_delay = 0.75;
  e.session.total_stall = 2.25;
  e.session.stall_events = 3;
  e.session.quality_switches = 4;
  e.session.mean_bitrate = 1850.0;
  sim::SegmentRecord seg;
  seg.level = 2;
  seg.position = 4.0;
  seg.bitrate = 1850.0;
  seg.size = 925000.0;
  seg.throughput = 2400.5;
  seg.download_time = 1.5;
  seg.stall_time = 0.5;
  seg.buffer_before = 1.0;
  seg.buffer_after = 3.0;
  seg.cumulative_stall = 2.25;
  seg.cumulative_stall_events = 3;
  e.session.segments = {seg};
  return e;
}

telemetry::ArchiveManifest golden_archive_manifest() {
  telemetry::ArchiveManifest m;
  m.seed = 20250101;
  m.config_digest = 0xa1b2c3d4u;
  m.users = 3;
  m.days = 4;
  m.sessions_per_user_day = 6;
  m.warmup_sessions = 2;
  m.intervention_day = 1;
  m.enable_lingxi = true;
  m.users_per_shard = 2;
  m.shards = {{0, 2, 5, 640}, {2, 1, 3, 384}};
  return m;
}

telemetry::ArchiveSessionRecord golden_archive_session() {
  telemetry::ArchiveSessionRecord rec;
  rec.user = 2;
  rec.day = 3;
  rec.session_in_day = 5;
  rec.measured = true;
  rec.params_after.stall_penalty = 8.0;
  rec.params_after.switch_penalty = 1.0;
  rec.params_after.hyb_beta = 0.5;
  rec.entry = golden_session();
  return rec;
}

telemetry::ArchiveUserRecord golden_archive_user() {
  telemetry::ArchiveUserRecord rec;
  rec.user = 2;
  rec.tolerable_stall = 3.5;
  rec.adjusted_days = 2;
  rec.stats.triggers = 11;
  rec.stats.optimizations_run = 4;
  rec.stats.pruned_preplay = 1;
  rec.stats.mc_evaluations = 40;
  rec.stats.mc_rollouts_pruned = 7;
  return rec;
}

sim::UserFleetState golden_fleet_user(bool with_lingxi) {
  sim::UserFleetState s;
  s.session_rng.s[0] = 0x0123456789abcdefULL;
  s.session_rng.s[1] = 2;
  s.session_rng.s[2] = 3;
  s.session_rng.s[3] = 0xfedcba9876543210ULL;
  s.session_rng.cached_normal = -0.5;
  s.session_rng.has_cached_normal = true;
  s.params.stall_penalty = 7.0;
  s.params.switch_penalty = 1.0;
  s.params.hyb_beta = 0.25;
  s.adjusted_days = 1;
  s.has_lingxi = with_lingxi;
  if (with_lingxi) {
    core::LingXi::PersistentState& lx = s.lingxi;
    lx.engagement.long_term.stall_durations = {2.0};
    lx.engagement.long_term.stall_intervals = {};
    lx.engagement.long_term.stall_exit_intervals = {60.0, 90.0};
    lx.engagement.long_term.total_watch_time = 500.0;
    lx.engagement.long_term.total_stall_events = 6;
    lx.engagement.long_term.total_stall_exits = 2;
    lx.engagement.last_stall_at = 12.0;
    lx.engagement.last_stall_exit_at = -1.0;
    lx.bandwidth_window = {1200.0, 950.5};
    lx.stalls_since_optimization = 2;
    lx.has_optimized = true;
    lx.params.stall_penalty = 7.0;
    lx.params.switch_penalty = 1.0;
    lx.params.hyb_beta = 0.25;
    lx.stats.triggers = 5;
    lx.stats.optimizations_run = 2;
    lx.stats.pruned_preplay = 1;
    lx.stats.mc_evaluations = 12;
    lx.stats.mc_rollouts_pruned = 3;
  }
  return s;
}

snapshot::FleetSnapshot golden_fleet_snapshot() {
  snapshot::FleetSnapshot snap;
  snap.seed = 77;
  snap.resume_digest = 0x5eed5eedu;
  snap.state.next_day = 2;
  snap.state.users = {golden_fleet_user(true), golden_fleet_user(false)};
  snap.state.accumulated.sessions = 24;
  snap.state.accumulated.completed = 20;
  snap.state.accumulated.stall_events = 9;
  snap.state.accumulated.users = 2;
  snap.state.accumulated.watch_ticks = 123456789;
  snap.state.accumulated.adjusted_user_days = 1;
  // Opaque to save_snapshot: only its CRC lands in the manifest.
  snap.net_model = {0x4c, 0x58, 0x4e, 0x43, 1, 2, 3};
  snap.has_capture = true;
  snap.capture.cursors.resize(2);
  snap.capture.cursors[0].tail = {0xde, 0xad, 0xbe, 0xef};
  snap.capture.cursors[0].records = 1;
  snap.capture.cursors[0].next_expected_at_least = (std::uint64_t{1} << 32) | 3;
  snap.capture.cursors[1].records = 0;
  return snap;
}

obs::RegistrySnapshot golden_registry() {
  obs::RegistrySnapshot snap;
  obs::MetricSnapshot rss;
  rss.name = "process.rss_bytes";
  rss.kind = obs::MetricKind::kGauge;
  rss.count = 1;
  rss.value = 1048576.0;
  obs::MetricSnapshot day;
  day.name = "sim.fleet.day";
  day.kind = obs::MetricKind::kGauge;
  day.count = 3;
  day.value = 3.0;
  obs::MetricSnapshot step;
  step.name = "sim.step_us";
  step.kind = obs::MetricKind::kHistogram;
  step.count = 2;
  step.value = 3.5;
  step.min = 1.25;
  step.max = 2.25;
  step.bounds = {1.0, 2.0};
  step.buckets = {0, 1, 1};
  snap.metrics = {rss, day, step};
  return snap;
}

// ---------------------------------------------------------------------------
// Golden literals. LXRC/LXTL: captured before the shared-codec refactor.
// ---------------------------------------------------------------------------

constexpr const char* kSessionLogRecordHex =
    "4c58524302000000980000000900000000000000815101000000000000000000"
    "00003e40010000000000000000002940000000000000e83f0000000000000240"
    "03000000040000000000000000e89c4001000000020000000000000000001040"
    "0000000000e89c4000000000903a2c410000000000c1a240000000000000f83f"
    "000000000000e03f000000000000f03f00000000000008400000000000000240"
    "030000002613796b";
constexpr const char* kArchiveManifestHex =
    "01000000f5fd340100000000d4c3b2a103000000000000000400000000000000"
    "0600000000000000020000000000000001000000000000000100000002000000"
    "0000000002000000000000000000000000000000020000000000000005000000"
    "0000000080020000000000000200000000000000010000000000000003000000"
    "000000008001000000000000";
constexpr const char* kArchiveManifestFileHex =
    "4c585243020000008c00000001000000f5fd340100000000d4c3b2a103000000"
    "0000000004000000000000000600000000000000020000000000000001000000"
    "0000000001000000020000000000000002000000000000000000000000000000"
    "0200000000000000050000000000000080020000000000000200000000000000"
    "010000000000000003000000000000008001000000000000837fe148";
constexpr const char* kArchiveSessionRecordHex =
    "0100000002000000000000000300000005000000010000000000000000002040"
    "000000000000f03f000000000000e03f09000000000000008151010000000000"
    "0000000000003e40010000000000000000002940000000000000e83f00000000"
    "0000024003000000040000000000000000e89c40010000000200000000000000"
    "000010400000000000e89c4000000000903a2c410000000000c1a24000000000"
    "0000f83f000000000000e03f000000000000f03f000000000000084000000000"
    "0000024003000000";
constexpr const char* kArchiveUserRecordHex =
    "0200000002000000000000000000000000000c4002000000000000000b000000"
    "0000000004000000000000000100000000000000280000000000000007000000"
    "00000000";
constexpr std::uint32_t kArchiveChecksum = 0x24d51130u;
constexpr const char* kUserStateLingXiHex =
    "010000000400000000000000efcdab8967452301020000000000000003000000"
    "000000001032547698badcfe000000000000e0bf010000000000000000001c40"
    "000000000000f03f000000000000d03f01000000000000000100000001000000"
    "0000000000000000000000400000000000000000020000000000000000000000"
    "00004e4000000000008056400000000000407f40060000000000000002000000"
    "000000000000000000002840000000000000f0bf020000000000000000000000"
    "00c092400000000000b48d400200000000000000010000000000000000001c40"
    "000000000000f03f000000000000d03f05000000000000000200000000000000"
    "01000000000000000c000000000000000300000000000000";
constexpr const char* kUserStatePlainHex =
    "010000000500000000000000efcdab8967452301020000000000000003000000"
    "000000001032547698badcfe000000000000e0bf010000000000000000001c40"
    "000000000000f03f000000000000d03f010000000000000000000000";
constexpr const char* kSnapshotManifestFileHex =
    "4c5852430200000034010000030000004d00000000000000ed5eed5e02000000"
    "0000000002000000000000000200000000000000010000001d02853a01000000"
    "1800000000000000140000000000000000000000000000000000000000000000"
    "0900000000000000000000000000000000000000000000000200000000000000"
    "15cd5b0700000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000010000000000000000000000000000000100000000000000"
    "00000000000000000200000000000000fc010000000000000a8b790e01000000"
    "0000000000000000000000000000000000000000020000000000000004000000"
    "000000005aa39c7c020000000000000004000000000000000000000000000000"
    "d893a074";
constexpr const char* kSnapshotStateFileHex =
    "4c5852430200000018010000010000000000000000000000efcdab8967452301"
    "020000000000000003000000000000001032547698badcfe000000000000e0bf"
    "010000000000000000001c40000000000000f03f000000000000d03f01000000"
    "0000000001000000010000000000000000000000000000400000000000000000"
    "02000000000000000000000000004e4000000000008056400000000000407f40"
    "060000000000000002000000000000000000000000002840000000000000f0bf"
    "02000000000000000000000000c092400000000000b48d400200000000000000"
    "010000000000000000001c40000000000000f03f000000000000d03f05000000"
    "00000000020000000000000001000000000000000c0000000000000003000000"
    "00000000d438c1164c5852430200000024000000020000000000000000000000"
    "010000000000000003000000010000000400000000000000fe8e242c4c585243"
    "020000005c000000010000000100000000000000efcdab896745230102000000"
    "0000000003000000000000001032547698badcfe000000000000e0bf01000000"
    "0000000000001c40000000000000f03f000000000000d03f0100000000000000"
    "0000000005b085e94c5852430200000024000000020000000100000000000000"
    "0000000000000000000000000000000000000000000000001418fc6a";
// The one segment the golden snapshot's capture fills: users [0, 2), days
// [0, 2), user 0's four bytes then user 1's none.
constexpr const char* kSnapshotSegmentName =
    "seg-000000000000004d-5eed5eed-users-0-2-days-0-2.lxcs";
constexpr const char* kSnapshotSegmentHex = "deadbeef";
constexpr const char* kTimelineFileHex =
    "4c58544c010000001e00000000000000160000006c696e6778692e6f62732e74"
    "696d656c696e652f7631cdea8b8e4c58544c01000000f9000000010000000300"
    "00000000000041000000010000000d00000073696d2e666c6565742e64617901"
    "0000000300000000000000000000000000084000000000000000000000000000"
    "0000000000000000000000020000001100000070726f636573732e7273735f62"
    "7974657301000000010000000000000000000000000030410000000000000000"
    "000000000000000000000000000000000b00000073696d2e737465705f757302"
    "00000002000000000000000000000000000c40000000000000f43f0000000000"
    "00024002000000000000000000f03f0000000000000040030000000000000000"
    "000000010000000000000001000000000000003880db684c58544c010000004b"
    "00000002000000030000000000000013000000666c6f6f723a73696d2e666c65"
    "65742e6461790d00000073696d2e666c6565742e646179000000000000084000"
    "00000000001040030000006c6f77f1377fce";

TEST(CodecGolden, SessionLogRecord) {
  std::vector<unsigned char> record;
  logstore::write_record(record, logstore::encode_session(golden_session()));
  EXPECT_EQ(hex(record), kSessionLogRecordHex);
}

TEST(CodecGolden, ArchiveManifest) {
  const telemetry::ArchiveManifest m = golden_archive_manifest();
  EXPECT_EQ(hex(m.encode()), kArchiveManifestHex);
  telemetry::FleetArchive archive;
  archive.manifest = m;
  const std::string dir = temp_path("archive");
  ASSERT_TRUE(archive.write(dir).ok());
  EXPECT_EQ(hex(file_bytes(dir + "/" + telemetry::manifest_filename())),
            kArchiveManifestFileHex);
}

TEST(CodecGolden, ArchiveRecords) {
  EXPECT_EQ(hex(telemetry::encode_session_record(golden_archive_session())),
            kArchiveSessionRecordHex);
  EXPECT_EQ(hex(telemetry::encode_user_record(golden_archive_user())),
            kArchiveUserRecordHex);
}

TEST(CodecGolden, ArchiveChecksum) {
  telemetry::FleetArchive archive;
  archive.manifest = golden_archive_manifest();
  archive.shards = {telemetry::encode_session_record(golden_archive_session()),
                    telemetry::encode_user_record(golden_archive_user())};
  EXPECT_EQ(archive.checksum(), kArchiveChecksum);
}

TEST(CodecGolden, SnapshotUserState) {
  EXPECT_EQ(hex(snapshot::encode_user_state(4, golden_fleet_user(true))),
            kUserStateLingXiHex);
  EXPECT_EQ(hex(snapshot::encode_user_state(5, golden_fleet_user(false))),
            kUserStatePlainHex);
}

TEST(CodecGolden, SnapshotFiles) {
  // Manifest (with net CRC, accumulator and segment table), one state file
  // holding both users' state records, each followed by its capture-cursor
  // record, and the capture segment beside the snapshot directory.
  const std::string dir = temp_path("snapshot") + "/snapshot";
  ASSERT_TRUE(snapshot::save_snapshot(golden_fleet_snapshot(), dir, 2).ok());
  EXPECT_EQ(hex(file_bytes(dir + "/" + snapshot::manifest_filename())),
            kSnapshotManifestFileHex);
  EXPECT_EQ(hex(file_bytes(dir + "/" + snapshot::state_filename(0))), kSnapshotStateFileHex);
  const snapshot::FleetSnapshot golden = golden_fleet_snapshot();
  telemetry::CaptureSegment segment;
  segment.end_day = 2;
  segment.user_bytes = {4, 0};
  EXPECT_EQ(telemetry::segment_filename(golden.seed, golden.resume_digest, segment),
            kSnapshotSegmentName);
  EXPECT_EQ(hex(file_bytes(snapshot::capture_store_dir(dir) + "/" + kSnapshotSegmentName)),
            kSnapshotSegmentHex);
}

TEST(CodecGolden, TimelineFrames) {
  // Schema header frame, one day frame (deterministic + wall-clock sections)
  // and one alert frame.
  const std::string path = temp_path("timeline.bin");
  {
    obs::TimelineWriter writer(path);
    writer.append_day(3, golden_registry());
    obs::HealthAlert alert;
    alert.day = 3;
    alert.rule = "floor:sim.fleet.day";
    alert.metric = "sim.fleet.day";
    alert.observed = 3.0;
    alert.threshold = 4.0;
    alert.message = "low";
    writer.append_alert(alert);
    ASSERT_TRUE(writer.close().ok());
  }
  EXPECT_EQ(hex(file_bytes(path)), kTimelineFileHex);
}

constexpr const char* kModelContainerHex =
    "4c584e4302000000480000000300000002000000010000000200000000000000"
    "000000000000f83f00000000000004c002000000020000000000000001000000"
    "00000000000000000000d03f000000000000104046f2558b";

std::vector<nn::Tensor> golden_tensors() {
  return {nn::Tensor::vector({1.5, -2.5}), nn::Tensor({2, 1}, {0.25, 4.0})};
}

TEST(CodecGolden, NetContainerVersion2) {
  const std::vector<nn::Tensor> t = golden_tensors();
  EXPECT_EQ(hex(nn::serialize_model(nn::kModelKindStallExitNet, {&t[0], &t[1]})),
            kModelContainerHex);
}

// ---------------------------------------------------------------------------
// ByteReader.
// ---------------------------------------------------------------------------

TEST(ByteReader, RoundTripsEveryPrimitive) {
  std::vector<unsigned char> buf;
  put_u32(buf, 0xdeadbeefu);
  put_u64(buf, 0x0123456789abcdefULL);
  put_f64(buf, -3.14159);
  put_str(buf, "lingxi");
  const std::vector<double> xs = {0.5, -1e300};
  put_f64s(buf, xs);
  ByteReader in(buf);
  EXPECT_EQ(in.u32(), 0xdeadbeefu);
  EXPECT_EQ(in.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(in.f64(), -3.14159);
  EXPECT_EQ(in.str(), "lingxi");
  EXPECT_EQ(in.f64s(2), xs);
  EXPECT_TRUE(in.done());
}

TEST(ByteReader, ReadPastEndFailsAndStaysFailed) {
  const std::vector<unsigned char> buf = {1, 2, 3, 4, 5};
  ByteReader in(buf);
  EXPECT_EQ(in.u64(), 0u);
  EXPECT_FALSE(in.ok());
  // Four bytes are still there, but a failed reader never recovers.
  EXPECT_EQ(in.u32(), 0u);
  EXPECT_TRUE(in.bytes(1).empty());
  EXPECT_FALSE(in.ok());
  EXPECT_FALSE(in.done());
}

TEST(ByteReader, StrLongerThanRemainingFailsWithoutAllocating) {
  std::vector<unsigned char> buf;
  put_u32(buf, 0xfffffff0u);
  buf.insert(buf.end(), {'a', 'b', 'c'});
  ByteReader in(buf);
  EXPECT_TRUE(in.str().empty());
  EXPECT_FALSE(in.ok());
}

TEST(ByteReader, CountedReadOverRemainingFailsBeforeResize) {
  std::vector<unsigned char> buf;
  put_f64(buf, 1.0);
  ByteReader in(buf);
  EXPECT_EQ(in.count(2, 8), 0u);
  EXPECT_FALSE(in.ok());
  ByteReader big(buf);
  const std::vector<double> v = big.f64s(std::uint64_t{1} << 40);
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.capacity(), 0u);  // nothing was allocated for the claim
  EXPECT_FALSE(big.ok());
  // Exactly what remains is fine.
  ByteReader exact(buf);
  EXPECT_EQ(exact.count(1, 8), 1u);
  EXPECT_TRUE(exact.ok());
}

TEST(ByteReader, DoneRejectsTrailingBytes) {
  std::vector<unsigned char> buf;
  put_u32(buf, 7);
  buf.push_back(0);
  ByteReader in(buf);
  EXPECT_EQ(in.u32(), 7u);
  EXPECT_TRUE(in.ok());
  EXPECT_EQ(in.remaining(), 1u);
  EXPECT_FALSE(in.done());
}

// ---------------------------------------------------------------------------
// Frames: one corruption table, every magic, both readers.
// ---------------------------------------------------------------------------

struct FrameFormat {
  const char* magic;
  std::uint32_t version;
};

constexpr FrameFormat kFrameFormats[] = {{"LXRC", logstore::kRecordVersion}, {"LXTL", 1}};

void put_u32_at(std::vector<unsigned char>& bytes, std::size_t at, std::uint32_t v) {
  std::vector<unsigned char> le;
  put_u32(le, v);
  std::copy(le.begin(), le.end(), bytes.begin() + static_cast<long>(at));
}

struct FrameCase {
  const char* name;
  void (*mutate)(std::vector<unsigned char>& frame);  // frame carries 8 payload bytes
  const char* error;
};

const FrameCase kFrameCases[] = {
    {"wrong magic", [](auto& f) { f[1] ^= 0x20; }, "magic mismatch"},
    {"wrong version", [](auto& f) { put_u32_at(f, 4, 99); }, "unsupported frame version"},
    {"length over 64 MiB", [](auto& f) { put_u32_at(f, 8, kMaxFramePayload + 1); },
     "exceeds limit"},
    {"empty input", [](auto& f) { f.clear(); }, "truncated frame header"},
    {"truncated header", [](auto& f) { f.resize(11); }, "truncated frame header"},
    {"truncated payload", [](auto& f) { f.resize(12 + 5); }, "truncated frame payload"},
    {"truncated CRC", [](auto& f) { f.resize(f.size() - 1); }, "truncated frame checksum"},
    {"CRC mismatch", [](auto& f) { f[14] ^= 0x01; }, "checksum mismatch"},
};

TEST(Frame, RoundTripsInMemoryAndStreaming) {
  for (const FrameFormat& fmt : kFrameFormats) {
    std::vector<unsigned char> bytes;
    append_frame(bytes, fmt.magic, fmt.version, std::vector<unsigned char>{10});
    append_frame(bytes, fmt.magic, fmt.version, std::vector<unsigned char>{});
    std::size_t pos = 0;
    const auto a = read_frame(bytes, pos, fmt.magic, fmt.version);
    const auto b = read_frame(bytes, pos, fmt.magic, fmt.version);
    ASSERT_TRUE(a.has_value()) << fmt.magic;
    ASSERT_TRUE(b.has_value()) << fmt.magic;
    EXPECT_EQ(std::vector<unsigned char>(a->begin(), a->end()),
              std::vector<unsigned char>{10});
    EXPECT_TRUE(b->empty());
    EXPECT_EQ(pos, bytes.size());
    // The payload is a view into the input, not a copy.
    EXPECT_EQ(a->data(), bytes.data() + 12);

    std::istringstream in(std::string(bytes.begin(), bytes.end()));
    const auto sa = read_frame(in, fmt.magic, fmt.version);
    const auto sb = read_frame(in, fmt.magic, fmt.version);
    ASSERT_TRUE(sa.has_value()) << fmt.magic;
    ASSERT_TRUE(sb.has_value()) << fmt.magic;
    EXPECT_EQ(*sa, std::vector<unsigned char>{10});
    EXPECT_TRUE(sb->empty());
    EXPECT_EQ(in.peek(), std::char_traits<char>::eof());
  }
}

TEST(Frame, LogstoreRecordIsTheLxrcFrame) {
  const std::vector<unsigned char> payload = {1, 2, 3};
  std::vector<unsigned char> record;
  logstore::write_record(record, payload);
  std::vector<unsigned char> frame;
  append_frame(frame, "LXRC", 2, payload);
  EXPECT_EQ(record, frame);
}

TEST(Frame, CorruptionTableRejectsEveryCaseInBothReaders) {
  for (const FrameFormat& fmt : kFrameFormats) {
    for (const FrameCase& c : kFrameCases) {
      std::vector<unsigned char> bytes;
      append_frame(bytes, fmt.magic, fmt.version,
                   std::vector<unsigned char>{1, 2, 3, 4, 5, 6, 7, 8});
      c.mutate(bytes);
      const std::string label = std::string(fmt.magic) + ": " + c.name;

      std::size_t pos = 0;
      const auto mem = read_frame(bytes, pos, fmt.magic, fmt.version);
      ASSERT_FALSE(mem.has_value()) << label;
      EXPECT_EQ(mem.error().code, Error::Code::kCorrupt) << label;
      EXPECT_NE(mem.error().message.find(c.error), std::string::npos)
          << label << ": " << mem.error().message;

      std::istringstream in(std::string(bytes.begin(), bytes.end()));
      const auto stream = read_frame(in, fmt.magic, fmt.version);
      ASSERT_FALSE(stream.has_value()) << label;
      EXPECT_EQ(stream.error().code, Error::Code::kCorrupt) << label;
      EXPECT_NE(stream.error().message.find(c.error), std::string::npos)
          << label << ": " << stream.error().message;
    }
  }
}

// ---------------------------------------------------------------------------
// Hostile lengths behind valid CRCs.
// ---------------------------------------------------------------------------

void expect_corrupt(const Status& s, const std::string& what) {
  ASSERT_FALSE(s.ok()) << what;
  EXPECT_EQ(s.error().code, Error::Code::kCorrupt) << what;
}

template <typename T>
Status status_of(const Expected<T>& e) {
  if (e) return {};
  return e.error();
}

TEST(HostileLengths, SessionSegmentCountFailsOnCountCheck) {
  // The 72-byte session header alone, claiming 2^20 segments.
  logstore::SessionLogEntry e = golden_session();
  e.session.segments.clear();
  std::vector<unsigned char> payload = logstore::encode_session(e);
  ASSERT_EQ(payload.size(), 72u);
  put_u32_at(payload, 68, 1u << 20);
  const auto decoded = logstore::decode_session(payload);
  expect_corrupt(status_of(decoded), "session");
  EXPECT_NE(decoded.error().message.find("segment count exceeds payload"), std::string::npos)
      << decoded.error().message;
  // Same through a CRC-valid session-log record.
  std::vector<unsigned char> log;
  logstore::write_record(log, payload);
  std::size_t pos = 0;
  const auto record = logstore::read_record(log, pos);
  ASSERT_TRUE(record.has_value()) << record.error().message;
  expect_corrupt(status_of(logstore::decode_session(*record)), "session log");
}

TEST(HostileLengths, SnapshotVectorCount) {
  sim::UserFleetState user = golden_fleet_user(true);
  user.lingxi.engagement.long_term.stall_durations.clear();
  std::vector<unsigned char> state = snapshot::encode_user_state(1, user);
  // type, user, 4 rng words, cached normal, flag, 3 params, adjusted days,
  // has_lingxi: the first engagement vector's u64 count follows.
  constexpr std::size_t kFirstVector = 4 + 8 + 32 + 8 + 4 + 24 + 8 + 4;
  put_u32_at(state, kFirstVector, 1u << 20);
  expect_corrupt(status_of(snapshot::decode_user_state(state)), "user state vector");
}

// The golden snapshot's manifest payload ends with its segment table: u64
// segment count, then one segment (u64 first_user, first_day, end_day,
// byte_count; u32 crc; u64 user_count; per-user counts {4, 0}).
constexpr std::size_t kSegmentTableSize = 8 + 4 * 8 + 4 + 8 + 2 * 8;
constexpr std::size_t kSegmentByteCountAt = 8 + 3 * 8;
constexpr std::size_t kSegmentUserBytesAt = 8 + 4 * 8 + 4 + 8;

void put_u64_at(std::vector<unsigned char>& bytes, std::size_t at, std::uint64_t v) {
  std::vector<unsigned char> le;
  put_u64(le, v);
  std::copy(le.begin(), le.end(), bytes.begin() + static_cast<long>(at));
}

struct SegmentCase {
  const char* name;
  /// Patches the segment table (a view of the manifest payload's tail) or
  /// the segment file itself.
  void (*patch)(std::vector<unsigned char>& table, const std::string& segment_path);
  const char* error;
};

const SegmentCase kSegmentCases[] = {
    {"2^40 segments",
     [](auto& t, const auto&) { put_u64_at(t, 0, std::uint64_t{1} << 40); },
     "segment count out of range"},
    {"byte count past the file",
     [](auto& t, const auto&) {
       put_u64_at(t, kSegmentByteCountAt, 5);
       put_u64_at(t, kSegmentUserBytesAt, 5);
     },
     "segment size disagrees"},
    {"per-user counts off the byte count",
     [](auto& t, const auto&) { put_u64_at(t, kSegmentUserBytesAt + 8, 1); },
     "per-user counts"},
    {"missing segment",
     [](auto&, const auto& path) { std::filesystem::remove(path); },
     "segment is missing"},
    {"segment CRC mismatch",
     [](auto&, const auto& path) {
       auto bytes = read_file(path);
       ASSERT_TRUE(bytes.has_value());
       (*bytes)[1] ^= 0x01;
       ASSERT_TRUE(write_file(path, *bytes).ok());
     },
     "segment disagrees with manifest"},
};

TEST(HostileLengths, SnapshotSegmentTable) {
  // Each case corrupts the day-2 checkpoint of a root that also holds a
  // good day-1 checkpoint: load_snapshot answers kCorrupt (never an
  // allocation sized from the hostile count), and recovery falls back.
  for (const SegmentCase& c : kSegmentCases) {
    const std::string root = temp_path("hostile_segments");
    // The golden net bytes are opaque to save_snapshot but not to
    // load_snapshot: these two snapshots carry no net.
    snapshot::FleetSnapshot day1 = golden_fleet_snapshot();
    day1.net_model.clear();
    day1.state.next_day = 1;
    ASSERT_TRUE(snapshot::save_snapshot(day1, root + "/" + snapshot::checkpoint_dirname(1), 2)
                    .ok());
    snapshot::FleetSnapshot day2 = golden_fleet_snapshot();
    day2.net_model.clear();
    ASSERT_TRUE(snapshot::load_snapshot(root + "/" + snapshot::checkpoint_dirname(1)).has_value());
    const std::string dir = root + "/" + snapshot::checkpoint_dirname(2);
    ASSERT_TRUE(snapshot::save_snapshot(day2, dir, 2).ok());

    const std::string manifest = dir + "/" + snapshot::manifest_filename();
    auto framed = read_file(manifest);
    ASSERT_TRUE(framed.has_value());
    std::size_t pos = 0;
    auto record = logstore::read_record(*framed, pos);
    ASSERT_TRUE(record.has_value());
    std::vector<unsigned char> payload(record->begin(), record->end());
    ASSERT_GT(payload.size(), kSegmentTableSize);
    std::vector<unsigned char> table(payload.end() - kSegmentTableSize, payload.end());
    c.patch(table, snapshot::capture_store_dir(dir) + "/" + kSnapshotSegmentName);
    std::copy(table.begin(), table.end(), payload.end() - kSegmentTableSize);
    std::vector<unsigned char> reframed;
    logstore::write_record(reframed, payload);  // a fresh, valid record CRC
    ASSERT_TRUE(write_file(manifest, reframed).ok());

    const Status loaded = status_of(snapshot::load_snapshot(dir));
    expect_corrupt(loaded, c.name);
    if (!loaded.ok()) {
      EXPECT_NE(loaded.error().message.find(c.error), std::string::npos)
          << c.name << ": " << loaded.error().message;
    }
    const auto recovered = snapshot::find_latest_valid(root);
    ASSERT_TRUE(recovered.has_value()) << c.name;
    EXPECT_EQ(recovered->dir, root + "/" + snapshot::checkpoint_dirname(1)) << c.name;
    EXPECT_EQ(recovered->snapshot.state.next_day, 1u) << c.name;
  }
}

TEST(HostileLengths, TimelineMetricCount) {
  // A day record whose wall-clock section claims 2^31 metrics.
  std::vector<unsigned char> header;
  put_u32(header, 0);  // schema record
  put_str(header, obs::kTimelineSchema);
  std::vector<unsigned char> day;
  put_u32(day, 1);  // day record
  put_u64(day, 1);
  put_u32(day, 4);  // deterministic section: 4 bytes, no metrics
  put_u32(day, 0);
  put_u32(day, 0x80000000u);
  std::vector<unsigned char> file;
  append_frame(file, "LXTL", 1, header);
  append_frame(file, "LXTL", 1, day);
  const std::string path = temp_path("hostile_timeline.bin");
  std::ofstream(path, std::ios::binary)
      .write(reinterpret_cast<const char*>(file.data()), static_cast<std::streamsize>(file.size()));
  auto reader = obs::TimelineReader::open(path);
  ASSERT_TRUE(reader.has_value());
  expect_corrupt(status_of(reader->read_all()), "timeline metric count");
}

// ---------------------------------------------------------------------------
// Misrouted archive records and hostile shard tables behind valid CRCs.
// ---------------------------------------------------------------------------

// The golden manifest: users [0, 2) in shard 0, user 2 in shard 1, days
// [0, 4). Each case patches one field of a golden record, restamps its CRC
// and places it first in a shard; behind it, every shard holds one valid
// user record per user it covers.
struct ArchiveCase {
  const char* name;
  std::size_t shard;
  bool user_record;
  std::uint64_t user;
  std::uint32_t day;
  const char* error;
};

const ArchiveCase kArchiveCases[] = {
    {"session user below its shard", 1, false, 1, 3, "outside its shard"},
    {"session user past its shard", 0, false, 2, 3, "outside its shard"},
    {"session user past the fleet", 1, false, 3, 3, "outside its shard"},
    {"user record in the wrong shard", 1, true, 0, 0, "outside its shard"},
    {"user record past the fleet", 1, true, 7, 0, "outside its shard"},
    {"session day past the manifest", 1, false, 2, 4, "past the manifest"},
};

TEST(ArchiveRouting, CorruptionTableRejectsEveryMisroutedRecord) {
  for (const ArchiveCase& c : kArchiveCases) {
    std::vector<unsigned char> payload =
        c.user_record ? telemetry::encode_user_record(golden_archive_user())
                      : telemetry::encode_session_record(golden_archive_session());
    put_u32_at(payload, 4, static_cast<std::uint32_t>(c.user));  // u64 user, low word
    if (!c.user_record) put_u32_at(payload, 12, c.day);

    telemetry::FleetArchive archive;
    archive.manifest = golden_archive_manifest();
    archive.shards.resize(2);
    logstore::write_record(archive.shards[c.shard], payload);
    for (std::size_t i = 0; i < 2; ++i) {
      telemetry::ArchiveShardInfo& shard = archive.manifest.shards[i];
      for (std::uint64_t u = shard.first_user; u < shard.first_user + shard.user_count; ++u) {
        telemetry::ArchiveUserRecord valid = golden_archive_user();
        valid.user = u;
        logstore::write_record(archive.shards[i], telemetry::encode_user_record(valid));
      }
      shard.record_count = shard.user_count + (i == c.shard ? 1 : 0);
      shard.byte_count = archive.shards[i].size();
    }
    const std::string dir = temp_path("misrouted");
    ASSERT_TRUE(archive.write(dir).ok()) << c.name;

    auto reader = telemetry::ArchiveReader::open(dir);
    ASSERT_TRUE(reader.has_value()) << c.name << ": " << reader.error().message;
    std::size_t delivered = 0;
    const auto count = [&](const auto&) { ++delivered; };
    const Status scanned = reader->scan(count, count);
    ASSERT_FALSE(scanned.ok()) << c.name;
    EXPECT_EQ(scanned.error().code, Error::Code::kCorrupt) << c.name;
    EXPECT_NE(scanned.error().message.find(c.error), std::string::npos)
        << c.name << ": " << scanned.error().message;
    // Shards scan in order: only a valid shard 0 reaches the callbacks.
    EXPECT_EQ(delivered, c.shard == 1 ? 2u : 0u) << c.name;
    expect_corrupt(status_of(telemetry::Replay::run(*reader)), c.name);
  }
}

// Hostile shard tables behind a valid manifest CRC, each over a one-shard
// fleet whose shard file holds `file_bytes` zero bytes. At most as many
// users as records, records that fit the claimed bytes and claimed bytes
// equal to the file: open() refuses the rest, before Replay sizes a
// per-user buffer from the manifest's user count. The day count, and users
// x days, are bounded too, before Replay sizes its per-day and per-user-day
// records from them.
struct ManifestCase {
  const char* name;
  std::uint64_t users;
  std::uint64_t record_count;
  std::uint64_t byte_count;
  std::size_t file_bytes;
  std::uint64_t days = 4;
};

constexpr std::uint64_t k40 = std::uint64_t{1} << 40;

const ManifestCase kManifestCases[] = {
    {"2^40 users, no records", k40, 0, 0, 0},
    {"2^40 records in no bytes", k40, k40, 0, 0},
    {"2^40 records in bytes the file lacks", k40, k40, k40 * 84, 0},
    {"byte count one past the file", 1, 1, 85, 84},
    {"2^40 days", 1, 1, 84, 84, k40},
    {"2^9 users x 2^16 days", 512, 512, 512 * 84, 512 * 84, std::uint64_t{1} << 16},
};

TEST(ArchiveManifest, HostileShardTableIsCorruptAtOpen) {
  for (const ManifestCase& c : kManifestCases) {
    telemetry::FleetArchive archive;
    archive.manifest = golden_archive_manifest();
    archive.manifest.users = c.users;
    archive.manifest.days = c.days;
    archive.manifest.users_per_shard = c.users;
    archive.manifest.shards = {{0, c.users, c.record_count, c.byte_count}};
    archive.shards = {std::vector<unsigned char>(c.file_bytes)};
    const std::string dir = temp_path("hostile_manifest");
    ASSERT_TRUE(archive.write(dir).ok()) << c.name;

    const auto reader = telemetry::ArchiveReader::open(dir);
    expect_corrupt(status_of(reader), c.name);
    expect_corrupt(status_of(telemetry::Replay::run(dir)), c.name);
  }
}

// A stall-exit-net container holding one tensor of shape `dims` followed by
// `values` doubles, whatever the shape claims.
std::vector<unsigned char> model_blob(const std::vector<std::uint64_t>& dims,
                                      std::size_t values, bool trailing_byte = false) {
  std::vector<unsigned char> payload;
  put_u32(payload, nn::kModelKindStallExitNet);
  put_u32(payload, 1);  // one tensor
  put_u32(payload, static_cast<std::uint32_t>(dims.size()));
  for (std::uint64_t d : dims) put_u64(payload, d);
  for (std::size_t i = 0; i < values; ++i) put_f64(payload, 1.0);
  if (trailing_byte) payload.push_back(0);
  std::vector<unsigned char> blob;
  append_frame(blob, "LXNC", nn::kModelContainerVersion, payload);
  return blob;
}

Status decode_model(const std::vector<unsigned char>& bytes) {
  return status_of(nn::deserialize_model(nn::kModelKindStallExitNet, bytes));
}

TEST(HostileLengths, TensorShapes) {
  constexpr std::uint64_t k24 = std::uint64_t{1} << 24;
  // Sanity: the builder makes decodable blobs.
  ASSERT_TRUE(decode_model(model_blob({2, 1}, 2)).ok());
  // Rank 0 and rank 4 are out of range; so are dims 0 and 2^24 + 1. Each
  // blob carries enough doubles to pass the tensor-count check first.
  expect_corrupt(decode_model(model_blob({}, 2)), "rank 0");
  expect_corrupt(decode_model(model_blob({1, 1, 1, 1}, 1)), "rank 4");
  expect_corrupt(decode_model(model_blob({0}, 1)), "dim 0");
  expect_corrupt(decode_model(model_blob({k24 + 1}, 1)), "dim 2^24 + 1");
  // 2^48 elements claimed: rejected before any allocation.
  expect_corrupt(decode_model(model_blob({k24, k24, 1}, 2)), "2^24 x 2^24 x 1");
  // 2^72 elements: the product would wrap to 0 in 64 bits.
  expect_corrupt(decode_model(model_blob({k24, k24, k24}, 0)), "2^24 x 2^24 x 2^24");
  expect_corrupt(decode_model(model_blob({2, 1}, 2, true)), "bytes after the last tensor");
  // A huge tensor count with nothing behind it.
  std::vector<unsigned char> payload;
  put_u32(payload, nn::kModelKindStallExitNet);
  put_u32(payload, 0xffffffffu);
  std::vector<unsigned char> blob;
  append_frame(blob, "LXNC", nn::kModelContainerVersion, payload);
  expect_corrupt(decode_model(blob), "tensor count");
  // Bytes after the frame itself.
  std::vector<unsigned char> framed = model_blob({2, 1}, 2);
  framed.push_back(0);
  expect_corrupt(decode_model(framed), "bytes after the frame");
}

TEST(NetContainer, VersionOneBytesAreCorrupt) {
  const std::vector<nn::Tensor> t = golden_tensors();
  std::vector<unsigned char> payload;
  put_u32(payload, nn::kModelKindStallExitNet);
  put_u32(payload, 0);
  std::vector<unsigned char> v1;
  append_frame(v1, "LXNC", 1, payload);
  expect_corrupt(decode_model(v1), "LXNC version 1");
  const auto round = nn::deserialize_model(
      nn::kModelKindStallExitNet, nn::serialize_model(nn::kModelKindStallExitNet, {&t[0]}));
  ASSERT_TRUE(round.has_value());
  EXPECT_EQ((*round)[0][1], -2.5);
}

TEST(NetContainer, WriteFileIsAtomic) {
  const std::vector<nn::Tensor> t = golden_tensors();
  const std::string path = temp_path("weights.lxnw");
  ASSERT_TRUE(write_file(path, nn::serialize_model(nn::kModelKindStallExitNet, {&t[0], &t[1]}))
                  .ok());
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  EXPECT_EQ(hex(file_bytes(path)), kModelContainerHex);
  const auto bytes = read_file(path);
  ASSERT_TRUE(bytes.has_value());
  const auto loaded = nn::deserialize_model(nn::kModelKindStallExitNet, *bytes);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_TRUE((*loaded)[1].same_shape(t[1]));
  const auto missing =
      write_file(temp_path("no_such_dir") + "/w.lxnw",
                 nn::serialize_model(nn::kModelKindStallExitNet, {&t[0]}));
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.error().code, Error::Code::kIo);
}

}  // namespace
}  // namespace lingxi
