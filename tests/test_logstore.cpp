// Unit tests for lingxi_logstore: session-log error paths, the durable
// per-user state store and the atomic whole-file helpers it writes with. The
// LXRC framing itself is covered by the frame table in test_codec.cpp.
#include <gtest/gtest.h>

#include <filesystem>

#include "common/bytes.h"
#include "logstore/session_log.h"
#include "logstore/state_store.h"

namespace lingxi::logstore {
namespace {

SessionLogEntry sample_entry() {
  SessionLogEntry e;
  e.user_id = 9;
  e.timestamp = 86401;
  e.video_duration = 30.0;
  e.session.exited = true;
  e.session.watch_time = 12.5;
  e.session.startup_delay = 0.8;
  e.session.total_stall = 2.25;
  e.session.stall_events = 3;
  e.session.quality_switches = 4;
  e.session.mean_bitrate = 1850.0;
  sim::SegmentRecord seg;
  seg.level = 2;
  seg.bitrate = 1850.0;
  seg.stall_time = 1.5;
  seg.buffer_after = 3.0;
  e.session.segments = {seg};
  return e;
}

TEST(SessionLog, CodecPreservesSessionAggregates) {
  const SessionLogEntry e = sample_entry();
  const auto decoded = decode_session(encode_session(e));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, e);
  EXPECT_EQ(decoded->session.stall_events, 3u);
  EXPECT_EQ(decoded->session.quality_switches, 4u);
  EXPECT_DOUBLE_EQ(decoded->session.mean_bitrate, 1850.0);
}

TEST(SessionLog, LoadRejectsTruncatedFile) {
  SessionLogWriter writer;
  writer.append(sample_entry());
  const std::string path = ::testing::TempDir() + "/lingxi_session_trunc.bin";
  ASSERT_TRUE(writer.save(path).ok());
  auto bytes = read_file(path);
  ASSERT_TRUE(bytes.has_value());
  bytes->resize(bytes->size() - 5);
  ASSERT_TRUE(write_file(path, *bytes).ok());
  const auto loaded = SessionLogReader::load(path);
  ASSERT_FALSE(loaded.has_value());
  EXPECT_EQ(loaded.error().code, Error::Code::kCorrupt);
}

TEST(SessionLog, LoadRejectsFlippedCrcByte) {
  SessionLogWriter writer;
  writer.append(sample_entry());
  const std::string path = ::testing::TempDir() + "/lingxi_session_crc.bin";
  ASSERT_TRUE(writer.save(path).ok());
  auto bytes = read_file(path);
  ASSERT_TRUE(bytes.has_value());
  bytes->back() ^= 0xff;  // last byte of the trailing CRC
  ASSERT_TRUE(write_file(path, *bytes).ok());
  const auto loaded = SessionLogReader::load(path);
  ASSERT_FALSE(loaded.has_value());
  EXPECT_EQ(loaded.error().code, Error::Code::kCorrupt);
}

TEST(SessionLog, LoadRejectsBadRecordVersion) {
  SessionLogWriter writer;
  writer.append(sample_entry());
  const std::string path = ::testing::TempDir() + "/lingxi_session_version.bin";
  ASSERT_TRUE(writer.save(path).ok());
  auto bytes = read_file(path);
  ASSERT_TRUE(bytes.has_value());
  (*bytes)[4] = 0x63;  // record version field
  ASSERT_TRUE(write_file(path, *bytes).ok());
  const auto loaded = SessionLogReader::load(path);
  ASSERT_FALSE(loaded.has_value());
  EXPECT_EQ(loaded.error().code, Error::Code::kCorrupt);
}

UserState sample_state() {
  UserState s;
  s.engagement.stall_durations = {1.5, 3.25};
  s.engagement.stall_intervals = {42.0};
  s.engagement.stall_exit_intervals = {100.0, 250.0, 400.0};
  s.engagement.total_watch_time = 1234.5;
  s.engagement.total_stall_events = 17;
  s.engagement.total_stall_exits = 3;
  s.best_params.stall_penalty = 9.5;
  s.best_params.switch_penalty = 1.25;
  s.best_params.hyb_beta = 0.65;
  s.has_params = true;
  return s;
}

TEST(StateStore, EncodeDecodeRoundTrip) {
  const UserState s = sample_state();
  const auto payload = StateStore::encode(77, s);
  const auto decoded = StateStore::decode(payload);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->first, 77u);
  EXPECT_EQ(decoded->second, s);
}

TEST(StateStore, DecodeRejectsTruncatedPayload) {
  auto payload = StateStore::encode(1, sample_state());
  payload.resize(payload.size() - 3);
  EXPECT_FALSE(StateStore::decode(payload).has_value());
}

TEST(StateStore, DecodeRejectsTrailingGarbage) {
  auto payload = StateStore::encode(1, sample_state());
  payload.push_back(0xab);
  EXPECT_FALSE(StateStore::decode(payload).has_value());
}

TEST(StateStore, PutGetContains) {
  StateStore store;
  EXPECT_FALSE(store.contains(5));
  store.put(5, sample_state());
  EXPECT_TRUE(store.contains(5));
  const auto got = store.get(5);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, sample_state());
  EXPECT_FALSE(store.get(6).has_value());
}

TEST(StateStore, OverwriteReplaces) {
  StateStore store;
  store.put(1, sample_state());
  UserState other = sample_state();
  other.best_params.hyb_beta = 0.4;
  store.put(1, other);
  EXPECT_DOUBLE_EQ(store.get(1)->best_params.hyb_beta, 0.4);
  EXPECT_EQ(store.size(), 1u);
}

TEST(StateStore, SaveLoadRoundTrip) {
  StateStore store;
  store.put(1, sample_state());
  UserState s2 = sample_state();
  s2.has_params = false;
  s2.engagement.total_stall_events = 99;
  store.put(2, s2);

  const std::string path = ::testing::TempDir() + "/lingxi_state_store.bin";
  ASSERT_TRUE(store.save(path).ok());

  StateStore loaded;
  ASSERT_TRUE(loaded.load(path).ok());
  EXPECT_EQ(loaded.size(), 2u);
  EXPECT_EQ(*loaded.get(1), sample_state());
  EXPECT_EQ(*loaded.get(2), s2);
}

TEST(StateStore, LoadMissingFileIsIoError) {
  StateStore store;
  const auto status = store.load("/nonexistent/state.bin");
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, Error::Code::kIo);
}

TEST(StateStore, LoadCorruptFileFailsAndPreservesNothingPartial) {
  StateStore store;
  store.put(1, sample_state());
  const std::string path = ::testing::TempDir() + "/lingxi_state_corrupt.bin";
  ASSERT_TRUE(store.save(path).ok());

  // Flip a byte in the middle of the file.
  auto bytes = read_file(path);
  ASSERT_TRUE(bytes.has_value());
  (*bytes)[bytes->size() / 2] ^= 0xff;
  ASSERT_TRUE(write_file(path, *bytes).ok());

  StateStore loaded;
  EXPECT_FALSE(loaded.load(path).ok());
  EXPECT_EQ(loaded.size(), 0u);
}

// ---------------------------------------------------------------------------
// write_file atomicity (temp + fsync + checked close + rename).
// ---------------------------------------------------------------------------

TEST(WriteFile, CommitsAtomicallyAndCleansUpTemp) {
  const std::string path = ::testing::TempDir() + "/lingxi_write_file_atomic.bin";
  std::filesystem::remove(path);
  const std::vector<unsigned char> bytes = {1, 2, 3, 4, 5};
  ASSERT_TRUE(write_file(path, bytes).ok());
  auto back = read_file(path);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, bytes);
  // The commit renames the temp file over the target; success must not leave
  // the staging name behind.
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));

  // Rewriting replaces the previous content through the same protocol.
  const std::vector<unsigned char> next = {9, 8, 7};
  ASSERT_TRUE(write_file(path, next).ok());
  back = read_file(path);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, next);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST(WriteFile, OpenFailureIsIoErrorNamingTheStage) {
  const std::string path =
      ::testing::TempDir() + "/lingxi_no_such_dir/write_file.bin";
  const auto status = write_file(path, {1, 2, 3});
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, Error::Code::kIo);
  EXPECT_NE(status.error().message.find("cannot open"), std::string::npos);
}

TEST(WriteFile, RenameFailureIsDistinctErrorAndRemovesTemp) {
  // A directory at the target path makes the final rename fail (the write
  // itself succeeds), exercising the commit stage's distinct error.
  const std::string path = ::testing::TempDir() + "/lingxi_write_file_dir_target";
  std::filesystem::remove_all(path);
  std::filesystem::create_directories(path + "/occupied");
  const auto status = write_file(path, {1, 2, 3});
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, Error::Code::kIo);
  EXPECT_NE(status.error().message.find("rename failed"), std::string::npos);
  // The failed commit does not strand its staging file.
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::filesystem::remove_all(path);
}

TEST(FsyncDirectory, SucceedsOnRealDirAndFailsOnMissing) {
  EXPECT_TRUE(fsync_directory(::testing::TempDir()).ok());
  const auto status = fsync_directory(::testing::TempDir() + "/lingxi_absent_dir");
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, Error::Code::kIo);
}

}  // namespace
}  // namespace lingxi::logstore
