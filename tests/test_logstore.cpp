// Unit tests for lingxi_logstore: session-log error paths (a session log is
// a stream of LXRC records over the session payload codec) and the atomic
// whole-file helpers the durable formats write with. The LXRC framing itself
// is covered by the frame table in test_codec.cpp.
#include <gtest/gtest.h>

#include <filesystem>

#include "common/bytes.h"
#include "logstore/record.h"
#include "logstore/session_log.h"

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

/// Write a one-record session log holding sample_entry() to `path`.
void save_sample_log(const std::string& path) {
  std::vector<unsigned char> bytes;
  write_record(bytes, encode_session(sample_entry()));
  ASSERT_TRUE(write_file(path, bytes).ok());
}

/// Decode every record of a session log file; the first failure wins.
Expected<std::vector<SessionLogEntry>> load_log(const std::string& path) {
  auto bytes = read_file(path);
  if (!bytes) return bytes.error();
  std::vector<SessionLogEntry> entries;
  std::size_t pos = 0;
  while (pos < bytes->size()) {
    auto payload = read_record(*bytes, pos);
    if (!payload) return payload.error();
    auto entry = decode_session(*payload);
    if (!entry) return entry.error();
    entries.push_back(std::move(*entry));
  }
  return entries;
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
  const std::string path = ::testing::TempDir() + "/lingxi_session_trunc.bin";
  save_sample_log(path);
  auto bytes = read_file(path);
  ASSERT_TRUE(bytes.has_value());
  bytes->resize(bytes->size() - 5);
  ASSERT_TRUE(write_file(path, *bytes).ok());
  const auto loaded = load_log(path);
  ASSERT_FALSE(loaded.has_value());
  EXPECT_EQ(loaded.error().code, Error::Code::kCorrupt);
}

TEST(SessionLog, LoadRejectsFlippedCrcByte) {
  const std::string path = ::testing::TempDir() + "/lingxi_session_crc.bin";
  save_sample_log(path);
  auto bytes = read_file(path);
  ASSERT_TRUE(bytes.has_value());
  bytes->back() ^= 0xff;  // last byte of the trailing CRC
  ASSERT_TRUE(write_file(path, *bytes).ok());
  const auto loaded = load_log(path);
  ASSERT_FALSE(loaded.has_value());
  EXPECT_EQ(loaded.error().code, Error::Code::kCorrupt);
}

TEST(SessionLog, LoadRejectsBadRecordVersion) {
  const std::string path = ::testing::TempDir() + "/lingxi_session_version.bin";
  save_sample_log(path);
  auto bytes = read_file(path);
  ASSERT_TRUE(bytes.has_value());
  (*bytes)[4] = 0x63;  // record version field
  ASSERT_TRUE(write_file(path, *bytes).ok());
  const auto loaded = load_log(path);
  ASSERT_FALSE(loaded.has_value());
  EXPECT_EQ(loaded.error().code, Error::Code::kCorrupt);
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
  const auto status = write_file(path, std::vector<unsigned char>{1, 2, 3});
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
  const auto status = write_file(path, std::vector<unsigned char>{1, 2, 3});
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
