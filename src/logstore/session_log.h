// Binary session trajectory logs — the storage behind the paper's offline
// analyses (§2.2's 1.5M playback trajectories).
//
// A SessionLogWriter appends one framed record (logstore/record.h) per
// playback session: user id, timestamp, video length, the session aggregates
// (watch time, exit flag, stall/switch counts, mean bitrate) and the full
// per-segment trace (level, bitrate, size, throughput, download time, stall
// time, buffer). SessionLogReader streams them back. All figures
// that bin per-segment exit behaviour (Fig. 3/4) can be regenerated from
// such a log instead of live simulation.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/expected.h"
#include "sim/session.h"

namespace lingxi::logstore {

struct SessionLogEntry {
  std::uint64_t user_id = 0;
  std::uint64_t timestamp = 0;  ///< seconds since epoch (caller-supplied)
  double video_duration = 0.0;  ///< full video length, seconds
  sim::SessionResult session;

  bool operator==(const SessionLogEntry& other) const;
};

/// Serialize one entry to a record payload (exposed for tests).
std::vector<unsigned char> encode_session(const SessionLogEntry& entry);
/// Append the payload encoding of `entry` to `out` (for records that embed it).
void append_session(std::vector<unsigned char>& out, const SessionLogEntry& entry);
Expected<SessionLogEntry> decode_session(ByteSpan payload);
/// Decode an entry that runs to the end of `in` (trailing bytes are corrupt).
Expected<SessionLogEntry> decode_session(ByteReader& in);

/// Accumulates entries in memory and flushes them as a record stream.
class SessionLogWriter {
 public:
  void append(const SessionLogEntry& entry);
  std::size_t size() const noexcept { return entries_; }
  /// Serialized bytes of everything appended so far.
  const std::vector<unsigned char>& bytes() const noexcept { return bytes_; }
  Status save(const std::string& path) const;

 private:
  std::vector<unsigned char> bytes_;
  std::size_t entries_ = 0;
};

/// Parses a record stream produced by SessionLogWriter.
class SessionLogReader {
 public:
  static Expected<std::vector<SessionLogEntry>> read_bytes(
      const std::vector<unsigned char>& bytes);
  static Expected<std::vector<SessionLogEntry>> load(const std::string& path);
};

}  // namespace lingxi::logstore
