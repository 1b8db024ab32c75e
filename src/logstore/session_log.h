// The session payload codec: one playback session as bytes — user id,
// timestamp, video length, the session aggregates (watch time, exit flag,
// stall/switch counts, mean bitrate) and the full per-segment trace (level,
// bitrate, size, throughput, download time, stall time, buffer). Telemetry
// archives embed it in every session record (telemetry/archive.h); framed
// with write_record() (logstore/record.h) it is a standalone session-log
// record, the form of the paper's §2.2 playback trajectories.
#pragma once

#include <cstdint>
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

}  // namespace lingxi::logstore
