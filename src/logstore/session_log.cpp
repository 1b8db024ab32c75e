#include "logstore/session_log.h"

namespace lingxi::logstore {

bool SessionLogEntry::operator==(const SessionLogEntry& other) const {
  if (user_id != other.user_id || timestamp != other.timestamp ||
      video_duration != other.video_duration || session.exited != other.session.exited ||
      session.watch_time != other.session.watch_time ||
      session.stall_events != other.session.stall_events ||
      session.quality_switches != other.session.quality_switches ||
      session.mean_bitrate != other.session.mean_bitrate ||
      session.segments.size() != other.session.segments.size()) {
    return false;
  }
  for (std::size_t i = 0; i < session.segments.size(); ++i) {
    const auto& a = session.segments[i];
    const auto& b = other.session.segments[i];
    if (a.level != b.level || a.bitrate != b.bitrate || a.size != b.size ||
        a.throughput != b.throughput || a.download_time != b.download_time ||
        a.stall_time != b.stall_time || a.buffer_after != b.buffer_after) {
      return false;
    }
  }
  return true;
}

namespace {

// u32 level, nine f64 fields, u32 cumulative stall events.
constexpr std::size_t kSegmentWireSize = 4 + 9 * 8 + 4;

}  // namespace

std::vector<unsigned char> encode_session(const SessionLogEntry& entry) {
  std::vector<unsigned char> p;
  append_session(p, entry);
  return p;
}

void append_session(std::vector<unsigned char>& p, const SessionLogEntry& entry) {
  put_u64(p, entry.user_id);
  put_u64(p, entry.timestamp);
  put_f64(p, entry.video_duration);
  put_u32(p, entry.session.exited ? 1u : 0u);
  put_f64(p, entry.session.watch_time);
  put_f64(p, entry.session.startup_delay);
  put_f64(p, entry.session.total_stall);
  put_u32(p, static_cast<std::uint32_t>(entry.session.stall_events));
  put_u32(p, static_cast<std::uint32_t>(entry.session.quality_switches));
  put_f64(p, entry.session.mean_bitrate);
  put_u32(p, static_cast<std::uint32_t>(entry.session.segments.size()));
  for (const auto& seg : entry.session.segments) {
    put_u32(p, static_cast<std::uint32_t>(seg.level));
    put_f64(p, seg.position);
    put_f64(p, seg.bitrate);
    put_f64(p, seg.size);
    put_f64(p, seg.throughput);
    put_f64(p, seg.download_time);
    put_f64(p, seg.stall_time);
    put_f64(p, seg.buffer_before);
    put_f64(p, seg.buffer_after);
    put_f64(p, seg.cumulative_stall);
    put_u32(p, static_cast<std::uint32_t>(seg.cumulative_stall_events));
  }
}

Expected<SessionLogEntry> decode_session(ByteSpan payload) {
  ByteReader in(payload);
  return decode_session(in);
}

Expected<SessionLogEntry> decode_session(ByteReader& in) {
  SessionLogEntry e;
  e.user_id = in.u64();
  e.timestamp = in.u64();
  e.video_duration = in.f64();
  e.session.exited = in.u32() != 0;
  e.session.watch_time = in.f64();
  e.session.startup_delay = in.f64();
  e.session.total_stall = in.f64();
  e.session.stall_events = in.u32();
  e.session.quality_switches = in.u32();
  e.session.mean_bitrate = in.f64();
  const std::uint32_t count = in.u32();
  if (!in.ok()) return Error::corrupt("truncated session header");
  e.session.segments.resize(in.count(count, kSegmentWireSize));
  if (!in.ok()) return Error::corrupt("session segment count exceeds payload");
  for (std::size_t i = 0; i < e.session.segments.size(); ++i) {
    auto& seg = e.session.segments[i];
    seg.index = i;
    seg.level = in.u32();
    seg.position = in.f64();
    seg.bitrate = in.f64();
    seg.size = in.f64();
    seg.throughput = in.f64();
    seg.download_time = in.f64();
    seg.stall_time = in.f64();
    seg.buffer_before = in.f64();
    seg.buffer_after = in.f64();
    seg.cumulative_stall = in.f64();
    seg.cumulative_stall_events = in.u32();
  }
  if (!in.done()) return Error::corrupt("trailing bytes in session payload");
  return e;
}

}  // namespace lingxi::logstore
