// LXRC framed records: the storage primitive behind the telemetry archive
// and fleet snapshots (and a standalone session-log record: write_record
// over logstore::encode_session).
//
// An LXRC record is one common/bytes.h frame with magic "LXRC" and version 2
// (magic | u32 version | u32 payload_len | payload | u32 crc32(payload)), so
// truncated or bit-flipped files surface as Error::kCorrupt instead of
// silently corrupt fleet state. This replaces the paper's HDF5 long-term
// state files (§4).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "common/expected.h"

namespace lingxi::logstore {

inline constexpr std::string_view kRecordMagic = "LXRC";
// v2: session payloads carry the stall/switch/mean-bitrate aggregates. v1
// files fail the version check instead of being misparsed.
inline constexpr std::uint32_t kRecordVersion = 2;

/// Append one framed record to `out`.
inline void write_record(std::vector<unsigned char>& out, ByteSpan payload) {
  append_frame(out, kRecordMagic, kRecordVersion, payload);
}

/// Read the record starting at `pos` in `bytes`; advances `pos` past it. The
/// payload is a view into `bytes`.
inline Expected<ByteSpan> read_record(ByteSpan bytes, std::size_t& pos) {
  return read_frame(bytes, pos, kRecordMagic, kRecordVersion);
}

/// Streaming form (see read_frame).
inline Expected<std::vector<unsigned char>> read_record(std::istream& in) {
  return read_frame(in, kRecordMagic, kRecordVersion);
}

/// Leading u32 type tag of a typed record payload (archive shards and
/// snapshot state files); 0 when the payload is too short to carry one.
inline std::uint32_t record_type(ByteSpan payload) { return ByteReader(payload).u32(); }

}  // namespace lingxi::logstore
