// The binary codec behind every on-disk format: little-endian primitives, a
// bounds-checked reader, CRC-framed records and atomic whole-file I/O.
//
// Wire encoding: integers little-endian, doubles as the little-endian bit
// pattern of their IEEE-754 value, strings as u32 length + raw bytes.
//
// Frame layout, shared by every format (only the magic and version differ):
//
//   magic[4] | u32 version | u32 payload_len | payload | u32 crc32(payload)
//
// with payload_len <= kMaxFramePayload (64 MiB). Users: "LXRC" records
// (logstore/record.h: the telemetry archive and snapshots), the "LXTL" health
// timeline (obs/timeline.h) and the "LXNC" net container (nn/serialize.h).
// A wrong magic, wrong version, oversized length, truncation anywhere in the
// frame or a CRC mismatch is Error::kCorrupt, never UB.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/expected.h"

namespace lingxi {

using ByteSpan = std::span<const unsigned char>;

void put_u32(std::vector<unsigned char>& out, std::uint32_t v);
void put_u64(std::vector<unsigned char>& out, std::uint64_t v);
void put_f64(std::vector<unsigned char>& out, double v);
/// u32 length, then the raw bytes.
void put_str(std::vector<unsigned char>& out, std::string_view s);
/// The doubles only; the caller writes whatever count prefix its format uses.
void put_f64s(std::vector<unsigned char>& out, std::span<const double> v);

/// Cursor over a byte span. A read past the end fails, returns zero/empty and
/// latches ok() false; every later read then fails too, so a decoder can read
/// a whole record and check once. Counted reads validate the claimed count
/// against the bytes actually left before anything is sized from it, so a
/// hostile length can never drive an allocation larger than the input.
class ByteReader {
 public:
  explicit ByteReader(ByteSpan bytes) noexcept : bytes_(bytes) {}

  std::uint32_t u32() noexcept;
  std::uint64_t u64() noexcept;
  double f64() noexcept;
  /// u32 length-prefixed string.
  std::string str();
  /// View of the next `n` bytes.
  ByteSpan bytes(std::uint64_t n) noexcept;

  /// `n` when n elements of at least `wire_size` bytes each fit in what
  /// remains; otherwise fails and returns 0.
  std::size_t count(std::uint64_t n, std::size_t wire_size) noexcept;
  /// `n` doubles (a counted read).
  std::vector<double> f64s(std::uint64_t n);

  void fail() noexcept { ok_ = false; }
  bool ok() const noexcept { return ok_; }
  std::size_t remaining() const noexcept { return bytes_.size() - pos_; }
  /// Every read succeeded and no bytes are left over.
  bool done() const noexcept { return ok_ && pos_ == bytes_.size(); }

 private:
  /// Start of the next `n` bytes, consumed; nullptr (and failed) when short.
  const unsigned char* take(std::size_t n) noexcept;

  ByteSpan bytes_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

inline constexpr std::uint32_t kMaxFramePayload = 64u << 20;

/// Append one frame carrying `payload`. `magic` is exactly 4 characters.
void append_frame(std::vector<unsigned char>& out, std::string_view magic,
                  std::uint32_t version, ByteSpan payload);

/// Read the frame at `pos` in `bytes` and advance `pos` past it. The payload
/// is a view into `bytes`.
Expected<ByteSpan> read_frame(ByteSpan bytes, std::size_t& pos, std::string_view magic,
                              std::uint32_t version);

/// Streaming form: read the next frame from `in`. Callers detect a clean end
/// of stream with `in.peek() == EOF` first; a stream that ends inside a frame
/// is Error::kCorrupt.
Expected<std::vector<unsigned char>> read_frame(std::istream& in, std::string_view magic,
                                                std::uint32_t version);

/// Whole-file helpers.
///
/// write_file is atomic and durable: the bytes are written to `<path>.tmp`,
/// flushed to stable storage (fsync) and closed with the result checked
/// (a destructor-close would drop delayed write errors on the floor), then
/// renamed over `path`. A crash, kill -9 or full disk at any point leaves
/// either the old file intact or the new one complete — never a torn
/// mixture — at the cost of a stale `<path>.tmp` that the next successful
/// write replaces. Each failing stage returns a distinct Error::kIo whose
/// message names the stage ("cannot open" / "write failed" / "fsync failed"
/// / "close failed" / "rename failed"), so callers can report which part of
/// the commit tore.
Status write_file(const std::string& path, ByteSpan bytes);
Expected<std::vector<unsigned char>> read_file(const std::string& path);

/// fsync a directory so a just-committed rename inside it survives power
/// loss (the snapshot commit protocol's final durability point).
Status fsync_directory(const std::string& dir);

}  // namespace lingxi
