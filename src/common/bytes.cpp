#include "common/bytes.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <istream>

#include "common/assert.h"
#include "common/crc32.h"

namespace lingxi {
namespace {

constexpr std::size_t kFrameHeaderSize = 12;  // magic + version + payload_len

/// Grow `out` by `n` bytes and return where they start.
unsigned char* extend(std::vector<unsigned char>& out, std::size_t n) {
  const std::size_t at = out.size();
  out.resize(at + n);
  return out.data() + at;
}

void store_le(unsigned char* p, std::uint64_t v, int width) {
  for (int i = 0; i < width; ++i) p[i] = static_cast<unsigned char>(v >> (8 * i));
}

std::uint64_t load_le(const unsigned char* p, int width) {
  std::uint64_t v = 0;
  for (int i = 0; i < width; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

std::uint32_t load_u32(const unsigned char* p) {
  return static_cast<std::uint32_t>(load_le(p, 4));
}

Error frame_error(std::string_view magic, const std::string& what) {
  return Error::corrupt(std::string(magic) + " frame: " + what);
}

/// Validates a frame header (magic, version, length bound) and returns the
/// payload length. The in-memory and streaming readers both go through here,
/// so they cannot disagree on what a valid frame is.
Expected<std::uint32_t> parse_frame_header(const unsigned char* header,
                                           std::string_view magic, std::uint32_t version) {
  if (std::memcmp(header, magic.data(), 4) != 0) return frame_error(magic, "magic mismatch");
  const std::uint32_t got = load_u32(header + 4);
  if (got != version) {
    return frame_error(magic, "unsupported frame version " + std::to_string(got));
  }
  const std::uint32_t len = load_u32(header + 8);
  if (len > kMaxFramePayload) {
    return frame_error(magic, "payload length " + std::to_string(len) + " exceeds limit");
  }
  return len;
}

}  // namespace

void put_u32(std::vector<unsigned char>& out, std::uint32_t v) { store_le(extend(out, 4), v, 4); }

void put_u64(std::vector<unsigned char>& out, std::uint64_t v) { store_le(extend(out, 8), v, 8); }

void put_f64(std::vector<unsigned char>& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

void put_str(std::vector<unsigned char>& out, std::string_view s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

void put_f64s(std::vector<unsigned char>& out, std::span<const double> v) {
  unsigned char* p = extend(out, 8 * v.size());
  for (double x : v) {
    store_le(p, std::bit_cast<std::uint64_t>(x), 8);
    p += 8;
  }
}

const unsigned char* ByteReader::take(std::size_t n) noexcept {
  if (!ok_ || n > remaining()) {
    ok_ = false;
    return nullptr;
  }
  const unsigned char* p = bytes_.data() + pos_;
  pos_ += n;
  return p;
}

std::uint32_t ByteReader::u32() noexcept {
  const unsigned char* p = take(4);
  return p == nullptr ? 0 : load_u32(p);
}

std::uint64_t ByteReader::u64() noexcept {
  const unsigned char* p = take(8);
  return p == nullptr ? 0 : load_le(p, 8);
}

double ByteReader::f64() noexcept { return std::bit_cast<double>(u64()); }

std::string ByteReader::str() {
  const ByteSpan s = bytes(u32());
  return {reinterpret_cast<const char*>(s.data()), s.size()};
}

ByteSpan ByteReader::bytes(std::uint64_t n) noexcept {
  const std::size_t len = count(n, 1);
  const unsigned char* p = take(len);
  return p == nullptr ? ByteSpan{} : ByteSpan(p, len);
}

std::size_t ByteReader::count(std::uint64_t n, std::size_t wire_size) noexcept {
  LINGXI_DASSERT(wire_size > 0);
  if (!ok_ || n > remaining() / wire_size) {
    ok_ = false;
    return 0;
  }
  return static_cast<std::size_t>(n);
}

std::vector<double> ByteReader::f64s(std::uint64_t n) {
  std::vector<double> v(count(n, 8));
  for (double& x : v) x = f64();
  return v;
}

void append_frame(std::vector<unsigned char>& out, std::string_view magic,
                  std::uint32_t version, ByteSpan payload) {
  LINGXI_ASSERT(magic.size() == 4 && payload.size() <= kMaxFramePayload);
  out.insert(out.end(), magic.begin(), magic.end());
  put_u32(out, version);
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  out.insert(out.end(), payload.begin(), payload.end());
  put_u32(out, crc32(payload.data(), payload.size()));
}

Expected<ByteSpan> read_frame(ByteSpan bytes, std::size_t& pos, std::string_view magic,
                              std::uint32_t version) {
  LINGXI_ASSERT(magic.size() == 4 && pos <= bytes.size());
  if (bytes.size() - pos < kFrameHeaderSize) return frame_error(magic, "truncated frame header");
  auto len = parse_frame_header(bytes.data() + pos, magic, version);
  if (!len) return len.error();
  const std::size_t body = pos + kFrameHeaderSize;
  if (bytes.size() - body < *len) return frame_error(magic, "truncated frame payload");
  if (bytes.size() - body - *len < 4) return frame_error(magic, "truncated frame checksum");
  const ByteSpan payload = bytes.subspan(body, *len);
  if (load_u32(bytes.data() + body + *len) != crc32(payload.data(), payload.size())) {
    return frame_error(magic, "checksum mismatch");
  }
  pos = body + *len + 4;
  return payload;
}

Expected<std::vector<unsigned char>> read_frame(std::istream& in, std::string_view magic,
                                                std::uint32_t version) {
  LINGXI_ASSERT(magic.size() == 4);
  unsigned char header[kFrameHeaderSize];
  in.read(reinterpret_cast<char*>(header), kFrameHeaderSize);
  if (in.gcount() != static_cast<std::streamsize>(kFrameHeaderSize)) {
    return frame_error(magic, "truncated frame header");
  }
  auto len = parse_frame_header(header, magic, version);
  if (!len) return len.error();
  // Payload and CRC in one read; the CRC is then cut off the tail.
  std::vector<unsigned char> payload(std::size_t{*len} + 4);
  in.read(reinterpret_cast<char*>(payload.data()), static_cast<std::streamsize>(payload.size()));
  const auto got = static_cast<std::size_t>(in.gcount());
  if (got < *len) return frame_error(magic, "truncated frame payload");
  if (got < payload.size()) return frame_error(magic, "truncated frame checksum");
  const std::uint32_t stored = load_u32(payload.data() + *len);
  payload.resize(*len);
  if (stored != crc32(payload.data(), payload.size())) {
    return frame_error(magic, "checksum mismatch");
  }
  return payload;
}

Status write_file(const std::string& path, ByteSpan bytes) {
  // Write-to-temp, fsync, close-with-check, rename: the destination is never
  // observable half-written, and a crash at any stage leaves the previous
  // file intact (see bytes.h). POSIX fds rather than ofstream because the
  // durability point (fsync) has no iostream equivalent and ofstream's
  // destructor close silently discards errors.
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return Error::io("cannot open for write: " + tmp);
  std::size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      ::unlink(tmp.c_str());
      return Error::io("write failed: " + tmp);
    }
    written += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    ::unlink(tmp.c_str());
    return Error::io("fsync failed: " + tmp);
  }
  if (::close(fd) != 0) {
    // A deferred write error surfacing at close: the temp file's contents are
    // not trustworthy, so the commit must not happen.
    ::unlink(tmp.c_str());
    return Error::io("close failed: " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return Error::io("rename failed: " + tmp + " -> " + path);
  }
  return {};
}

Expected<std::vector<unsigned char>> read_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Error::io("cannot open: " + path);
  // Sized from fstat plus one spare byte, so a file that does not change
  // while it is read costs one allocation and ends on a zero-byte read.
  struct stat st {};
  const std::size_t hint = ::fstat(fd, &st) == 0 && st.st_size > 0
                               ? static_cast<std::size_t>(st.st_size)
                               : 0;
  std::vector<unsigned char> bytes(hint + 1);
  std::size_t got = 0;
  for (;;) {
    if (got == bytes.size()) bytes.resize(2 * bytes.size());
    const ssize_t n = ::read(fd, bytes.data() + got, bytes.size() - got);
    if (n == 0) break;
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return Error::io("read failed: " + path);
    }
    got += static_cast<std::size_t>(n);
  }
  ::close(fd);
  bytes.resize(got);
  return bytes;
}

Status fsync_directory(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return Error::io("cannot open directory for fsync: " + dir);
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return Error::io("directory fsync failed: " + dir);
  return {};
}

}  // namespace lingxi
