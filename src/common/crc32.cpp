#include "common/crc32.h"

#include <array>

namespace lingxi {
namespace {

constexpr std::uint32_t kPoly = 0xedb88320u;  // reflected IEEE polynomial

using Table = std::array<std::uint32_t, 256>;

// Slicing-by-8 (Kounavis & Berry, ISCC 2005). t[0] is the classic
// byte-at-a-time table; t[s][b] is the CRC of byte b followed by s zero
// bytes, so one step folds eight input bytes through eight independent
// lookups.
constexpr std::array<Table, 8> make_tables() {
  std::array<Table, 8> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? (kPoly ^ (c >> 1)) : (c >> 1);
    t[0][i] = c;
  }
  for (std::size_t s = 1; s < 8; ++s) {
    for (std::size_t b = 0; b < 256; ++b) {
      t[s][b] = t[0][t[s - 1][b] & 0xffu] ^ (t[s - 1][b] >> 8);
    }
  }
  return t;
}

constexpr auto kTables = make_tables();

// Explicit little-endian assembly: the result never depends on host byte
// order, and compilers fold it into one load on little-endian targets.
inline std::uint32_t load_le32(const unsigned char* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) | (static_cast<std::uint32_t>(p[3]) << 24);
}

}  // namespace

std::uint32_t crc32_update(std::uint32_t crc, const void* data, std::size_t len) noexcept {
  const auto& t = kTables;
  const auto* p = static_cast<const unsigned char*>(data);
  crc = ~crc;
  for (; len >= 8; p += 8, len -= 8) {
    const std::uint32_t lo = load_le32(p) ^ crc;
    const std::uint32_t hi = load_le32(p + 4);
    crc = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^ t[5][(lo >> 16) & 0xffu] ^
          t[4][lo >> 24] ^ t[3][hi & 0xffu] ^ t[2][(hi >> 8) & 0xffu] ^
          t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
  }
  for (; len > 0; ++p, --len) crc = t[0][(crc ^ *p) & 0xffu] ^ (crc >> 8);
  return ~crc;
}

std::uint32_t crc32(const void* data, std::size_t len) noexcept {
  return crc32_update(0u, data, len);
}

}  // namespace lingxi
