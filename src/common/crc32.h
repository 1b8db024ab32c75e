// CRC-32 (IEEE 802.3 polynomial, reflected).
//
// Computed slicing-by-8 (Kounavis & Berry, ISCC 2005): eight input bytes
// per step through eight 256-entry tables, a byte loop for the tail. Same
// polynomial (0xedb88320) and the same value for every input as the
// classic byte-at-a-time loop, independent of host byte order.
//
// Used by the frame codec (common/bytes.h) to checksum every persisted
// record, so corrupt or truncated files are detected at load time instead of
// poisoning the per-user personalization state.
#pragma once

#include <cstddef>
#include <cstdint>

namespace lingxi {

/// One-shot CRC-32 of `len` bytes at `data`.
std::uint32_t crc32(const void* data, std::size_t len) noexcept;

/// Incremental form: seed with 0, feed chunks, result is identical to
/// the one-shot call over the concatenation.
std::uint32_t crc32_update(std::uint32_t crc, const void* data, std::size_t len) noexcept;

}  // namespace lingxi
