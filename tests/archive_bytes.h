// Test helper: a telemetry::FleetArchive materialized — its manifest and
// every shard's bytes, built one shard at a time through visit_shards and
// kept here — so a test can compare archives byte for byte, also after the
// segment store they were built from is gone.
#pragma once

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "telemetry/capture.h"

namespace lingxi::testing_util {

struct ArchiveBytes {
  telemetry::ArchiveManifest manifest;
  std::vector<std::vector<unsigned char>> shards;  ///< index == shard index

  std::uint64_t total_bytes() const noexcept {
    std::uint64_t total = 0;
    for (const auto& shard : shards) total += shard.size();
    return total;
  }
  bool operator==(const ArchiveBytes& other) const {
    return manifest.encode() == other.manifest.encode() && shards == other.shards;
  }
};

/// Every shard of `archive`; a shard that cannot be built is a test failure
/// (and leaves `shards` short).
inline ArchiveBytes materialize(const telemetry::FleetArchive& archive) {
  ArchiveBytes out;
  out.manifest = archive.manifest;
  const Status built = archive.visit_shards([&out](std::size_t, ByteSpan bytes) {
    out.shards.emplace_back(bytes.begin(), bytes.end());
    return Status{};
  });
  if (!built) {
    ADD_FAILURE() << "archive shard build failed: " << built.error().message;
  }
  return out;
}

}  // namespace lingxi::testing_util
