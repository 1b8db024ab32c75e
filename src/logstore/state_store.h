// Durable per-user personalization state (§4 "Seamless Integration").
//
// On app exit the production system serializes each user's long-term state;
// on startup it restores it asynchronously after first render. This store
// keeps, per user id:
//   * the engagement LongTermState feeding the exit predictor, and
//   * the last optimized QoE parameters (OBO warm start for the next round).
// File format: one LXRC record (logstore/record.h) per user entry.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>

#include "abr/qoe.h"
#include "common/bytes.h"
#include "common/expected.h"
#include "predictor/engagement_state.h"

namespace lingxi::logstore {

struct UserState {
  predictor::LongTermState engagement;
  abr::QoeParams best_params;
  bool has_params = false;  ///< OBO has produced an optimum at least once

  bool operator==(const UserState&) const = default;
};

class StateStore {
 public:
  /// In-memory access.
  void put(std::uint64_t user_id, UserState state);
  std::optional<UserState> get(std::uint64_t user_id) const;
  bool contains(std::uint64_t user_id) const;
  std::size_t size() const noexcept { return states_.size(); }
  void clear() { states_.clear(); }

  /// Durable snapshot / restore. Load replaces the in-memory contents.
  Status save(const std::string& path) const;
  Status load(const std::string& path);

  /// Payload codec, exposed for tests.
  static std::vector<unsigned char> encode(std::uint64_t user_id, const UserState& state);
  static Expected<std::pair<std::uint64_t, UserState>> decode(ByteSpan payload);

 private:
  std::unordered_map<std::uint64_t, UserState> states_;
};

}  // namespace lingxi::logstore
