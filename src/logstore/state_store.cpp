#include "logstore/state_store.h"

#include <utility>

#include "logstore/record.h"

namespace lingxi::logstore {

void StateStore::put(std::uint64_t user_id, UserState state) {
  states_[user_id] = std::move(state);
}

std::optional<UserState> StateStore::get(std::uint64_t user_id) const {
  const auto it = states_.find(user_id);
  if (it == states_.end()) return std::nullopt;
  return it->second;
}

bool StateStore::contains(std::uint64_t user_id) const {
  return states_.find(user_id) != states_.end();
}

std::vector<unsigned char> StateStore::encode(std::uint64_t user_id, const UserState& state) {
  std::vector<unsigned char> p;
  put_u64(p, user_id);
  for (const auto* v : {&state.engagement.stall_durations, &state.engagement.stall_intervals,
                        &state.engagement.stall_exit_intervals}) {
    put_u32(p, static_cast<std::uint32_t>(v->size()));
    put_f64s(p, *v);
  }
  put_f64(p, state.engagement.total_watch_time);
  put_u64(p, state.engagement.total_stall_events);
  put_u64(p, state.engagement.total_stall_exits);
  put_f64(p, state.best_params.stall_penalty);
  put_f64(p, state.best_params.switch_penalty);
  put_f64(p, state.best_params.hyb_beta);
  put_u32(p, state.has_params ? 1u : 0u);
  return p;
}

Expected<std::pair<std::uint64_t, UserState>> StateStore::decode(ByteSpan payload) {
  ByteReader in(payload);
  const std::uint64_t user_id = in.u64();
  UserState s;
  for (auto* v : {&s.engagement.stall_durations, &s.engagement.stall_intervals,
                  &s.engagement.stall_exit_intervals}) {
    *v = in.f64s(in.u32());
  }
  s.engagement.total_watch_time = in.f64();
  s.engagement.total_stall_events = in.u64();
  s.engagement.total_stall_exits = in.u64();
  s.best_params.stall_penalty = in.f64();
  s.best_params.switch_penalty = in.f64();
  s.best_params.hyb_beta = in.f64();
  s.has_params = in.u32() != 0;
  if (!in.done()) return Error::corrupt("malformed user state payload");
  return std::make_pair(user_id, std::move(s));
}

Status StateStore::save(const std::string& path) const {
  std::vector<unsigned char> bytes;
  for (const auto& [id, state] : states_) {
    write_record(bytes, encode(id, state));
  }
  return write_file(path, bytes);
}

Status StateStore::load(const std::string& path) {
  auto bytes = read_file(path);
  if (!bytes) return bytes.error();
  std::unordered_map<std::uint64_t, UserState> loaded;
  std::size_t pos = 0;
  while (pos < bytes->size()) {
    auto payload = read_record(*bytes, pos);
    if (!payload) return payload.error();
    auto entry = StateStore::decode(*payload);
    if (!entry) return entry.error();
    loaded[entry->first] = std::move(entry->second);
  }
  states_ = std::move(loaded);
  return {};
}

}  // namespace lingxi::logstore
