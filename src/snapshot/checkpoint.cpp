#include "snapshot/checkpoint.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <unordered_set>
#include <utility>

#include "obs/metrics.h"
#include "obs/timer.h"

namespace lingxi::snapshot {
namespace {

constexpr const char kDirPrefix[] = "checkpoint-day-";

bool strip_suffix(std::string& name, const char* suffix) {
  const std::size_t n = std::char_traits<char>::length(suffix);
  if (name.size() < n || name.compare(name.size() - n, n, suffix) != 0) return false;
  name.resize(name.size() - n);
  return true;
}

/// Parse "checkpoint-day-NNNNNN[.tmp|.old]"; reports the day and whether the
/// name is a committed one (no crash-leftover suffix). Rejects anything else
/// so pruning and recovery never touch foreign directories.
bool parse_checkpoint_name(std::string name, std::uint64_t& day, bool& committed) {
  committed = !(strip_suffix(name, ".tmp") || strip_suffix(name, ".old"));
  const std::size_t prefix_len = std::char_traits<char>::length(kDirPrefix);
  if (name.size() <= prefix_len || name.compare(0, prefix_len, kDirPrefix) != 0) {
    return false;
  }
  day = 0;
  for (std::size_t i = prefix_len; i < name.size(); ++i) {
    const char c = name[i];
    if (c < '0' || c > '9') return false;
    day = day * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return true;
}

}  // namespace

std::string checkpoint_dirname(std::uint64_t next_day) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%s%06llu", kDirPrefix,
                static_cast<unsigned long long>(next_day));
  return buf;
}

AutoCheckpointer::AutoCheckpointer(const sim::FleetRunner& runner, std::uint64_t seed,
                                   CheckpointPolicy policy,
                                   const telemetry::ShardedCapture* capture)
    : runner_(&runner), seed_(seed), policy_(std::move(policy)), capture_(capture) {
  if (policy_.retain == 0) policy_.retain = 1;
}

void AutoCheckpointer::arm(sim::FleetRunner& runner) {
  runner.set_checkpoint_hook(
      [this](const sim::FleetDayState& state) { on_boundary(state); },
      policy_.every_k_days);
}

void AutoCheckpointer::note_failure(Error error) {
  if (status_) status_ = std::move(error);  // first failure wins
}

void AutoCheckpointer::on_boundary(const sim::FleetDayState& state) {
  OBS_SPAN("checkpoint.commit");
  OBS_TIMED("snapshot.checkpoint.commit_us");
  obs::Registry* const reg = obs::Registry::active();
  std::error_code ec;
  std::filesystem::create_directories(policy_.root, ec);
  if (ec) {
    if (reg != nullptr) reg->add("snapshot.checkpoint.failures");
    note_failure(Error::io("cannot create checkpoint root: " + policy_.root));
    return;
  }
  // The hook only observes the boundary state; capture_snapshot wants its
  // own copy to freeze. The capture cursors are not copied: the commit
  // reads them in place and writes only the bytes past capture_log_.
  auto snap = capture_snapshot(*runner_, seed_, state);
  if (!snap) {
    if (reg != nullptr) reg->add("snapshot.checkpoint.failures");
    note_failure(snap.error());
    return;
  }
  const std::string dir =
      policy_.root + "/" + checkpoint_dirname(state.next_day);
  const Status s =
      capture_ != nullptr
          ? save_snapshot(*snap, dir, policy_.users_per_shard, *capture_, capture_log_)
          : save_snapshot(*snap, dir, policy_.users_per_shard);
  if (!s) {
    if (reg != nullptr) reg->add("snapshot.checkpoint.failures");
    note_failure(s.error());
    return;
  }
  if (reg != nullptr) reg->add("snapshot.checkpoint.committed");
  committed_dirs_.push_back(dir);
  ++committed_dirs_total_;
  prune();
}

void AutoCheckpointer::prune() {
  if (committed_dirs_.size() > policy_.retain) prune_dirs();
  prune_segments();
}

void AutoCheckpointer::prune_dirs() {
  // Cutoff: the oldest day we keep. Everything strictly older goes —
  // including `.tmp`/`.old` crash leftovers, which would otherwise pin disk
  // forever (they only matter until a newer checkpoint commits).
  const std::string& oldest_kept =
      committed_dirs_[committed_dirs_.size() - policy_.retain];
  std::uint64_t cutoff_day = 0;
  bool committed = false;
  if (!parse_checkpoint_name(
          std::filesystem::path(oldest_kept).filename().string(), cutoff_day,
          committed)) {
    return;  // defensive: never prune on an unparseable own entry
  }
  std::error_code ec;
  std::filesystem::directory_iterator it(policy_.root, ec);
  if (ec) return;  // best-effort: pruning failure is not a durability failure
  for (const auto& entry : it) {
    std::uint64_t day = 0;
    if (!parse_checkpoint_name(entry.path().filename().string(), day, committed)) {
      continue;
    }
    if (day < cutoff_day) {
      std::filesystem::remove_all(entry.path(), ec);
      if (!ec) {
        if (obs::Registry* reg = obs::Registry::active()) {
          reg->add("snapshot.checkpoint.pruned_dirs");
        }
      }
    }
  }
  committed_dirs_.erase(committed_dirs_.begin(),
                        committed_dirs_.end() - static_cast<long>(policy_.retain));
}

void AutoCheckpointer::prune_segments() {
  // Every segment some manifest under the root lists stays, whatever the
  // directory's name. A directory without a manifest (torn staging) lists
  // nothing; one whose manifest exists but cannot be read stops the sweep,
  // because its segments may still be needed.
  std::unordered_set<std::string> listed;
  // The one store beside every checkpoint directory under the root.
  const std::string store = capture_store_dir(policy_.root + "/" + checkpoint_dirname(0));
  std::error_code ec;
  std::filesystem::directory_iterator dirs(policy_.root, ec);
  if (ec) return;  // best-effort, like pruning directories
  for (const auto& entry : dirs) {
    const std::string dir = entry.path().string();
    if (!std::filesystem::exists(dir + "/" + manifest_filename(), ec)) continue;
    auto names = listed_segment_files(dir);
    if (!names) {
      if (names.error().code != Error::Code::kCorrupt) return;
      continue;
    }
    listed.insert(names->begin(), names->end());
  }
  std::filesystem::directory_iterator files(store, ec);
  if (ec) return;
  for (const auto& entry : files) {
    const std::string name = entry.path().filename().string();
    // Segment files and write_file's temp leftovers of them; nothing else.
    std::string base = name;
    strip_suffix(base, ".tmp");
    if (base.rfind("seg-", 0) != 0 || !strip_suffix(base, ".lxcs") ||
        listed.count(name) != 0) {
      continue;
    }
    if (std::filesystem::remove(entry.path(), ec) && !ec) {
      if (obs::Registry* reg = obs::Registry::active()) {
        reg->add("snapshot.checkpoint.pruned_segments");
      }
    }
  }
}

Expected<RecoveredCheckpoint> find_latest_valid(const std::string& root) {
  struct Candidate {
    std::uint64_t day = 0;
    bool committed = false;
    std::string name;
  };
  std::error_code ec;
  std::filesystem::directory_iterator it(root, ec);
  if (ec) return Error::io("cannot read checkpoint root: " + root);
  std::vector<Candidate> candidates;
  for (const auto& entry : it) {
    if (!entry.is_directory(ec) || ec) {
      ec.clear();
      continue;
    }
    Candidate c;
    c.name = entry.path().filename().string();
    if (parse_checkpoint_name(c.name, c.day, c.committed)) candidates.push_back(std::move(c));
  }
  std::sort(candidates.begin(), candidates.end(), [](const Candidate& a, const Candidate& b) {
    if (a.day != b.day) return a.day > b.day;
    if (a.committed != b.committed) return a.committed;
    return a.name < b.name;
  });
  obs::Registry* const reg = obs::Registry::active();
  for (const Candidate& c : candidates) {
    if (reg != nullptr) reg->add("snapshot.recovery.candidates");
    // The name told us where to look; the bytes decide whether it counts.
    const std::string dir = root + "/" + c.name;
    auto snap = load_snapshot(dir);
    if (snap && snap->state.next_day == c.day) {
      return RecoveredCheckpoint{std::move(*snap), dir};
    }
    if (reg != nullptr) reg->add("snapshot.recovery.rejected");
  }
  return Error::not_found("no valid checkpoint under: " + root);
}

}  // namespace lingxi::snapshot
