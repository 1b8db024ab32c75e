// Auto-checkpoint policy and crash recovery on top of snapshot.h.
//
// The fleet runner itself stays snapshot-agnostic (sim must not depend on
// snapshot): FleetRunner exposes a generic CheckpointHook called at day
// boundaries, and this layer supplies the policy — where checkpoints live,
// how often they are cut, how many are retained — plus the recovery scan a
// restarted process uses to find the newest intact checkpoint.
//
// Durability model (see snapshot.h for the per-checkpoint commit protocol):
// every checkpoint directory under the root is committed transactionally,
// so after a kill -9 at ANY point the root contains only (a) fully valid
// checkpoint directories, possibly under a `.tmp`/`.old` crash-leftover
// name, (b) torn directories whose manifest is absent or fails
// CRC/structural validation, and (c) the capture segment store
// `<root>/capture/`, which the checkpoints share and which may hold orphan
// segments of a torn commit. find_latest_valid content-validates candidates
// newest first and returns the first recoverable one, so recovery never
// trusts a name over the bytes.
//
// Cost model: a commit writes the user state (O(users)), the net (serialized
// once per checkpointer: a run's weights never change) and only the capture
// bytes recorded since the capture's previous commit, or since the
// checkpoint it was restored from (snapshot::restore_capture re-arms the
// capture on the recovered segment table); earlier days stay in the
// segments the previous manifests already list. Memory follows the same
// rule: the capture buffers only the days since its last commit, so a
// daily cadence holds at most one day of captured bytes.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/expected.h"
#include "sim/fleet_runner.h"
#include "snapshot/snapshot.h"
#include "telemetry/capture.h"

namespace lingxi::snapshot {

/// Where and how often AutoCheckpointer cuts checkpoints.
struct CheckpointPolicy {
  /// Directory holding the checkpoint-day-NNNNNN subdirectories (created on
  /// first checkpoint if absent).
  std::string root;
  /// Cut a checkpoint every k simulated days (FleetRunner interior
  /// boundaries: first_day + k, + 2k, ... < last_day).
  std::size_t every_k_days = 1;
  /// Keep the newest `retain` committed checkpoints; older ones (and their
  /// stale `.tmp`/`.old` siblings) are removed after each commit, then every
  /// segment file in `<root>/capture/` that no manifest under the root lists.
  /// Clamped to at least 1 — the policy never deletes the only recovery
  /// point.
  std::size_t retain = 2;
  /// State-file granularity forwarded to save_snapshot.
  std::size_t users_per_shard = 64;
};

/// Name of the checkpoint directory for a day boundary: "checkpoint-day-"
/// + zero-padded next_day, so lexicographic order is day order.
std::string checkpoint_dirname(std::uint64_t next_day);

/// A recovered checkpoint: the loaded snapshot (its capture position holds
/// the manifest's segment table) and the directory it came from (possibly a
/// `.tmp`/`.old` crash leftover — the bytes, not the name, were validated).
struct RecoveredCheckpoint {
  FleetSnapshot snapshot;
  std::string dir;
};

/// Cuts checkpoints at FleetRunner day boundaries, serving-style: a failed
/// checkpoint is recorded (first error wins, see status()) but never stops
/// the run — a durability gap is recoverable, a killed fleet is not.
///
/// Usage:
///   AutoCheckpointer ckpt(runner, seed, {.root = dir, .every_k_days = 5});
///   ckpt.arm(runner);
///   auto acc = runner.run_days(seed, days);   // checkpoints cut en route
///   if (!ckpt.status()) ...                   // durability report
///
/// The checkpointer borrows the runner and the optional capture; both must
/// outlive it. Each commit commits the capture (ShardedCapture::commit), so
/// a capture restored from a checkpoint under the same root continues that
/// checkpoint's segment table. Not thread-safe: arm on one runner, run on
/// one thread (the hook fires on the run_days caller's thread between legs).
class AutoCheckpointer {
 public:
  AutoCheckpointer(const sim::FleetRunner& runner, std::uint64_t seed,
                   CheckpointPolicy policy, telemetry::ShardedCapture* capture = nullptr);

  /// Install this checkpointer as `runner`'s checkpoint hook with the
  /// policy's cadence. The runner reference must be the one passed to the
  /// constructor (the hook captures `this`).
  void arm(sim::FleetRunner& runner);

  /// First checkpoint failure, if any (OK while everything committed).
  const Status& status() const { return status_; }
  /// Checkpoints successfully committed so far.
  std::size_t checkpoints_committed() const { return committed_dirs_total_; }
  /// Committed checkpoint directories still on disk, oldest first.
  const std::vector<std::string>& committed_dirs() const { return committed_dirs_; }

  /// The hook body (public so tests can drive boundaries directly).
  void on_boundary(const sim::FleetDayState& state);

 private:
  void note_failure(Error error);
  void prune();
  void prune_dirs();
  void prune_segments();

  const sim::FleetRunner* runner_;
  std::uint64_t seed_;
  CheckpointPolicy policy_;
  telemetry::ShardedCapture* capture_;
  /// Seed, digest and serialized net, prepared at the first boundary.
  std::optional<RunConstants> run_;
  Status status_;
  std::vector<std::string> committed_dirs_;
  std::size_t committed_dirs_total_ = 0;
};

/// Scan `root` for the newest recoverable checkpoint. Candidates are ranked
/// by their parsed names — day descending, committed names before
/// `.tmp`/`.old` leftovers of the same day, then name — and loaded in that
/// order; the first that passes load_snapshot's validation (CRCs, version,
/// structure, capture segments) and whose bytes' next_day equals its name's
/// day is returned, so only one snapshot is ever held in memory. kNotFound
/// when nothing under `root` is recoverable, kIo when the root itself cannot
/// be read.
Expected<RecoveredCheckpoint> find_latest_valid(const std::string& root);

}  // namespace lingxi::snapshot
