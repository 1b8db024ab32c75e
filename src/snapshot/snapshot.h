// Fleet snapshot/checkpoint subsystem — warm-start & incremental-day runs.
//
// A snapshot serializes the complete evolving state of a fleet at a day
// boundary (sim::FleetDayState: per-user engagement, bandwidth windows,
// trigger counters, adopted QoE parameters, optimizer counters, rng stream
// positions, plus the merged FleetAccumulator), the predictor net weights
// (a versioned nn model container) and, optionally, the telemetry capture's
// position — so a later process can resume the fleet at day D and produce
// results bitwise identical to a run that never stopped (the parity harness
// in tests/test_properties.cpp and the scripts/ci.sh smoke pin this).
//
// ## Snapshot format spec (version 3)
//
// v3: captured telemetry bytes moved out of the snapshot directory into an
// append-only segment store shared by every checkpoint beside it; the state
// files keep each capture cursor's counters and byte length, and the
// manifest lists the segments that hold the bytes. v1 and v2 snapshots fail
// the version check rather than misparse.
//
// The segment store belongs to the capture: telemetry/capture.h defines the
// segments, their names and their read-back, and ShardedCapture::commit
// appends to it. This layer only decides where the store lives (beside the
// snapshot directory) and lists the committed table in the manifest. Loading
// checks every listed segment (size, then CRC streamed through a fixed
// buffer) but builds no cursor bytes: a loaded capture position is the
// cursors' counters and lengths plus the table, and finish() reads the
// bytes back when the archive is built.
//
// A snapshot is a directory, mirroring the telemetry archive discipline
// (manifest + framed per-shard files, everything an LXRC record of
// logstore/record.h over the common/bytes.h frame codec, failures surfacing
// through common/expected.h):
//
//   <dir>/manifest.lxm     one framed record
//   <dir>/net.lxnw         optional: nn::serialize model container (LXNC v2)
//                          (kModelKindStallExitNet) with the predictor
//                          factory's net weights; absent when the fleet has
//                          no predictor
//   <dir>/state-NNNN.lxst  framed per-user state records for users
//                          [NNNN * users_per_shard, (NNNN+1) * users_per_shard)
//
// and, when the snapshot carries a capture, the segment store beside it:
//
//   <parent of dir>/capture/seg-<seed>-<digest>-users-<a>-<b>-days-<c>-<d>.lxcs
//                          raw capture bytes of users [a, b) appended during
//                          days [c, d) (telemetry/capture.h; digest: the
//                          manifest's resume_digest)
//
// Manifest payload (little-endian, common/bytes.h codec):
//   u32 format_version    kSnapshotFormatVersion
//   u64 seed              fleet seed the snapshot was taken at
//   u32 resume_digest     telemetry::config_digest over the FleetConfig with
//                         `days` forced to 0 — a resumed run may EXTEND the
//                         calendar (incremental-day experiments) but every
//                         result-shaping knob must match
//   u64 users
//   u64 next_day          first day a resumed run simulates (the boundary D)
//   u64 users_per_shard   state-file granularity (users per state file)
//   u32 has_net           0/1; u32 net_crc — CRC32 of net.lxnw's bytes
//   u32 has_capture       0/1: capture-cursor records follow each user state
//                         and the segment table follows the shard table
//   accumulator           19 u64 fields of the merged FleetAccumulator over
//                         days [0, next_day), declaration order (the last is
//                         the sticky overflow latch)
//   u64 shard_count
//   per shard:            u64 first_user | u64 user_count | u64 byte_count |
//                         u32 crc32(state file bytes)
//   [has_capture]
//   u64 segment_count     <= kMaxCaptureSegments
//   per segment, in append order:
//                         u64 first_user | u64 first_day | u64 end_day |
//                         u64 byte_count | u32 crc32(segment bytes) |
//                         u64 user_count | user_count x u64 per-user byte
//                         counts (summing to byte_count)
//
// A user's captured bytes are the concatenation of its slices of the listed
// segments, in table order; their total must equal the byte length in the
// user's capture cursor record.
//
// State-file record payloads, discriminated by a leading u32 type tag:
//   kUserStateRecord (1):     u64 user | rng (4x u64 state words,
//                             f64 cached normal, u32 has flag) | 3x f64 QoE
//                             params | u64 adjusted_days | u32 has_lingxi |
//                             [lingxi section: engagement snapshot (3 event
//                             vectors as u64 count + f64s, f64 watch time,
//                             u64 stall events, u64 stall exits, 2x f64
//                             interval anchors), bandwidth window (u64 count
//                             + f64s, oldest first), u64 trigger counter,
//                             u32 has_optimized, 3x f64 adopted QoE params
//                             (the controller's warm start — distinct from
//                             the ABR params during an AA period),
//                             5x u64 optimizer counters]
//   kCaptureCursorRecord (2): u64 user | u64 records |
//                             u64 next_expected_at_least | u64 byte_count
//
// Within a state file, records are user-major in ascending user order; when
// has_capture is set each user's state record is followed by that user's
// capture cursor record.
//
// OBO/GP optimizer state is not persisted: a LingXi optimization completes
// within the session that triggered it, so no day-boundary snapshot cuts
// across an OBO round. The next round's GP starts from the persisted warm
// start (LingXi::PersistentState::params).
//
// ## Durability contract (crash-safe commit)
//
// save_snapshot commits a checkpoint transactionally:
//
//   1. capture bytes not yet in the store (the capture's tails) are written
//      as new segments, each file atomic-durable, and the store directory is
//      fsynced: every segment the manifest will list is DURABLE BEFORE THE
//      MANIFEST is written. Segments are immutable; a commit never rewrites
//      one an earlier manifest lists;
//   2. everything else is STAGED into a sibling directory `<dir>.tmp` (a
//      stale staging dir from a crashed save is cleared first);
//   3. state files and the net container are written before the MANIFEST,
//      which is written LAST — a directory with a valid manifest is
//      therefore complete by construction;
//   4. every file write is itself atomic-durable (common/bytes.h write_file:
//      temp file, fsync, checked close, rename) and the staging directory
//      is fsynced before the commit;
//   5. the staging directory is RENAMED into place: onto a fresh `<dir>`
//      directly, or — when re-checkpointing over an existing snapshot —
//      via an atomic exchange (renameat2) with a rename-aside fallback
//      (`<dir>` -> `<dir>.old`, staging -> `<dir>`), so the previous good
//      checkpoint is never clobbered by a torn commit.
//
// A crash (kill -9, power loss, full disk) at ANY point leaves a state
// snapshot::find_latest_valid (checkpoint.h) recovers from: either the new
// checkpoint is fully committed, or the previous one is intact — possibly
// under its `.old`/`.tmp` staging name, which recovery content-validates
// like any other candidate. Torn or partially staged directories fail CRC /
// structural validation and are skipped. A torn commit leaves at most
// orphan segments that no manifest lists; AutoCheckpointer's pruning
// deletes them after the next commit, whose manifest lists the capture's
// whole log.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/expected.h"
#include "sim/fleet_runner.h"
#include "telemetry/capture.h"

namespace lingxi::snapshot {

inline constexpr std::uint32_t kSnapshotFormatVersion = 3;

/// Largest segment table a manifest may list: checked before the table is
/// sized, so a hostile count is Error::kCorrupt, never an allocation (2^20
/// covers a segment per day for 1024 archive shards over 1024 days).
inline constexpr std::uint64_t kMaxCaptureSegments = std::uint64_t{1} << 20;

/// telemetry::config_digest with the calendar length (`days`) zeroed out: a
/// resumed run must match every result-shaping knob but may extend the
/// horizon (that is the point of incremental-day experiments).
using telemetry::resume_digest;

/// A fleet checkpoint materialized in memory: the deterministic output of
/// capture_snapshot() or load_snapshot(), ready to be written out
/// (save_snapshot) or resumed from directly.
struct FleetSnapshot {
  std::uint64_t seed = 0;
  std::uint32_t resume_digest = 0;
  /// Day-boundary state: per-user evolving state + accumulator (next_day=D).
  sim::FleetDayState state;
  /// nn::serialize model container with the predictor net weights; empty
  /// when the fleet runs without a predictor.
  std::vector<unsigned char> net_model;
  /// Telemetry capture position (one cursor per user, and the log) when a
  /// ShardedCapture was snapshotted alongside the fleet. A loaded snapshot's
  /// tails are empty: its bytes are in the log's segments.
  bool has_capture = false;
  telemetry::ShardedCapture::Position capture;
};

/// The parts of every checkpoint of one run that never change, prepared
/// once: seed, resume digest and the serialized predictor net with its CRC
/// (a run's weights never change).
struct RunConstants {
  std::uint64_t seed = 0;
  std::uint32_t resume_digest = 0;
  std::vector<unsigned char> net_model;
  std::uint32_t net_crc = 0;
};

/// File names inside a snapshot directory.
std::string manifest_filename();
std::string state_filename(std::size_t shard_index);
std::string net_filename();

/// The capture segment store of the snapshot directory `dir`: `capture/`
/// beside it, shared by every checkpoint under the same parent.
std::string capture_store_dir(const std::string& dir);

/// Stamp seed and resume digest and serialize the predictor factory's net
/// (the fleet factory is pure configuration, so one container covers every
/// deep copy; empty without a LingXi predictor).
RunConstants run_constants(const sim::FleetRunner& runner, std::uint64_t seed);

/// Assemble a snapshot from a runner's exported day state: run_constants()
/// plus the state and, when given, a copy of `capture`'s position (tails
/// included). Fails with kInvalidArg when the state's user count disagrees
/// with the config.
Expected<FleetSnapshot> capture_snapshot(const sim::FleetRunner& runner,
                                         std::uint64_t seed, sim::FleetDayState state,
                                         const telemetry::ShardedCapture* capture = nullptr);

/// Commit manifest + net + per-shard state files into `dir` transactionally
/// (stage into `<dir>.tmp`, manifest last, fsync, atomic rename — see the
/// durability contract above). `users_per_shard` is the state-file
/// granularity. An existing snapshot at `dir` is replaced atomically and is
/// never clobbered by a torn commit. A captured snapshot writes its tails as
/// one segment per state shard, days [end of its log, next_day), into the
/// store beside `dir`, which must be its log's store unless the log is
/// empty.
Status save_snapshot(const FleetSnapshot& snapshot, const std::string& dir,
                     std::size_t users_per_shard = 64);

/// The commit AutoCheckpointer makes at each day boundary: `state` with the
/// run's constants and, when `capture` is non-null, the capture committed
/// first (ShardedCapture::commit into the store beside `dir`: only the tails
/// since its previous commit are written, so a commit costs the days since
/// then, not the history) and its cursors and log listed in the manifest.
Status save_snapshot(const RunConstants& run, const sim::FleetDayState& state,
                     const std::string& dir, std::size_t users_per_shard,
                     telemetry::ShardedCapture* capture);

/// Stages of save_snapshot's commit sequence, in order, as observed by the
/// test-only commit hook (crash-injection harness).
enum class SaveStage {
  kStateFilesStaged,  ///< segments durable; state files + net staged
  kManifestStaged,    ///< manifest written (last) into the staging dir
  kStagingDurable,    ///< staging dir fsynced; the commit rename is next
  kCommitted,         ///< staging renamed into place (cleanup may follow)
};

/// Test-only crash injection: the hook observes every SaveStage; returning
/// false aborts save_snapshot right there (Error::kIo), leaving the partial
/// on-disk state exactly as a crash at that point would — the crash-recovery
/// tests then assert find_latest_valid skips or recovers it. The hook may
/// also raise SIGKILL itself for real kill -9 coverage (bench_crash_recovery
/// does). Pass nullptr to clear. Not thread-safe; set before the run.
using SaveCommitHook = bool (*)(SaveStage);
void set_save_commit_hook(SaveCommitHook hook);

/// Read a snapshot back. Every CRC, version and structural invariant is
/// checked (Error::kCorrupt on mismatch) — including that the net container
/// deserializes, the shard table tiles the user range, and every listed
/// capture segment is present with its size and CRC — so a resumed fleet
/// never starts from silently corrupt state. Segments are streamed, never
/// held: the capture position comes back with empty tails, each cursor's
/// byte length logged, and the manifest's table in the store beside `dir`.
Expected<FleetSnapshot> load_snapshot(const std::string& dir);

/// Names of the capture segment files the manifest in `dir` lists (empty
/// for a snapshot without capture). Fails like load_snapshot on a missing or
/// corrupt manifest; reads nothing else.
Expected<std::vector<std::string>> listed_segment_files(const std::string& dir);

/// Resumability check: seed, user count, result-shaping config digest and
/// day boundary must all line up with the fleet about to resume
/// (kInvalidArg with a specific message otherwise).
Status check_compatible(const FleetSnapshot& snapshot, const sim::FleetConfig& config,
                        std::uint64_t seed);

/// Wrap a predictor factory so every predictor it hands out carries the
/// snapshot's net weights — resume is then robust against factory drift
/// between the saving and resuming processes. With an empty `net_model` the
/// base factory is returned unchanged. The blob must have been validated
/// (load_snapshot does); weight/shape mismatches are a contract violation.
sim::FleetRunner::PredictorFactory resume_predictor_factory(
    sim::FleetRunner::PredictorFactory base, std::vector<unsigned char> net_model);

/// Re-arm a capture for a resumed leg: begin_fleet(config, seed) then
/// restore the snapshot's capture position, so the resumed run appends days
/// [D, ...), its first commit into the same store writes only those days,
/// and finish() emits archive bytes identical to an unsplit run. Pass
/// `snapshot.seed, std::move(snapshot.capture)`. Error::kInvalidArg when the
/// cursor count differs from config.users.
Status restore_capture(telemetry::ShardedCapture& capture, const sim::FleetConfig& config,
                       std::uint64_t seed, telemetry::ShardedCapture::Position position);

/// Per-user state codec (exposed for tests and bench_micro).
std::vector<unsigned char> encode_user_state(std::uint64_t user,
                                             const sim::UserFleetState& state);
Expected<std::pair<std::uint64_t, sim::UserFleetState>> decode_user_state(ByteSpan payload);

}  // namespace lingxi::snapshot
