// ScenarioScript: deterministic world events on the fleet's day timeline.
//
// Every run of the base FleetRunner is a stationary population, but the
// paper's setting is a live production fleet where the world moves: CDN
// degradations hit whole regions, flash crowds arrive for live events,
// users churn in and out mid-experiment, and device cohorts differ in
// stall tolerance. A ScenarioScript layers those events on a fleet run as
// *pure functions of (user, day)*:
//
//   * BandwidthShock — scales a cohort's NetworkProfile mean (and
//     optionally its within-session variability) for a day window;
//   * SessionCurve — diurnal modulation of sessions_per_user_day;
//   * FlashCrowd — a user block is absent until its scripted arrival day,
//     then joins cold (no engagement history, fresh optimizers) against
//     the warm incumbents;
//   * ChurnEvent — a cohort departs at a day boundary and is replaced by
//     fresh arrivals occupying the same user slots (new identity streams);
//   * CohortOverride — maps a cohort onto a different
//     user::UserPopulation::Config (device / tolerance heterogeneity).
//
// Determinism contract: the script is part of FleetConfig, and every event
// effect derives only from (seed, user, day) — never from thread identity,
// shard size or batch composition. Scenario-on runs are
// therefore bitwise identical across the whole scheduling grid, and an
// EMPTY script is byte-for-byte the unscripted run (the runner takes the
// exact pre-scenario code paths when empty()). Replacement arrivals get
// fresh random streams by folding a per-slot generation counter into the
// stream user id (user | generation << kGenerationShift), so generation 0
// reproduces the unscripted streams exactly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/expected.h"
#include "user/user_population.h"

namespace lingxi::scenario {

/// Bit position of the per-slot generation counter inside the stream user
/// id. Limits fleets to 2^40 user slots (checked by validate()) and leaves
/// 24 bits of generation headroom — far beyond any script's churn count.
inline constexpr unsigned kGenerationShift = 40;

/// A deterministic subset of the fleet's user slots: the half-open range
/// [first_user, last_user), optionally thinned to every stride-th slot.
/// Stride-based cohorts interleave across shards, which is exactly what the
/// parity tests want: no cohort boundary may align with a shard boundary.
struct Cohort {
  std::size_t first_user = 0;
  std::size_t last_user = std::numeric_limits<std::size_t>::max();  ///< exclusive
  std::size_t stride = 1;  ///< select every stride-th slot of the range
  std::size_t phase = 0;   ///< offset within the stride, in [0, stride)

  bool contains(std::size_t user) const noexcept {
    return stride > 0 && user >= first_user && user < last_user &&
           (user - first_user) % stride == phase;
  }
};

/// Correlated bandwidth degradation (or boost): for days in
/// [first_day, last_day) the cohort's NetworkProfile mean is scaled by
/// `bandwidth_scale` (clamped to the population's [min, max] band at use
/// site) and its within-session variability by `sd_scale`. Overlapping
/// shocks compose multiplicatively.
struct BandwidthShock {
  Cohort cohort;
  std::size_t first_day = 0;
  std::size_t last_day = 0;  ///< exclusive
  double bandwidth_scale = 1.0;
  double sd_scale = 1.0;
};

/// Diurnal session-count curve: day d runs
/// round(base * multipliers[d % multipliers.size()]) sessions for the
/// cohort. Multiple matching curves compose multiplicatively; a multiplier
/// of 0 yields an inactive day (no sessions, no drift draw).
struct SessionCurve {
  Cohort cohort;
  std::vector<double> multipliers;
};

/// Flash-crowd arrival: the cohort's slots are absent (zero sessions)
/// before `arrival_day` and join cold on it — empty engagement history and
/// warmup counted from their first real session, against warm incumbents.
struct FlashCrowd {
  Cohort cohort;
  std::size_t arrival_day = 0;
};

/// Population churn: at the `day` boundary the cohort's current users
/// depart — their per-user summaries are emitted then, exactly as at the
/// horizon — and fresh replacement users arrive in the same slots with new
/// (seed, user, generation) identity streams and cold optimizers.
struct ChurnEvent {
  Cohort cohort;
  std::size_t day = 0;  ///< must be >= 1: day 0 users are the initial fleet
};

/// Heterogeneous device / tolerance cohort: members sample their user model
/// from `population` instead of FleetConfig::population. Applies to every
/// generation of the slot (device class outlives churn). First matching
/// override wins. Only the runner's DEFAULT user factory honours overrides;
/// a custom set_user_factory bypasses them by design.
struct CohortOverride {
  Cohort cohort;
  user::UserPopulation::Config population;
};

/// An ordered set of scripted world events. The runner never iterates the
/// event lists directly; it asks the pure (user, day) queries below, which
/// is what keeps every effect independent of scheduling.
struct ScenarioScript {
  std::vector<BandwidthShock> shocks;
  std::vector<SessionCurve> curves;
  std::vector<FlashCrowd> flash_crowds;
  std::vector<ChurnEvent> churns;
  std::vector<CohortOverride> cohorts;

  /// True when no event is scripted: the runner must behave byte-for-byte
  /// like the pre-scenario code (it skips the scenario paths entirely).
  bool empty() const noexcept {
    return shocks.empty() && curves.empty() && flash_crowds.empty() &&
           churns.empty() && cohorts.empty();
  }

  // --- Pure (user, day) queries -------------------------------------------

  /// First day the slot is active: the latest matching flash-crowd arrival,
  /// 0 when the slot is part of the initial fleet.
  std::size_t arrival_day(std::size_t user) const noexcept;

  /// Generation occupying the slot STRICTLY BEFORE `day` (churns with
  /// day' < day). This is the construction-time generation of a leg
  /// starting at `day`: a churn scheduled exactly at a leg boundary belongs
  /// to the leg that simulates that day, which is what makes checkpoint
  /// splices bitwise invisible.
  std::size_t generations_before(std::size_t user, std::size_t day) const noexcept;

  /// Generation occupying the slot ON `day` (churns with day' <= day) —
  /// what begin_day() rolls the task forward to.
  std::size_t generations_through(std::size_t user, std::size_t day) const noexcept;

  /// Product of the bandwidth scales of every shock covering (user, day);
  /// 1.0 when none does.
  double bandwidth_scale(std::size_t user, std::size_t day) const noexcept;
  /// Product of the sd scales of every shock covering (user, day).
  double sd_scale(std::size_t user, std::size_t day) const noexcept;

  /// Sessions the slot runs on `day` given the configured base count:
  /// 0 before a flash-crowd arrival, otherwise round(base * curve product),
  /// clamped to the session-stream's 16-bit slot.
  std::size_t sessions_on(std::size_t user, std::size_t day, std::size_t base) const noexcept;

  /// Total sessions the slot ran on days [0, day) — the session_index_
  /// (warmup cursor) of a task starting at `day`. O(day); called once per
  /// task construction.
  std::size_t sessions_before(std::size_t user, std::size_t day, std::size_t base) const noexcept;

  /// The population config the slot samples its users from, or nullptr for
  /// the fleet default. First matching CohortOverride wins.
  const user::UserPopulation::Config* population_override(std::size_t user) const noexcept;

  /// Structural validation against a fleet shape: day windows inside
  /// [0, days], churn days >= 1, strides > 0, phases < stride, finite
  /// non-negative multipliers and scales, user count under the generation
  /// shift, and every override config normalizable. The runner asserts this
  /// at construction; benches call it directly for a readable error.
  Status validate(std::size_t users, std::size_t days) const;
};

/// The canonical "CDN brownout + flash crowd + churn" demo script shared by
/// bench_scenarios, the golden-fixture test and the docs:
///   * brownout: the first half of the fleet at 45% mean bandwidth for the
///     middle third of the calendar (sd up 1.5x);
///   * flash crowd: the last quarter of the fleet arrives mid-calendar;
///   * churn: the second quarter is replaced two thirds of the way in;
///   * diurnal: a 7-day weekday/weekend session curve over everyone;
///   * device cohort: every 4th slot (phase 1) is a "mobile" cohort with a
///     tolerance mixture shifted low.
/// Requires users >= 8 and days >= 3 so every event lands inside the run.
ScenarioScript canonical_script(std::size_t users, std::size_t days);

}  // namespace lingxi::scenario
