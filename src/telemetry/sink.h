// Fleet telemetry capture hooks.
//
// A TelemetrySink observes a sim::FleetRunner run session by session — the
// capture plane of the telemetry subsystem (see archive.h for the on-disk
// format and replay.h for the query side). FleetRunner invokes the sink from
// its worker threads, so implementations must tolerate concurrent calls for
// *different* users; calls for one user always come from a single worker in
// chronological (day, session) order, and record_user() follows that
// user's last session.
//
// The sink sees everything the offline analyses need: the full per-segment
// trajectory of every session (SessionResult), the QoE parameters the ABR
// ended the session with (LingXi's per-user assignments, Figs. 13-15), and a
// per-user summary of LingXi's optimizer counters plus the model's
// ground-truth stall tolerance.
#pragma once

#include <cstdint>

#include "abr/qoe.h"
#include "core/lingxi.h"
#include "sim/fleet_runner.h"
#include "sim/session.h"

namespace lingxi::telemetry {

/// Per-session context accompanying a SessionResult.
struct SessionContext {
  std::size_t user_index = 0;
  std::size_t day = 0;
  std::size_t session_in_day = 0;
  /// Past the fleet's warmup window (counts toward measured_* metrics).
  bool measured = false;
  /// Full length of the video served this session, seconds.
  double video_duration = 0.0;
  /// ABR parameters at session end, i.e. after any LingXi update this
  /// session triggered — the per-session assignment of Figs. 13-15.
  abr::QoeParams params_after;
};

/// Per-user summary emitted once, after the user's last session.
struct UserTelemetry {
  std::size_t user_index = 0;
  /// Ground-truth stall tolerance of the base user model (Fig. 15 labels;
  /// archives carry this value, not the day-drifted one).
  double tolerable_stall = 0.0;
  /// User-days that ended off the default parameters.
  std::uint64_t adjusted_days = 0;
  /// LingXi optimizer counters (zero for control fleets).
  core::LingXiStats stats;
};

class TelemetrySink {
 public:
  virtual ~TelemetrySink() = default;

  /// Called once, before any worker starts.
  virtual void begin_fleet(const sim::FleetConfig& config, std::uint64_t seed) = 0;
  /// Called per completed session from worker threads (serial per user).
  virtual void record_session(const SessionContext& ctx,
                              const sim::SessionResult& session) = 0;
  /// Called once per user, after that user's last record_session call.
  virtual void record_user(const UserTelemetry& user) = 0;
};

}  // namespace lingxi::telemetry
