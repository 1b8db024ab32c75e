// User engagement state: the 5 x 8 input matrix of the exit-rate predictor
// (§3.3 "Input") plus the counters behind it.
//
// Channels (length 8, zero-padded at the front, most recent last):
//   0  bitrate of the last 8 segments            (short-term)
//   1  throughput of the last 8 segments         (short-term)
//   2  durations of the last 8 stall events      (long-term)
//   3  intervals between the last 8 stalls       (long-term)
//   4  intervals between the last 8 stall-exits  (long-term engagement)
//
// Channels 0-1 reset per session; channels 2-4 and the counters persist
// across sessions (they are the long-term state that LingXi::PersistentState
// carries through fleet snapshots, §4 Seamless Integration).
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <vector>

#include "nn/tensor.h"
#include "sim/session.h"

namespace lingxi::predictor {

constexpr std::size_t kChannels = 5;
constexpr std::size_t kHistoryLen = 8;

/// The persistent slice of the engagement state.
struct LongTermState {
  std::vector<double> stall_durations;      ///< last 8, seconds
  std::vector<double> stall_intervals;      ///< last 8, seconds of watch time
  std::vector<double> stall_exit_intervals; ///< last 8, seconds of watch time
  double total_watch_time = 0.0;            ///< cumulative across sessions
  std::uint64_t total_stall_events = 0;
  std::uint64_t total_stall_exits = 0;

  bool operator==(const LongTermState&) const = default;
};

class EngagementState {
 public:
  struct Config {
    Kbps max_bitrate = 4300.0;       ///< bitrate normalization
    Kbps throughput_scale = 8000.0;
    Seconds stall_scale = 10.0;
    Seconds interval_scale = 100.0;
    Seconds exit_interval_scale = 600.0;
    Seconds stall_event_threshold = 0.05;
  };

  EngagementState();  // default config
  explicit EngagementState(Config config);

  /// Start a new playback session: clears short-term channels only.
  void begin_session();

  /// Record a downloaded segment (and any stall it carried).
  void on_segment(const sim::SegmentRecord& segment, Seconds segment_duration);

  /// Record that the user exited during/right after a stall (drives the
  /// stall-exit interval channel and the stall-exit counters).
  void on_stall_exit();

  /// Build the 5x8 normalized input tensor.
  nn::Tensor features() const;

  /// Write the same 5x8 features (row-major, kChannels * kHistoryLen
  /// doubles) into `dst` without allocating — the batched-assembly path.
  /// Channels 2-4 derive only from the long-term event vectors, which change
  /// on stall / stall-exit events rather than per segment, so their rows are
  /// cached and re-derived lazily instead of being rebuilt on every predict.
  void write_features(double* dst) const;

  const LongTermState& long_term() const noexcept { return long_term_; }

  /// Complete cross-session state at a session boundary: the long-term
  /// vectors/counters plus the interval anchors they cannot reproduce (only
  /// the differences are stored in LongTermState). restore(snapshot()) is
  /// exact: every future feature matrix is bitwise identical to the
  /// uncheckpointed continuation. Short-term channels are excluded by
  /// design; they are cleared by the begin_session() that precedes any read,
  /// so a snapshot is only valid between sessions (the fleet snapshots at
  /// day boundaries).
  struct Snapshot {
    LongTermState long_term;
    Seconds last_stall_at = -1.0;
    Seconds last_stall_exit_at = -1.0;

    bool operator==(const Snapshot&) const = default;
  };

  Snapshot snapshot() const;
  void restore(const Snapshot& snapshot);

  std::uint64_t stall_events() const noexcept { return long_term_.total_stall_events; }
  Seconds watch_time() const noexcept { return long_term_.total_watch_time; }

 private:
  void refresh_long_term_rows() const;

  Config config_;
  LongTermState long_term_;
  std::deque<double> bitrates_;     // short-term
  std::deque<double> throughputs_;  // short-term
  Seconds last_stall_at_ = -1.0;    // watch-time timestamp of last stall
  Seconds last_stall_exit_at_ = -1.0;
  // Cached channels 2-4 of the feature matrix, invalidated when the
  // long-term event vectors change.
  mutable std::array<double, 3 * kHistoryLen> long_term_rows_{};
  mutable bool long_term_rows_valid_ = false;
};

}  // namespace lingxi::predictor
