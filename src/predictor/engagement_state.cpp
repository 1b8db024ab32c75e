#include "predictor/engagement_state.h"

#include <algorithm>
#include <cmath>

#include "common/assert.h"

namespace lingxi::predictor {
namespace {

void push_capped(std::vector<double>& v, double x) {
  v.push_back(x);
  if (v.size() > kHistoryLen) v.erase(v.begin());
}

// Right-align: most recent sample in the last column of the length-8 row.
void fill_row(double* row, const std::vector<double>& values, double scale) {
  const std::size_t n = std::min(values.size(), kHistoryLen);
  for (std::size_t i = 0; i < n; ++i) {
    row[kHistoryLen - n + i] = values[values.size() - n + i] / scale;
  }
}

/// Interval channels use a saturating recency encoding exp(-interval/scale):
/// frequent events (short intervals) map near 1, rare ones near 0, and the
/// zero padding of users with no events coincides with "never happens" —
/// which is exactly the informative extreme. A raw interval/scale encoding
/// leaves the personalization signal at 1e-2 magnitude, too weak for the
/// stall-dominant channels not to drown it.
void fill_recency_row(double* row, const std::vector<double>& values, double scale) {
  const std::size_t n = std::min(values.size(), kHistoryLen);
  for (std::size_t i = 0; i < n; ++i) {
    row[kHistoryLen - n + i] = std::exp(-values[values.size() - n + i] / scale);
  }
}

}  // namespace

EngagementState::EngagementState() : EngagementState(Config{}) {}

EngagementState::EngagementState(Config config) : config_(config) {
  LINGXI_ASSERT(config_.max_bitrate > 0.0);
  LINGXI_ASSERT(config_.throughput_scale > 0.0);
}

void EngagementState::begin_session() {
  bitrates_.clear();
  throughputs_.clear();
}

void EngagementState::on_segment(const sim::SegmentRecord& segment, Seconds segment_duration) {
  bitrates_.push_back(segment.bitrate / config_.max_bitrate);
  throughputs_.push_back(segment.throughput / config_.throughput_scale);
  if (bitrates_.size() > kHistoryLen) {
    bitrates_.pop_front();
    throughputs_.pop_front();
  }
  long_term_.total_watch_time += segment_duration;

  if (segment.stall_time > config_.stall_event_threshold) {
    push_capped(long_term_.stall_durations, segment.stall_time);
    const Seconds now = long_term_.total_watch_time;
    if (last_stall_at_ >= 0.0) {
      push_capped(long_term_.stall_intervals, std::max(0.0, now - last_stall_at_));
    }
    last_stall_at_ = now;
    ++long_term_.total_stall_events;
    long_term_rows_valid_ = false;
  }
}

void EngagementState::on_stall_exit() {
  const Seconds now = long_term_.total_watch_time;
  if (last_stall_exit_at_ >= 0.0) {
    push_capped(long_term_.stall_exit_intervals, std::max(0.0, now - last_stall_exit_at_));
  }
  last_stall_exit_at_ = now;
  ++long_term_.total_stall_exits;
  long_term_rows_valid_ = false;
}

void EngagementState::refresh_long_term_rows() const {
  if (long_term_rows_valid_) return;
  long_term_rows_.fill(0.0);
  fill_row(long_term_rows_.data(), long_term_.stall_durations, config_.stall_scale);
  fill_recency_row(long_term_rows_.data() + kHistoryLen, long_term_.stall_intervals,
                   config_.interval_scale);
  fill_recency_row(long_term_rows_.data() + 2 * kHistoryLen,
                   long_term_.stall_exit_intervals, config_.exit_interval_scale);
  long_term_rows_valid_ = true;
}

void EngagementState::write_features(double* dst) const {
  std::fill(dst, dst + 2 * kHistoryLen, 0.0);
  // Short-term channels straight from the deques (bitrate/throughput are
  // normalized at push time), right-aligned like every channel.
  const std::size_t n = bitrates_.size();  // capped at kHistoryLen
  for (std::size_t i = 0; i < n; ++i) {
    dst[kHistoryLen - n + i] = bitrates_[i];
    dst[2 * kHistoryLen - n + i] = throughputs_[i];
  }
  refresh_long_term_rows();
  std::copy(long_term_rows_.begin(), long_term_rows_.end(), dst + 2 * kHistoryLen);
}

nn::Tensor EngagementState::features() const {
  nn::Tensor t({kChannels, kHistoryLen});
  write_features(t.data());
  return t;
}

EngagementState::Snapshot EngagementState::snapshot() const {
  Snapshot s;
  s.long_term = long_term_;
  s.last_stall_at = last_stall_at_;
  s.last_stall_exit_at = last_stall_exit_at_;
  return s;
}

void EngagementState::restore(const Snapshot& snapshot) {
  long_term_ = snapshot.long_term;
  last_stall_at_ = snapshot.last_stall_at;
  last_stall_exit_at_ = snapshot.last_stall_exit_at;
  bitrates_.clear();
  throughputs_.clear();
  long_term_rows_valid_ = false;
}

}  // namespace lingxi::predictor
