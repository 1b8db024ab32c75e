// Monte Carlo virtual playback — Algorithm 2 (EvaluateParameters).
//
// Rolls a candidate-parameterized ABR forward through M simulated sessions
// of at most T_sample seconds each, drawing bandwidth from the client's
// fitted N(mu, sigma^2) model and exits from the exit-rate predictor, and
// returns R_exit = exited_count / watched_count.
//
// The evaluator also implements the deployment section's first pruning
// stage: once enough samples ran, if even an exit-free completion of the
// remaining samples could not bring R_exit below the best known alternative,
// evaluation stops early.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <vector>

#include "abr/abr.h"
#include "common/rng.h"
#include "sim/session.h"

namespace lingxi::sim {

struct MonteCarloConfig {
  std::size_t samples = 32;              ///< M
  Seconds sample_duration = 45.0;        ///< T_sample (mean online video length)
  bool enable_pruning = true;
  std::size_t min_samples_before_prune = 8;
  /// Rollouts a RolloutWave advances in lockstep, with the exit predictor
  /// evaluated once per step as a batch across them; 1 is a wave of one.
  /// Results are bitwise identical for every value — the parity suite
  /// asserts it.
  std::size_t batch_size = 1;
};

struct MonteCarloResult {
  double exit_rate = 0.0;
  std::size_t exited_count = 0;
  std::size_t watched_count = 0;
  std::size_t samples_run = 0;
  bool pruned = false;
};

class MonteCarloEvaluator {
 public:
  MonteCarloEvaluator(MonteCarloConfig mc_config, SessionSimulator::Config session_config);

  /// Evaluate one candidate: the blocking form of RolloutWave (below), which
  /// it steps until done — each wave's exits.flush() computes the parked
  /// batch directly. `abr` must already carry the candidate QoE parameters;
  /// `exits` hands out per-rollout exit models seeded with the live user
  /// state; `initial_buffer` comes from the live player;
  /// `best_known_exit_rate` enables pruning (pass +inf to disable). Every
  /// rollout gets its own rng stream (exactly `samples` forks are taken from
  /// `rng` upfront, regardless of pruning), its own clone of `abr` and
  /// `bandwidth`, and its own exit model, so the result and the final `rng`
  /// state are bitwise independent of the batch size and of how the wave is
  /// driven.
  MonteCarloResult evaluate_rollouts(const trace::Video& virtual_video,
                                     const abr::AbrAlgorithm& abr,
                                     const BatchExitEvaluator& exits,
                                     const trace::BandwidthModel& bandwidth,
                                     Seconds initial_buffer, double best_known_exit_rate,
                                     Rng& rng) const;

  /// Convenience: build the virtual video used for rollouts, duration =
  /// T_sample. With an Rng the segments carry VBR size jitter (`vbr_sigma`),
  /// matching the encoded videos the live player actually downloads; without
  /// one the video is CBR.
  trace::Video make_virtual_video(const trace::BitrateLadder& ladder,
                                  Seconds segment_duration, Rng* rng = nullptr,
                                  double vbr_sigma = 0.15) const;

  const MonteCarloConfig& config() const noexcept { return mc_config_; }

 private:
  friend class RolloutWave;  // reads session_config_ to build its simulator

  MonteCarloConfig mc_config_;
  SessionSimulator::Config session_config_;
};

/// Algorithm 2 in resumable form — the one implementation behind
/// MonteCarloEvaluator::evaluate_rollouts and every fleet optimization: one
/// candidate evaluation that can pause whenever its rollouts have parked
/// exit-predictor queries into the BatchExitEvaluator, so a caller may pool
/// the flush across MANY concurrent evaluations (different candidates,
/// different users — the cross-user wave scheduler) instead of flushing per
/// evaluation.
///
/// Protocol: step() advances every live rollout until it either finishes or
/// parks a query into `exits`, folds completed rollouts into the result in
/// rollout order (pruning fires at the same rollout whatever the batch
/// size), and returns true when the evaluation is complete. When
/// it returns false, at least one query is parked; the caller calls step()
/// again, which collects the probabilities via exits.flush() before
/// advancing. When `exits` parks into a pool shared with other evaluations
/// (predictor::ExitQueryPool passed to the evaluator), the caller flushes
/// that pool before the next step(); otherwise exits.flush() evaluates the
/// parked queries itself.
///
/// Rng contract: exactly `samples` forks are taken from `rng` at
/// construction, so the caller's stream advances identically no matter how
/// the evaluation is driven, batched or pruned.
/// All referenced objects must outlive the wave; the wave is neither
/// copyable nor movable (rollout steppers hold pointers into it).
class RolloutWave {
 public:
  RolloutWave(const MonteCarloEvaluator& evaluator, const trace::Video& virtual_video,
              const abr::AbrAlgorithm& abr, const BatchExitEvaluator& exits,
              const trace::BandwidthModel& bandwidth, Seconds initial_buffer,
              double best_known_exit_rate, Rng& rng);
  RolloutWave(const RolloutWave&) = delete;
  RolloutWave& operator=(const RolloutWave&) = delete;

  /// Advance; true = finished (take_result() is valid), false = parked.
  bool step();
  bool finished() const noexcept { return finished_; }
  MonteCarloResult take_result();

 private:
  struct Slot {
    std::unique_ptr<abr::AbrAlgorithm> abr;
    std::unique_ptr<trace::BandwidthModel> bw;
    std::unique_ptr<ExitModel> model;
    std::optional<SessionStepper> stepper;
    SessionResult session;
    bool done = false;
  };

  void start_chunk();
  /// Fold one completed rollout; true when pruning stops the evaluation.
  bool accumulate(const SessionResult& session);
  void finish();

  MonteCarloConfig mc_;
  SessionSimulator sim_;
  const trace::Video& video_;
  const abr::AbrAlgorithm& abr_;
  const BatchExitEvaluator& exits_;
  const trace::BandwidthModel& bandwidth_;
  double best_known_exit_rate_;

  std::vector<Rng> streams_;  ///< one per rollout, forked upfront
  MonteCarloResult result_;
  std::size_t max_segments_ = 0;

  std::vector<Slot> slots_;           ///< current lockstep chunk
  std::vector<std::size_t> parked_;   ///< slot index per parked query, park order
  std::vector<double> probs_;
  std::size_t chunk_first_ = 0;       ///< rollout index of slots_[0]
  std::size_t accumulated_ = 0;       ///< slots_[0, accumulated_) folded in
  bool needs_flush_ = false;
  bool finished_ = false;
};

}  // namespace lingxi::sim
