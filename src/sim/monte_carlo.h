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

#include "abr/abr.h"
#include "common/rng.h"
#include "sim/session.h"

namespace lingxi::sim {

struct MonteCarloConfig {
  std::size_t samples = 32;              ///< M
  Seconds sample_duration = 45.0;        ///< T_sample (mean online video length)
  bool enable_pruning = true;
  std::size_t min_samples_before_prune = 8;
  /// Rollouts evaluate_rollouts() advances in lockstep, with the exit
  /// predictor evaluated once per step as a batch across them; 1 runs one
  /// rollout at a time. Results are bitwise identical for every value — the
  /// parity suite asserts it.
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

  /// Evaluate one candidate — the one implementation of Algorithm 2. The
  /// rollouts run in lockstep chunks of `batch_size`: each live rollout of a
  /// chunk advances until it finishes or parks a stalled exit query in
  /// `exits`, then one exits.flush() evaluates the parked batch and the
  /// parked rollouts resume. Completed rollouts fold into the result in
  /// rollout order, so pruning fires at the same rollout whatever the batch
  /// size; the chunk's in-flight tail is then abandoned
  /// (exits.discard_parked()). `abr` must already carry the candidate QoE
  /// parameters; `exits` hands out per-rollout exit models seeded with the
  /// live user state; `initial_buffer` comes from the live player;
  /// `best_known_exit_rate` enables pruning (pass +inf to disable). Every
  /// rollout gets its own rng stream (exactly `samples` forks are taken from
  /// `rng` upfront, regardless of pruning), its own clone of `abr` and
  /// `bandwidth`, and its own exit model, so the result and the final `rng`
  /// state are bitwise independent of the batch size.
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
  MonteCarloConfig mc_config_;
  SessionSimulator::Config session_config_;
};

}  // namespace lingxi::sim
