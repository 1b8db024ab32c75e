#include "sim/monte_carlo.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <vector>

#include "common/assert.h"

namespace lingxi::sim {
MonteCarloEvaluator::MonteCarloEvaluator(MonteCarloConfig mc_config,
                                         SessionSimulator::Config session_config)
    : mc_config_(mc_config), session_config_(session_config) {
  LINGXI_ASSERT(mc_config_.samples > 0);
  LINGXI_ASSERT(mc_config_.sample_duration > 0.0);
}

trace::Video MonteCarloEvaluator::make_virtual_video(const trace::BitrateLadder& ladder,
                                                     Seconds segment_duration, Rng* rng,
                                                     double vbr_sigma) const {
  const auto segments = static_cast<std::size_t>(
      std::max(1.0, std::ceil(mc_config_.sample_duration / segment_duration)));
  if (rng != nullptr && vbr_sigma > 0.0) {
    return trace::Video::vbr(ladder, segments, segment_duration, vbr_sigma, *rng);
  }
  return trace::Video{ladder, segments, segment_duration};
}

namespace {

/// One rollout of a lockstep chunk: private clones of the ABR and bandwidth
/// model, its own exit model, and the stepper playing it.
struct Rollout {
  std::unique_ptr<abr::AbrAlgorithm> abr;
  std::unique_ptr<trace::BandwidthModel> bw;
  std::unique_ptr<ExitModel> model;
  std::optional<SessionStepper> stepper;
  SessionResult session;
  bool done = false;
};

}  // namespace

MonteCarloResult MonteCarloEvaluator::evaluate_rollouts(
    const trace::Video& virtual_video, const abr::AbrAlgorithm& abr,
    const BatchExitEvaluator& exits, const trace::BandwidthModel& bandwidth,
    Seconds initial_buffer, double best_known_exit_rate, Rng& rng) const {
  SessionSimulator::Config session_config = session_config_;
  session_config.player.startup_buffer = std::max(0.0, initial_buffer);
  const SessionSimulator sim(session_config);
  const MonteCarloConfig& mc = mc_config_;
  const std::size_t max_segments = virtual_video.segment_count();

  // Fork every rollout stream upfront, so the caller's rng advances by
  // exactly `samples` forks however pruning truncates the run.
  std::vector<Rng> streams;
  streams.reserve(mc.samples);
  for (std::size_t m = 0; m < mc.samples; ++m) streams.push_back(rng.fork());

  MonteCarloResult result;
  // Fold one completed rollout; sets `pruned` when pruning stops the
  // evaluation.
  const auto accumulate = [&](const SessionResult& session) {
    result.watched_count += session.segments.size();
    if (session.exited) ++result.exited_count;
    ++result.samples_run;
    if (mc.enable_pruning && result.samples_run >= mc.min_samples_before_prune &&
        std::isfinite(best_known_exit_rate)) {
      // Optimistic bound: every remaining sample watches the full virtual
      // video and never exits.
      const std::size_t remaining = mc.samples - result.samples_run;
      const double optimistic_watched =
          static_cast<double>(result.watched_count + remaining * max_segments);
      const double lower_bound = static_cast<double>(result.exited_count) / optimistic_watched;
      result.pruned = lower_bound > best_known_exit_rate;
    }
  };

  const std::size_t batch = std::max<std::size_t>(1, mc.batch_size);
  std::vector<Rollout> chunk;
  std::vector<std::size_t> parked;  // chunk index per parked query, park order
  std::vector<double> probs;
  for (std::size_t first = 0; first < mc.samples && !result.pruned; first += batch) {
    chunk = std::vector<Rollout>(std::min(batch, mc.samples - first));
    for (std::size_t j = 0; j < chunk.size(); ++j) {
      Rollout& r = chunk[j];
      r.abr = abr.clone();
      r.bw = bandwidth.clone();
      r.model = exits.make_model();
      r.model->begin_session();
      r.stepper.emplace(sim, virtual_video, *r.abr, *r.bw, streams[first + j]);
    }
    // Each live rollout advances until it finishes or parks an expensive
    // exit query (a stalled segment needing the net); cheap queries resolve
    // inline. Rollouts desynchronize freely — each owns its rng, abr,
    // bandwidth and model, so interleaving cannot change any rollout's
    // outcome. Completed rollouts fold in rollout order as soon as the
    // prefix allows, so a prune fires at the same rollout for every batch
    // size and the in-flight tail is abandoned, exactly as a chunk of one
    // never starts it.
    std::size_t folded = 0;
    for (;;) {
      parked.clear();
      for (std::size_t j = 0; j < chunk.size(); ++j) {
        Rollout& r = chunk[j];
        while (!r.done) {
          const SegmentRecord* seg = r.stepper->advance();
          if (seg == nullptr) {
            r.done = true;
            r.session = r.stepper->take_result();
            break;
          }
          double p = 0.0;
          if (!exits.prepare(*r.model, *seg, p)) {
            parked.push_back(j);
            break;
          }
          r.stepper->resolve(p);
        }
      }
      while (folded < chunk.size() && chunk[folded].done && !result.pruned) {
        accumulate(chunk[folded++].session);
      }
      if (result.pruned) {
        exits.discard_parked();
        break;
      }
      if (parked.empty()) break;  // every rollout of the chunk done and folded
      probs.resize(parked.size());
      const std::size_t flushed = exits.flush(probs.data());
      LINGXI_ASSERT(flushed == parked.size());
      for (std::size_t i = 0; i < parked.size(); ++i) {
        chunk[parked[i]].stepper->resolve(probs[i]);
      }
    }
  }
  result.exit_rate = result.watched_count == 0
                         ? 0.0
                         : static_cast<double>(result.exited_count) /
                               static_cast<double>(result.watched_count);
  return result;
}

}  // namespace lingxi::sim
