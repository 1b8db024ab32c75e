// Online Bayesian Optimization (§3.1, Algorithm 1 inner loop).
//
// Works in the unit cube of searched coordinates. Each OBO round:
//   next_candidate() -> maximize the acquisition over a random candidate
//                       grid plus local perturbations of the incumbent;
//   update(x, y)     -> add the Monte Carlo-evaluated exit rate to the GP.
// Warm start: the previous round's optimum is re-seeded as the first
// candidate (the paper's "leverages previously optimized configurations as
// initialization points").
#pragma once

#include <cstddef>
#include <vector>

#include "bayesopt/acquisition.h"
#include "bayesopt/gp.h"
#include "common/rng.h"

namespace lingxi::bayesopt {

class OnlineBayesOpt {
 public:
  struct Config {
    GpConfig gp;
    AcquisitionKind acquisition = AcquisitionKind::kExpectedImprovement;
    std::size_t candidate_grid = 256;  ///< random acquisition candidates
    std::size_t local_perturbations = 32;
    double perturbation_sd = 0.08;
    /// First `bootstrap_samples` candidates are space-filling random draws
    /// (the GP has nothing to say yet).
    std::size_t bootstrap_samples = 2;
  };

  OnlineBayesOpt(std::size_t dimensions, Config config);
  OnlineBayesOpt(std::size_t dimensions);  // default config

  /// Seed the search with a known-good starting point (warm start). Must be
  /// called before the first next_candidate() if used.
  void warm_start(const std::vector<double>& x);

  /// Propose the next point to evaluate.
  std::vector<double> next_candidate(Rng& rng);

  /// Feed back the measured objective (exit rate) for `x`.
  void update(const std::vector<double>& x, double y);

  /// Best observed point / value so far.
  const std::vector<double>& best() const { return gp_.best_x(); }
  double best_value() const { return gp_.best_y(); }
  std::size_t evaluations() const noexcept { return gp_.observations(); }

 private:
  std::size_t dims_;
  Config config_;
  GaussianProcess gp_;
  std::vector<double> warm_start_;
  bool has_warm_start_ = false;
  bool warm_start_used_ = false;
  // Acquisition scratch, reused round to round so the hot path is
  // allocation-free: the flat candidate panel, the batched predictions and
  // the GP solve workspace.
  std::vector<double> candidates_;
  std::vector<GpPrediction> predictions_;
  GpWorkspace ws_;
};

}  // namespace lingxi::bayesopt
