#include "bayesopt/obo.h"

#include <algorithm>

#include "common/assert.h"
#include "obs/timer.h"

namespace lingxi::bayesopt {

OnlineBayesOpt::OnlineBayesOpt(std::size_t dimensions, Config config)
    : dims_(dimensions), config_(config), gp_(config.gp) {
  LINGXI_ASSERT(dims_ >= 1);
  LINGXI_ASSERT(config_.candidate_grid >= 1);
}

OnlineBayesOpt::OnlineBayesOpt(std::size_t dimensions)
    : OnlineBayesOpt(dimensions, Config{}) {}

void OnlineBayesOpt::warm_start(const std::vector<double>& x) {
  LINGXI_ASSERT(x.size() == dims_);
  warm_start_ = x;
  has_warm_start_ = true;
  warm_start_used_ = false;
}

std::vector<double> OnlineBayesOpt::next_candidate(Rng& rng) {
  OBS_TIMED("bayesopt.obo.acquisition_us");
  // The warm-start point is always evaluated first: it anchors the GP at the
  // previous optimum.
  if (has_warm_start_ && !warm_start_used_) {
    warm_start_used_ = true;
    return warm_start_;
  }
  if (gp_.observations() < config_.bootstrap_samples) {
    std::vector<double> x(dims_);
    for (double& v : x) v = rng.uniform();
    return x;
  }

  const double best_y = gp_.best_y();
  const std::vector<double>& incumbent = gp_.best_x();

  // Draw every candidate up front into one flat panel — grid points first,
  // then local perturbations of the incumbent, exactly the order the scalar
  // loop drew them (predict consumes no rng, so hoisting the draws leaves
  // the stream identical) — then evaluate the GP over the whole panel at
  // once and argmax the acquisition with the same strict-> first-max rule.
  const std::size_t total = config_.candidate_grid + config_.local_perturbations;
  candidates_.resize(total * dims_);
  double* c = candidates_.data();
  for (std::size_t i = 0; i < config_.candidate_grid; ++i) {
    for (std::size_t d = 0; d < dims_; ++d) *c++ = rng.uniform();
  }
  for (std::size_t i = 0; i < config_.local_perturbations; ++i) {
    for (std::size_t d = 0; d < dims_; ++d) {
      *c++ = std::clamp(incumbent[d] + rng.normal(0.0, config_.perturbation_sd),
                        0.0, 1.0);
    }
  }

  predictions_.resize(total);
  gp_.predict_batch(candidates_.data(), total, dims_, predictions_.data(), ws_);

  std::size_t best = total;  // sentinel: no candidate taken yet
  double best_acq = -1e300;
  for (std::size_t i = 0; i < total; ++i) {
    const double a = acquisition(config_.acquisition, predictions_[i].mean,
                                 predictions_[i].variance, best_y);
    if (a > best_acq) {
      best_acq = a;
      best = i;
    }
  }
  LINGXI_ASSERT(best < total);
  return std::vector<double>(candidates_.begin() + best * dims_,
                             candidates_.begin() + (best + 1) * dims_);
}

void OnlineBayesOpt::update(const std::vector<double>& x, double y) {
  LINGXI_ASSERT(x.size() == dims_);
  gp_.observe(x, y);
}

}  // namespace lingxi::bayesopt
