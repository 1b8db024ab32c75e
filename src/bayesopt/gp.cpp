#include "bayesopt/gp.h"

#include <atomic>
#include <cmath>

#include "common/assert.h"
#include "obs/timer.h"

namespace lingxi::bayesopt {
namespace {

// Offset of packed lower-triangular row i.
constexpr std::size_t tri(std::size_t i) { return i * (i + 1) / 2; }

// Set only by set_full_refit_for_testing.
std::atomic<bool> g_full_refit{false};

}  // namespace

void GaussianProcess::set_full_refit_for_testing(bool force) {
  g_full_refit.store(force, std::memory_order_relaxed);
}

GaussianProcess::GaussianProcess() : GaussianProcess(GpConfig{}) {}

GaussianProcess::GaussianProcess(GpConfig config) : config_(config) {
  LINGXI_ASSERT(config_.length_scale > 0.0);
  LINGXI_ASSERT(config_.signal_variance > 0.0);
  LINGXI_ASSERT(config_.noise_variance >= 0.0);
}

double GaussianProcess::kernel(const std::vector<double>& a,
                               const std::vector<double>& b) const {
  LINGXI_DASSERT(a.size() == b.size());
  double d2 = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    d2 += d * d;
  }
  return config_.signal_variance *
         std::exp(-0.5 * d2 / (config_.length_scale * config_.length_scale));
}

void GaussianProcess::observe(const std::vector<double>& x, double y) {
  LINGXI_ASSERT(!x.empty());
  if (!xs_.empty()) LINGXI_ASSERT(x.size() == xs_.front().size());
  xs_.push_back(x);
  ys_.push_back(y);
  // Strict < keeps the first minimum on ties, matching the min_element scan
  // this running index replaced.
  if (ys_.size() == 1 || y < ys_[best_index_]) best_index_ = ys_.size() - 1;
  if (g_full_refit.load(std::memory_order_relaxed)) {
    refit();
  } else {
    extend_factor(xs_.size() - 1);
    recompute_alpha();
  }
}

// Appends row i to the packed factor. A row-ordered Cholesky computes row i
// from rows <= i only, so rows 0..i-1 are exactly the values a from-scratch
// factorization of the extended matrix would produce — extending is bitwise
// identical to refitting (the IncrementalMatchesFullRefit property pins
// this). Cost: O(i^2) instead of O(i^3).
void GaussianProcess::extend_factor(std::size_t i) {
  // Still spanned as "obo.refit": it IS the round's refit work, just O(n^2).
  OBS_SPAN("obo.refit");
  OBS_TIMED("bayesopt.gp.refit_us");
  LINGXI_ASSERT(chol_.size() == tri(i));
  chol_.resize(tri(i) + i + 1);
  double* row = chol_.data() + tri(i);
  for (std::size_t j = 0; j <= i; ++j) row[j] = kernel(xs_[i], xs_[j]);
  row[i] += config_.noise_variance + 1e-10;  // jitter
  for (std::size_t j = 0; j < i; ++j) {
    double sum = row[j];
    const double* rowj = chol_.data() + tri(j);
    for (std::size_t k = 0; k < j; ++k) sum -= row[k] * rowj[k];
    row[j] = sum / rowj[j];
  }
  double sum = row[i];
  for (std::size_t k = 0; k < i; ++k) sum -= row[k] * row[k];
  LINGXI_ASSERT(sum > 0.0);
  row[i] = std::sqrt(sum);
}

// alpha = K^-1 (y - mean) via two triangular solves, O(n^2). The forward
// solve writes z into alpha_ and the back substitution runs in place (entry
// i only reads already-updated entries k > i), so no scratch is needed. The
// op sequence matches the full refit()'s z/alpha loops exactly.
void GaussianProcess::recompute_alpha() {
  const std::size_t n = xs_.size();
  y_mean_ = 0.0;
  for (double y : ys_) y_mean_ += y;
  y_mean_ /= static_cast<double>(n);

  alpha_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    double sum = ys_[i] - y_mean_;
    const double* row = chol_.data() + tri(i);
    for (std::size_t k = 0; k < i; ++k) sum -= row[k] * alpha_[k];
    alpha_[i] = sum / row[i];
  }
  for (std::size_t i = n; i-- > 0;) {
    double sum = alpha_[i];
    for (std::size_t k = i + 1; k < n; ++k) sum -= chol_[tri(k) + i] * alpha_[k];
    alpha_[i] = sum / chol_[tri(i) + i];
  }
}

// Full O(n^3) refit — the reference the incremental path is pinned against
// (set_full_refit_for_testing).
void GaussianProcess::refit() {
  OBS_SPAN("obo.refit");
  OBS_TIMED("bayesopt.gp.refit_us");
  const std::size_t n = xs_.size();

  // K + noise*I, then in-place Cholesky (lower, packed rows).
  chol_.assign(tri(n), 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double v = kernel(xs_[i], xs_[j]);
      if (i == j) v += config_.noise_variance + 1e-10;  // jitter
      chol_[tri(i) + j] = v;
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    double* row = chol_.data() + tri(i);
    for (std::size_t j = 0; j <= i; ++j) {
      double sum = row[j];
      const double* rowj = chol_.data() + tri(j);
      for (std::size_t k = 0; k < j; ++k) sum -= row[k] * rowj[k];
      if (i == j) {
        LINGXI_ASSERT(sum > 0.0);
        row[j] = std::sqrt(sum);
      } else {
        row[j] = sum / rowj[j];
      }
    }
  }
  recompute_alpha();
}

GpPrediction GaussianProcess::predict(const std::vector<double>& x) const {
  GpWorkspace ws;
  return predict(x, ws);
}

GpPrediction GaussianProcess::predict(const std::vector<double>& x,
                                      GpWorkspace& ws) const {
  GpPrediction p;
  predict_batch(x.data(), 1, x.size(), &p, ws);
  return p;
}

void GaussianProcess::predict_batch(const double* candidates, std::size_t count,
                                    std::size_t dim, GpPrediction* out,
                                    GpWorkspace& ws) const {
  if (count == 0) return;
  const std::size_t n = xs_.size();
  if (n == 0) {
    for (std::size_t c = 0; c < count; ++c) {
      out[c].mean = 0.0;
      out[c].variance = config_.signal_variance;
    }
    return;
  }
  LINGXI_ASSERT(dim == xs_.front().size());

  // k_star panel, candidate-major within a row: panel[i*count + c] =
  // k(x_c, xs_i). One pass over the training points for all candidates, with
  // the kernel spelled exactly as kernel() spells it so the values match the
  // scalar path bitwise.
  ws.panel.resize(n * count);
  const double l2 = config_.length_scale * config_.length_scale;
  for (std::size_t i = 0; i < n; ++i) {
    const double* xi = xs_[i].data();
    double* dst = ws.panel.data() + i * count;
    for (std::size_t c = 0; c < count; ++c) {
      const double* xc = candidates + c * dim;
      double d2 = 0.0;
      for (std::size_t d = 0; d < dim; ++d) {
        const double diff = xc[d] - xi[d];
        d2 += diff * diff;
      }
      dst[c] = config_.signal_variance * std::exp(-0.5 * d2 / l2);
    }
  }

  // mean_c = y_mean + sum_i k_star[i] * alpha[i], accumulated in ascending i
  // for every candidate — the scalar predict()'s loop order per lane.
  for (std::size_t c = 0; c < count; ++c) out[c].mean = y_mean_;
  for (std::size_t i = 0; i < n; ++i) {
    const double a = alpha_[i];
    const double* ks = ws.panel.data() + i * count;
    for (std::size_t c = 0; c < count; ++c) out[c].mean += ks[c] * a;
  }

  // In-place forward solve V = L^-1 K_star: panel row i holds k_star values
  // until it is transformed, and only already-transformed rows k < i are
  // read. Per candidate the accumulation runs k = 0..i-1 in order — the
  // scalar solve's sequence exactly, with lanes across candidates.
  for (std::size_t i = 0; i < n; ++i) {
    const double* lrow = chol_.data() + tri(i);
    double* vi = ws.panel.data() + i * count;
    for (std::size_t k = 0; k < i; ++k) {
      const double l = lrow[k];
      const double* vk = ws.panel.data() + k * count;
      for (std::size_t c = 0; c < count; ++c) vi[c] -= l * vk[c];
    }
    const double diag = lrow[i];
    for (std::size_t c = 0; c < count; ++c) vi[c] /= diag;
  }

  // var_c = max(0, k(x,x) - vv) with vv = sum_i v_i^2 accumulated in
  // ascending i and subtracted once — the scalar path's exact shape. The
  // prior term k(x,x) reduces to signal_variance exactly (d2 == 0.0 gives
  // exp(-0.0) == 1.0), matching kernel(x, x) bitwise. out[c].variance holds
  // vv until the final fixup.
  for (std::size_t c = 0; c < count; ++c) out[c].variance = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double* vi = ws.panel.data() + i * count;
    for (std::size_t c = 0; c < count; ++c) out[c].variance += vi[c] * vi[c];
  }
  for (std::size_t c = 0; c < count; ++c) {
    out[c].variance = std::max(0.0, config_.signal_variance - out[c].variance);
  }
}

double GaussianProcess::best_y() const {
  LINGXI_ASSERT(!ys_.empty());
  return ys_[best_index_];
}

const std::vector<double>& GaussianProcess::best_x() const {
  LINGXI_ASSERT(!ys_.empty());
  return xs_[best_index_];
}

}  // namespace lingxi::bayesopt
