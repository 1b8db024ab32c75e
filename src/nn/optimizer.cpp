#include "nn/optimizer.h"

#include <cmath>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "nn/dense.h"

namespace lingxi::nn {

Optimizer::Optimizer(std::vector<Tensor*> params, std::vector<Tensor*> grads)
    : params_(std::move(params)), grads_(std::move(grads)) {
  LINGXI_ASSERT(params_.size() == grads_.size());
  for (std::size_t i = 0; i < params_.size(); ++i) {
    LINGXI_ASSERT(params_[i]->same_shape(*grads_[i]));
  }
}

Sgd::Sgd(std::vector<Tensor*> params, std::vector<Tensor*> grads, double lr)
    : Optimizer(std::move(params), std::move(grads)), lr_(lr) {
  LINGXI_ASSERT(lr > 0.0);
}

void Sgd::step() {
  for (std::size_t i = 0; i < params_.size(); ++i) {
    Tensor& p = *params_[i];
    const Tensor& g = *grads_[i];
    for (std::size_t j = 0; j < p.size(); ++j) p[j] -= lr_ * g[j];
  }
}

Adam::Adam(std::vector<Tensor*> params, std::vector<Tensor*> grads)
    : Adam(std::move(params), std::move(grads), Config{}) {}

Adam::Adam(std::vector<Tensor*> params, std::vector<Tensor*> grads, Config config)
    : Optimizer(std::move(params), std::move(grads)), config_(config) {
  LINGXI_ASSERT(config_.lr > 0.0);
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (Tensor* p : params_) {
    m_.emplace_back(p->shape());
    v_.emplace_back(p->shape());
  }
}

namespace {

// One Adam update of elements [j, n), in the scalar form every build runs:
// m = b1 m + (1 - b1) g, v = b2 v + ((1 - b2) g) g, and
// p -= (lr (m / bc1)) / (sqrt(v / bc2) + eps), each operation rounded once.
struct AdamTerms {
  double beta1, beta2, lr, eps, bc1, bc2;
};

void adam_scalar(const AdamTerms& c, double* p, const double* g, double* m, double* v,
                 std::size_t j, std::size_t n) {
  for (; j < n; ++j) {
    m[j] = c.beta1 * m[j] + (1.0 - c.beta1) * g[j];
    v[j] = c.beta2 * v[j] + (1.0 - c.beta2) * g[j] * g[j];
    const double mhat = m[j] / c.bc1;
    const double vhat = v[j] / c.bc2;
    p[j] -= c.lr * mhat / (std::sqrt(vhat) + c.eps);
  }
}

#if defined(__x86_64__)
#define LINGXI_ADAM_AVX2 1
// The same operations in the same order on 4 elements at a time, compiled
// for AVX2 and dispatched at run time under the nn ISA switch. Vector
// add/mul/div/sqrt round each lane exactly as the scalar instructions do
// (optimizer.cpp is compiled with -ffp-contract=off, and the operations are
// written out, so nothing is fused), so every element is bitwise the
// scalar update. Returns the first element left for the scalar tail.
__attribute__((target("avx2"))) std::size_t adam_avx2(const AdamTerms& c, double* p,
                                                       const double* g, double* m, double* v,
                                                       std::size_t n) {
  const __m256d b1 = _mm256_set1_pd(c.beta1);
  const __m256d b2 = _mm256_set1_pd(c.beta2);
  const __m256d one_b1 = _mm256_set1_pd(1.0 - c.beta1);
  const __m256d one_b2 = _mm256_set1_pd(1.0 - c.beta2);
  const __m256d lr = _mm256_set1_pd(c.lr);
  const __m256d eps = _mm256_set1_pd(c.eps);
  const __m256d bc1 = _mm256_set1_pd(c.bc1);
  const __m256d bc2 = _mm256_set1_pd(c.bc2);
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256d gj = _mm256_loadu_pd(g + j);
    const __m256d mj =
        _mm256_add_pd(_mm256_mul_pd(b1, _mm256_loadu_pd(m + j)), _mm256_mul_pd(one_b1, gj));
    const __m256d vj = _mm256_add_pd(_mm256_mul_pd(b2, _mm256_loadu_pd(v + j)),
                                     _mm256_mul_pd(_mm256_mul_pd(one_b2, gj), gj));
    _mm256_storeu_pd(m + j, mj);
    _mm256_storeu_pd(v + j, vj);
    const __m256d mhat = _mm256_div_pd(mj, bc1);
    const __m256d vhat = _mm256_div_pd(vj, bc2);
    const __m256d step =
        _mm256_div_pd(_mm256_mul_pd(lr, mhat), _mm256_add_pd(_mm256_sqrt_pd(vhat), eps));
    _mm256_storeu_pd(p + j, _mm256_sub_pd(_mm256_loadu_pd(p + j), step));
  }
  return j;
}
#endif

}  // namespace

void Adam::step() {
  ++t_;
  const AdamTerms c{config_.beta1,
                    config_.beta2,
                    config_.lr,
                    config_.eps,
                    1.0 - std::pow(config_.beta1, static_cast<double>(t_)),
                    1.0 - std::pow(config_.beta2, static_cast<double>(t_))};
  for (std::size_t i = 0; i < params_.size(); ++i) {
    double* p = params_[i]->data();
    const double* g = grads_[i]->data();
    double* m = m_[i].data();
    double* v = v_[i].data();
    const std::size_t n = params_[i]->size();
    std::size_t j = 0;
#ifdef LINGXI_ADAM_AVX2
    if (dense_isa() >= DenseIsa::kAvx2) j = adam_avx2(c, p, g, m, v, n);
#endif
    adam_scalar(c, p, g, m, v, j, n);
  }
}

}  // namespace lingxi::nn
