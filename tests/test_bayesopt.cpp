// Unit tests for lingxi_bayesopt: GP regression, acquisition functions and
// the online Bayesian optimizer.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "bayesopt/acquisition.h"
#include "bayesopt/gp.h"
#include "bayesopt/obo.h"
#include "common/rng.h"

namespace lingxi::bayesopt {
namespace {

TEST(Gp, PriorBeforeObservations) {
  GaussianProcess gp;
  const auto p = gp.predict({0.5});
  EXPECT_DOUBLE_EQ(p.mean, 0.0);
  EXPECT_DOUBLE_EQ(p.variance, 1.0);  // default signal variance
}

TEST(Gp, InterpolatesObservations) {
  GaussianProcess gp;
  gp.observe({0.2}, 1.0);
  gp.observe({0.8}, 3.0);
  const auto at_first = gp.predict({0.2});
  EXPECT_NEAR(at_first.mean, 1.0, 0.05);
  EXPECT_LT(at_first.variance, 0.01);
}

TEST(Gp, VarianceGrowsAwayFromData) {
  GaussianProcess gp;
  gp.observe({0.5}, 2.0);
  const auto near = gp.predict({0.52});
  const auto far = gp.predict({0.0});
  EXPECT_LT(near.variance, far.variance);
}

TEST(Gp, MeanRevertsToDataMeanFarAway) {
  GaussianProcess gp;
  gp.observe({0.4}, 10.0);
  gp.observe({0.6}, 20.0);
  // Far from data the posterior mean approaches the (centered) data mean.
  const auto p = gp.predict({100.0});
  EXPECT_NEAR(p.mean, 15.0, 1e-6);
}

TEST(Gp, BestTracksMinimum) {
  GaussianProcess gp;
  gp.observe({0.1}, 5.0);
  gp.observe({0.7}, 2.0);
  gp.observe({0.9}, 7.0);
  EXPECT_DOUBLE_EQ(gp.best_y(), 2.0);
  EXPECT_DOUBLE_EQ(gp.best_x()[0], 0.7);
}

TEST(Gp, MultiDimensional) {
  GaussianProcess gp;
  gp.observe({0.1, 0.9}, 1.0);
  gp.observe({0.9, 0.1}, 3.0);
  const auto p = gp.predict({0.1, 0.9});
  EXPECT_NEAR(p.mean, 1.0, 0.1);
}

TEST(Gp, NoisyObservationsDoNotBreakCholesky) {
  GpConfig cfg;
  cfg.noise_variance = 0.01;
  GaussianProcess gp(cfg);
  Rng rng(1);
  // Repeated x with different y would be singular without the noise term.
  for (int i = 0; i < 20; ++i) gp.observe({0.5}, rng.normal(2.0, 0.1));
  const auto p = gp.predict({0.5});
  EXPECT_NEAR(p.mean, 2.0, 0.15);
}

TEST(Acquisition, EiZeroWhenCertainAndWorse) {
  EXPECT_DOUBLE_EQ(expected_improvement(5.0, 0.0, 3.0), 0.0);
}

TEST(Acquisition, EiEqualsGapWhenCertainAndBetter) {
  EXPECT_DOUBLE_EQ(expected_improvement(1.0, 0.0, 3.0), 2.0);
}

TEST(Acquisition, EiIncreasesWithVariance) {
  const double lo = expected_improvement(3.0, 0.01, 3.0);
  const double hi = expected_improvement(3.0, 1.0, 3.0);
  EXPECT_GT(hi, lo);
}

TEST(Acquisition, PiBoundsAndMonotonicity) {
  EXPECT_NEAR(probability_of_improvement(3.0, 1.0, 3.0), 0.5, 1e-9);
  EXPECT_GT(probability_of_improvement(2.0, 1.0, 3.0), 0.5);
  EXPECT_LT(probability_of_improvement(4.0, 1.0, 3.0), 0.5);
  EXPECT_DOUBLE_EQ(probability_of_improvement(2.0, 0.0, 3.0), 1.0);
}

TEST(Acquisition, LcbPrefersLowMeanHighVariance) {
  EXPECT_GT(lower_confidence_bound(1.0, 0.5), lower_confidence_bound(2.0, 0.5));
  EXPECT_GT(lower_confidence_bound(1.0, 2.0), lower_confidence_bound(1.0, 0.5));
}

TEST(Obo, WarmStartEvaluatedFirst) {
  OnlineBayesOpt obo(2);
  obo.warm_start({0.25, 0.75});
  Rng rng(2);
  const auto x = obo.next_candidate(rng);
  ASSERT_EQ(x.size(), 2u);
  EXPECT_DOUBLE_EQ(x[0], 0.25);
  EXPECT_DOUBLE_EQ(x[1], 0.75);
}

TEST(Obo, CandidatesStayInUnitCube) {
  OnlineBayesOpt obo(3);
  Rng rng(3);
  for (int i = 0; i < 10; ++i) {
    const auto x = obo.next_candidate(rng);
    for (double v : x) {
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, 1.0);
    }
    obo.update(x, rng.uniform());
  }
}

TEST(Obo, FindsMinimumOfSmooth1dFunction) {
  // f(x) = (x - 0.3)^2, minimum at 0.3.
  auto f = [](double x) { return (x - 0.3) * (x - 0.3); };
  OnlineBayesOpt obo(1);
  Rng rng(4);
  for (int i = 0; i < 20; ++i) {
    const auto x = obo.next_candidate(rng);
    obo.update(x, f(x[0]));
  }
  EXPECT_NEAR(obo.best()[0], 0.3, 0.08);
  EXPECT_LT(obo.best_value(), 0.01);
}

TEST(Obo, BeatsRandomSearchOnAverage) {
  auto f = [](double x, double y) {
    return (x - 0.7) * (x - 0.7) + (y - 0.2) * (y - 0.2);
  };
  const int kTrials = 10;
  const int kBudget = 15;
  double obo_total = 0.0, random_total = 0.0;
  for (int t = 0; t < kTrials; ++t) {
    Rng rng(100 + t);
    OnlineBayesOpt obo(2);
    for (int i = 0; i < kBudget; ++i) {
      const auto x = obo.next_candidate(rng);
      obo.update(x, f(x[0], x[1]));
    }
    obo_total += obo.best_value();

    Rng rng2(200 + t);
    double best_random = 1e9;
    for (int i = 0; i < kBudget; ++i) {
      best_random = std::min(best_random, f(rng2.uniform(), rng2.uniform()));
    }
    random_total += best_random;
  }
  EXPECT_LT(obo_total, random_total);
}

TEST(Obo, EvaluationCountTracked) {
  OnlineBayesOpt obo(1);
  Rng rng(5);
  for (int i = 0; i < 5; ++i) {
    const auto x = obo.next_candidate(rng);
    obo.update(x, 1.0);
  }
  EXPECT_EQ(obo.evaluations(), 5u);
}

// ---------------------------------------------------------------------------
// Incremental Cholesky: observe() extends the packed factor with one new row
// instead of refactorizing. Row-ordered Cholesky computes row i from rows
// <= i only, so the incremental factor must equal the full refit bit for
// bit — every element, every alpha, for every prefix of every sequence.
// ---------------------------------------------------------------------------

TEST(GpIncremental, FactorMatchesFullRefitExactly) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    for (const std::size_t dims : {1u, 2u, 3u}) {
      Rng rng(seed * 101 + dims);
      GpConfig config;
      config.noise_variance = seed % 2 == 0 ? 1e-6 : 1e-3;
      GaussianProcess incremental(config);
      GaussianProcess full(config);
      for (std::size_t n = 1; n <= 64; ++n) {
        std::vector<double> x(dims);
        for (double& v : x) v = rng.uniform();
        const double y = std::sin(6.0 * x[0]) + 0.1 * rng.normal(0.0, 1.0);
        incremental.observe(x, y);

        // The same observation refactored from scratch under forced full
        // refit must agree on every factor element and every alpha
        // coefficient, exactly.
        GaussianProcess::set_full_refit_for_testing(true);
        full.observe(x, y);
        GaussianProcess::set_full_refit_for_testing(false);

        ASSERT_EQ(incremental.factor().size(), full.factor().size());
        for (std::size_t i = 0; i < full.factor().size(); ++i) {
          ASSERT_EQ(incremental.factor()[i], full.factor()[i])
              << "seed=" << seed << " dims=" << dims << " n=" << n << " element " << i;
        }
        ASSERT_EQ(incremental.alpha().size(), full.alpha().size());
        for (std::size_t i = 0; i < full.alpha().size(); ++i) {
          ASSERT_EQ(incremental.alpha()[i], full.alpha()[i])
              << "seed=" << seed << " dims=" << dims << " n=" << n << " alpha " << i;
        }
        ASSERT_EQ(incremental.best_y(), full.best_y());
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Batched acquisition: predict_batch over a candidate panel must reproduce
// per-candidate predict() bit for bit (it shares the forward solve across
// candidates but keeps each candidate's accumulation order unchanged).
// ---------------------------------------------------------------------------

TEST(GpPredictBatch, MatchesScalarPredictExactly) {
  for (std::uint64_t seed = 11; seed <= 14; ++seed) {
    Rng rng(seed);
    GpConfig config;
    GaussianProcess gp(config);
    for (int i = 0; i < 40; ++i) {
      gp.observe({rng.uniform(), rng.uniform(), rng.uniform()}, rng.normal(0.0, 1.0));
    }
    const std::size_t count = 96;
    std::vector<double> panel(count * 3);
    for (double& v : panel) v = rng.uniform();
    std::vector<GpPrediction> batch(count);
    GpWorkspace ws;
    gp.predict_batch(panel.data(), count, 3, batch.data(), ws);
    for (std::size_t c = 0; c < count; ++c) {
      const auto scalar =
          gp.predict({panel[c * 3], panel[c * 3 + 1], panel[c * 3 + 2]});
      ASSERT_EQ(batch[c].mean, scalar.mean) << "seed=" << seed << " candidate " << c;
      ASSERT_EQ(batch[c].variance, scalar.variance)
          << "seed=" << seed << " candidate " << c;
    }
  }
}

TEST(GpPredictBatch, EmptyAndSingleCandidateEdges) {
  GaussianProcess gp;
  gp.observe({0.3}, 1.0);
  gp.observe({0.7}, 2.0);
  GpWorkspace ws;
  // Zero candidates: legal no-op.
  gp.predict_batch(nullptr, 0, 1, nullptr, ws);
  // One candidate equals scalar predict.
  const double x = 0.4;
  GpPrediction one;
  gp.predict_batch(&x, 1, 1, &one, ws);
  const auto scalar = gp.predict({x});
  EXPECT_EQ(one.mean, scalar.mean);
  EXPECT_EQ(one.variance, scalar.variance);
}

TEST(GpPredictBatch, PriorOnEmptyGp) {
  GaussianProcess gp;
  const double x = 0.5;
  GpPrediction p;
  GpWorkspace ws;
  gp.predict_batch(&x, 1, 1, &p, ws);
  EXPECT_DOUBLE_EQ(p.mean, 0.0);
  EXPECT_DOUBLE_EQ(p.variance, 1.0);
}

// ---------------------------------------------------------------------------
// Algorithm properties of the GP update the optimizer runs at every round
// boundary: conditioning on one more observation never widens the
// posterior, and the incremental Cholesky survives near-duplicate inputs.
// ---------------------------------------------------------------------------

TEST(GpProperty, PosteriorSdNeverGrowsWhenAnObservationIsAdded) {
  constexpr double kRelTol = 1e-12;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    const std::size_t dim = 1 + seed % 3;
    GpConfig config;
    config.length_scale = 0.15 + 0.1 * static_cast<double>(seed % 3);
    GaussianProcess gp(config);
    std::vector<double> probes(32 * dim);
    for (double& v : probes) v = rng.uniform();
    const std::size_t count = probes.size() / dim;
    std::vector<GpPrediction> before(count);
    std::vector<GpPrediction> after(count);
    GpWorkspace ws;
    gp.predict_batch(probes.data(), count, dim, before.data(), ws);
    for (std::size_t n = 1; n <= 64; ++n) {
      std::vector<double> x(dim);
      for (double& v : x) v = rng.uniform();
      gp.observe(x, rng.normal(0.0, 1.0));
      gp.predict_batch(probes.data(), count, dim, after.data(), ws);
      for (std::size_t c = 0; c < count; ++c) {
        const double sd_before = std::sqrt(before[c].variance);
        const double sd_after = std::sqrt(after[c].variance);
        ASSERT_LE(sd_after, sd_before * (1.0 + kRelTol))
            << "seed " << seed << " n " << n << " probe " << c;
      }
      before.swap(after);
    }
  }
}

TEST(GpProperty, IncrementalCholeskyFiniteOnNearDuplicateCandidates) {
  for (const double noise : {1e-4, 0.0}) {
    Rng rng(17);
    GpConfig config;
    config.noise_variance = noise;
    GaussianProcess gp(config);
    // Eight clusters of eight points, members 1e-12 apart: the kernel rows
    // of a cluster agree to ~1e-23, so only the noise and jitter keep the
    // pivots positive.
    std::vector<double> probes;
    for (int cluster = 0; cluster < 8; ++cluster) {
      const double a = rng.uniform();
      const double b = rng.uniform();
      for (int member = 0; member < 8; ++member) {
        const double x0 = a + 1e-12 * member;
        gp.observe({x0, b}, rng.normal(0.0, 1.0));
        probes.push_back(x0);
        probes.push_back(b);
      }
      probes.push_back(a + 0.01);  // a probe beside the cluster
      probes.push_back(b);
    }
    ASSERT_EQ(gp.observations(), 64u);
    for (const double v : gp.factor()) ASSERT_TRUE(std::isfinite(v)) << "noise " << noise;
    for (const double v : gp.alpha()) ASSERT_TRUE(std::isfinite(v)) << "noise " << noise;

    const std::size_t count = probes.size() / 2;
    std::vector<GpPrediction> batch(count);
    GpWorkspace ws;
    gp.predict_batch(probes.data(), count, 2, batch.data(), ws);
    for (std::size_t c = 0; c < count; ++c) {
      const GpPrediction p = gp.predict({probes[2 * c], probes[2 * c + 1]});
      for (const GpPrediction& q : {p, batch[c]}) {
        EXPECT_TRUE(std::isfinite(q.mean)) << "noise " << noise << " probe " << c;
        EXPECT_TRUE(std::isfinite(q.variance)) << "noise " << noise << " probe " << c;
        EXPECT_GE(q.variance, 0.0) << "noise " << noise << " probe " << c;
        EXPECT_GE(std::sqrt(q.variance), 0.0) << "noise " << noise << " probe " << c;
      }
    }
  }
}

}  // namespace
}  // namespace lingxi::bayesopt
