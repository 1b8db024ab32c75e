// Unit tests for lingxi_common: RNG, running stats, CRC32, Expected, units.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "common/expected.h"
#include "common/rng.h"
#include "common/running_stats.h"
#include "common/units.h"

namespace lingxi {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next() == b.next()) ? 1 : 0;
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform(-3.5, 2.25);
    EXPECT_GE(u, -3.5);
    EXPECT_LT(u, 2.25);
  }
}

TEST(Rng, UniformMeanApproximatelyHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformIntCoversAllValues) {
  Rng rng(3);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(2, 6);
    EXPECT_GE(v, 2);
    EXPECT_LE(v, 6);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, UniformIntSingleton) {
  Rng rng(5);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(9, 9), 9);
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  const int n = 200000;
  double sum = 0.0, sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, NormalScaledMoments) {
  Rng rng(17);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.normal(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.05);
}

TEST(Rng, LognormalIsPositive) {
  Rng rng(19);
  for (int i = 0; i < 10000; ++i) EXPECT_GT(rng.lognormal(0.0, 1.5), 0.0);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(23);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
    EXPECT_FALSE(rng.bernoulli(-0.5));
    EXPECT_TRUE(rng.bernoulli(1.5));
  }
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(29);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ExponentialMean) {
  Rng rng(31);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.exponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, DiscreteRespectsWeights) {
  Rng rng(37);
  std::vector<double> w{1.0, 3.0, 0.0, 6.0};
  std::vector<int> counts(4, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.discrete(w)];
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.01);
  EXPECT_NEAR(counts[3] / static_cast<double>(n), 0.6, 0.01);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(41);
  Rng child = parent.fork();
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (parent.next() == child.next()) ? 1 : 0;
  EXPECT_LT(same, 3);
}

// -- stream save/restore (snapshot subsystem) --------------------------------

TEST(RngState, RoundTripMidStreamContinuesIdentically) {
  Rng rng(1234);
  for (int i = 0; i < 37; ++i) rng.next();  // advance to an arbitrary position
  const Rng::State checkpoint = rng.state();

  // Reference continuation from the live generator.
  std::vector<std::uint64_t> expected;
  for (int i = 0; i < 64; ++i) expected.push_back(rng.next());

  Rng resumed(999);  // different seed: restore must fully overwrite
  resumed.restore(checkpoint);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(resumed.next(), expected[i]) << "draw " << i;
}

TEST(RngState, PreservesCachedBoxMullerNormal) {
  Rng rng(7);
  (void)rng.normal();  // leaves the second variate cached
  const Rng::State mid = rng.state();
  EXPECT_TRUE(mid.has_cached_normal);

  Rng resumed;
  resumed.restore(mid);
  // The very next normal must be the cached variate, then the streams stay
  // bit-identical through further distribution draws.
  EXPECT_EQ(rng.normal(), resumed.normal());
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(rng.normal(3.0, 2.0), resumed.normal(3.0, 2.0));
    EXPECT_EQ(rng.uniform(), resumed.uniform());
  }
}

TEST(RngState, RoundTripAcrossForkBoundaries) {
  // fork() mixes the parent state AND advances it; a snapshot taken before a
  // fork must reproduce both the child stream and the parent continuation.
  Rng rng(88);
  for (int i = 0; i < 11; ++i) rng.next();
  const Rng::State before_fork = rng.state();

  Rng child = rng.fork();
  std::vector<std::uint64_t> child_draws, parent_draws;
  for (int i = 0; i < 16; ++i) child_draws.push_back(child.next());
  for (int i = 0; i < 16; ++i) parent_draws.push_back(rng.next());

  Rng resumed;
  resumed.restore(before_fork);
  Rng resumed_child = resumed.fork();
  for (int i = 0; i < 16; ++i) EXPECT_EQ(resumed_child.next(), child_draws[i]);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(resumed.next(), parent_draws[i]);

  // And the child's own state round-trips independently of the parent.
  const Rng::State child_mid = resumed_child.state();
  Rng resumed_grandchild;
  resumed_grandchild.restore(child_mid);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(resumed_grandchild.next(), resumed_child.next());
}

TEST(RngState, StateEqualityTracksPosition) {
  Rng a(5), b(5);
  EXPECT_EQ(a.state(), b.state());
  a.next();
  EXPECT_FALSE(a.state() == b.state());
  b.next();
  EXPECT_EQ(a.state(), b.state());
}

TEST(RunningStats, EmptyDefaults) {
  RunningStats s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.stderr_mean(), 0.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.add(5.0);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(RunningStats, KnownSequence) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.population_variance(), 4.0, 1e-12);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  RunningStats a, b, all;
  Rng rng(43);
  for (int i = 0; i < 500; ++i) {
    const double x = rng.normal(3.0, 2.0);
    (i < 200 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, b;
  a.add(1.0);
  a.add(2.0);
  const double mean_before = a.mean();
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.mean(), mean_before);
  b.merge(a);
  EXPECT_DOUBLE_EQ(b.mean(), mean_before);
}

TEST(RunningStats, MergeBothEmpty) {
  RunningStats a, b;
  a.merge(b);
  EXPECT_TRUE(a.empty());
  EXPECT_DOUBLE_EQ(a.mean(), 0.0);
  EXPECT_DOUBLE_EQ(a.variance(), 0.0);
}

TEST(RunningStats, MergeSingletons) {
  // Two one-sample accumulators combine into the exact two-sample stats.
  RunningStats a, b;
  a.add(2.0);
  b.add(6.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 4.0);
  EXPECT_DOUBLE_EQ(a.variance(), 8.0);  // ((2-4)^2 + (6-4)^2) / (2-1)
  EXPECT_DOUBLE_EQ(a.min(), 2.0);
  EXPECT_DOUBLE_EQ(a.max(), 6.0);
}

TEST(RunningStats, MergeSingletonIntoEmpty) {
  RunningStats empty_acc, single;
  single.add(5.0);
  empty_acc.merge(single);
  EXPECT_EQ(empty_acc.count(), 1u);
  EXPECT_DOUBLE_EQ(empty_acc.mean(), 5.0);
  EXPECT_DOUBLE_EQ(empty_acc.variance(), 0.0);
  EXPECT_DOUBLE_EQ(empty_acc.min(), 5.0);
  EXPECT_DOUBLE_EQ(empty_acc.max(), 5.0);
}

TEST(RunningStats, MergeAssociativity) {
  // (a + b) + c and a + (b + c) must agree with the sequential accumulation
  // of all samples — the property that lets per-shard timing stats reduce
  // in any tree shape.
  Rng rng(91);
  std::vector<double> xs(300);
  for (double& x : xs) x = rng.normal(-1.0, 4.0);

  RunningStats a, b, c, all;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    (i < 100 ? a : i < 180 ? b : c).add(xs[i]);
    all.add(xs[i]);
  }

  RunningStats left = a;  // (a + b) + c
  left.merge(b);
  left.merge(c);
  RunningStats bc = b;  // a + (b + c)
  bc.merge(c);
  RunningStats right = a;
  right.merge(bc);

  for (const RunningStats* m : {&left, &right}) {
    EXPECT_EQ(m->count(), all.count());
    EXPECT_NEAR(m->mean(), all.mean(), 1e-9);
    EXPECT_NEAR(m->variance(), all.variance(), 1e-9);
    EXPECT_DOUBLE_EQ(m->min(), all.min());
    EXPECT_DOUBLE_EQ(m->max(), all.max());
  }
  EXPECT_NEAR(left.mean(), right.mean(), 1e-12);
  EXPECT_NEAR(left.variance(), right.variance(), 1e-12);
}

TEST(Crc32, KnownVector) {
  // The canonical CRC-32 test vector.
  const char* s = "123456789";
  EXPECT_EQ(crc32(s, std::strlen(s)), 0xCBF43926u);
}

TEST(Crc32, EmptyIsZero) { EXPECT_EQ(crc32("", 0), 0u); }

TEST(Crc32, IncrementalMatchesOneShot) {
  const char* s = "the quick brown fox jumps over the lazy dog";
  const std::size_t n = std::strlen(s);
  const std::uint32_t whole = crc32(s, n);
  std::uint32_t inc = 0;
  inc = crc32_update(inc, s, 10);
  inc = crc32_update(inc, s + 10, n - 10);
  EXPECT_EQ(inc, whole);
}

TEST(Crc32, DetectsSingleBitFlip) {
  unsigned char data[32];
  for (int i = 0; i < 32; ++i) data[i] = static_cast<unsigned char>(i * 7);
  const std::uint32_t before = crc32(data, sizeof(data));
  data[13] ^= 0x08;
  EXPECT_NE(crc32(data, sizeof(data)), before);
}

TEST(Expected, HoldsValue) {
  Expected<int> e(42);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(*e, 42);
  EXPECT_EQ(e.value_or(7), 42);
}

TEST(Expected, HoldsError) {
  Expected<int> e(Error::io("disk on fire"));
  ASSERT_FALSE(e.has_value());
  EXPECT_EQ(e.error().code, Error::Code::kIo);
  EXPECT_EQ(e.error().message, "disk on fire");
  EXPECT_EQ(e.value_or(7), 7);
}

TEST(Status, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
}

TEST(Status, CarriesError) {
  Status s(Error::corrupt("bad crc"));
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.error().code, Error::Code::kCorrupt);
}

TEST(Units, SegmentBytesRoundTrip) {
  // 1 second at 4300 kbps = 537500 bytes.
  EXPECT_DOUBLE_EQ(units::segment_bytes(4300.0, 1.0), 537500.0);
  // Downloading it at 4300 kbps takes exactly 1 second.
  EXPECT_DOUBLE_EQ(units::download_time(537500.0, 4300.0), 1.0);
  EXPECT_DOUBLE_EQ(units::throughput_kbps(537500.0, 1.0), 4300.0);
}

TEST(Units, MbpsConversion) { EXPECT_DOUBLE_EQ(units::mbps(2.5), 2500.0); }

}  // namespace
}  // namespace lingxi
