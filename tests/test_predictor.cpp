// Unit tests for lingxi_predictor: engagement state, the 5-branch CNN,
// the OS model, the Eq. 4 hybrid predictor and dataset tooling.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>

#include "common/crc32.h"
#include "common/rng.h"
#include "nn/serialize.h"
#include "predictor/dataset.h"
#include "predictor/engagement_state.h"
#include "predictor/exit_net.h"
#include "predictor/hybrid.h"
#include "predictor/os_model.h"

namespace lingxi::predictor {
namespace {

sim::SegmentRecord make_segment(Kbps bitrate, Kbps throughput, Seconds stall,
                                std::size_t level = 2) {
  sim::SegmentRecord seg;
  seg.level = level;
  seg.bitrate = bitrate;
  seg.throughput = throughput;
  seg.stall_time = stall;
  return seg;
}

// -- EngagementState -----------------------------------------------------

TEST(EngagementState, FeatureShape) {
  EngagementState s;
  const nn::Tensor f = s.features();
  ASSERT_EQ(f.rank(), 2u);
  EXPECT_EQ(f.dim(0), kChannels);
  EXPECT_EQ(f.dim(1), kHistoryLen);
}

TEST(EngagementState, BitrateChannelRightAligned) {
  EngagementState s;
  s.begin_session();
  s.on_segment(make_segment(4300.0, 8000.0, 0.0), 1.0);
  const nn::Tensor f = s.features();
  // Only the last column is filled; normalized bitrate = 1.0.
  EXPECT_DOUBLE_EQ(f.at(0, kHistoryLen - 1), 1.0);
  for (std::size_t i = 0; i + 1 < kHistoryLen; ++i) EXPECT_DOUBLE_EQ(f.at(0, i), 0.0);
  EXPECT_DOUBLE_EQ(f.at(1, kHistoryLen - 1), 1.0);  // 8000/8000
}

TEST(EngagementState, HistoryWindowKeepsLastEight) {
  EngagementState s;
  s.begin_session();
  for (int i = 0; i < 12; ++i) {
    s.on_segment(make_segment(350.0 + i, 1000.0, 0.0), 1.0);
  }
  const nn::Tensor f = s.features();
  // Most recent bitrate (350+11) in the last column.
  EXPECT_NEAR(f.at(0, kHistoryLen - 1), (350.0 + 11) / 4300.0, 1e-12);
  // Oldest retained (350+4) in the first column.
  EXPECT_NEAR(f.at(0, 0), (350.0 + 4) / 4300.0, 1e-12);
}

TEST(EngagementState, StallEventRecorded) {
  EngagementState s;
  s.begin_session();
  s.on_segment(make_segment(750.0, 500.0, 2.5), 1.0);
  EXPECT_EQ(s.stall_events(), 1u);
  EXPECT_EQ(s.long_term().stall_durations.size(), 1u);
  EXPECT_DOUBLE_EQ(s.long_term().stall_durations.back(), 2.5);
  const nn::Tensor f = s.features();
  EXPECT_NEAR(f.at(2, kHistoryLen - 1), 0.25, 1e-12);  // 2.5 / 10
}

TEST(EngagementState, SubThresholdStallIgnored) {
  EngagementState s;
  s.begin_session();
  s.on_segment(make_segment(750.0, 500.0, 0.01), 1.0);
  EXPECT_EQ(s.stall_events(), 0u);
}

TEST(EngagementState, StallIntervalsTracked) {
  EngagementState s;
  s.begin_session();
  s.on_segment(make_segment(750.0, 500.0, 1.0), 1.0);  // stall at watch=1
  for (int i = 0; i < 9; ++i) s.on_segment(make_segment(750.0, 500.0, 0.0), 1.0);
  s.on_segment(make_segment(750.0, 500.0, 2.0), 1.0);  // stall at watch=11
  ASSERT_EQ(s.long_term().stall_intervals.size(), 1u);
  EXPECT_NEAR(s.long_term().stall_intervals.back(), 10.0, 1e-9);
}

TEST(EngagementState, LongTermPersistsAcrossSessions) {
  EngagementState s;
  s.begin_session();
  s.on_segment(make_segment(750.0, 500.0, 3.0), 1.0);
  s.begin_session();  // new session clears short-term only
  EXPECT_EQ(s.stall_events(), 1u);
  const nn::Tensor f = s.features();
  EXPECT_DOUBLE_EQ(f.at(0, kHistoryLen - 1), 0.0);  // bitrate channel cleared
  EXPECT_GT(f.at(2, kHistoryLen - 1), 0.0);          // stall channel kept
}

TEST(EngagementState, StallExitTracking) {
  EngagementState s;
  s.begin_session();
  s.on_segment(make_segment(750.0, 500.0, 3.0), 1.0);
  s.on_stall_exit();
  EXPECT_EQ(s.long_term().total_stall_exits, 1u);
  // Second exit later creates an interval.
  for (int i = 0; i < 5; ++i) s.on_segment(make_segment(750.0, 500.0, 0.0), 1.0);
  s.on_stall_exit();
  ASSERT_EQ(s.long_term().stall_exit_intervals.size(), 1u);
  EXPECT_NEAR(s.long_term().stall_exit_intervals.back(), 5.0, 1e-9);
}

TEST(EngagementState, WatchTimeAccumulates) {
  EngagementState s;
  s.begin_session();
  for (int i = 0; i < 7; ++i) s.on_segment(make_segment(750.0, 500.0, 0.0), 2.0);
  EXPECT_DOUBLE_EQ(s.watch_time(), 14.0);
}

// -- StallExitNet ----------------------------------------------------------

TEST(StallExitNet, OutputIsProbability) {
  Rng rng(1);
  StallExitNet net(rng);
  nn::Tensor f({kChannels, kHistoryLen});
  Rng data(2);
  for (std::size_t i = 0; i < f.size(); ++i) f[i] = data.uniform();
  const double p = net.predict(f);
  EXPECT_GE(p, 0.0);
  EXPECT_LE(p, 1.0);
}

TEST(StallExitNet, DeterministicForward) {
  Rng rng(3);
  StallExitNet net(rng);
  nn::Tensor f({kChannels, kHistoryLen});
  f.fill(0.5);
  EXPECT_DOUBLE_EQ(net.predict(f), net.predict(f));
}

TEST(StallExitNet, WeightsRoundTrip) {
  Rng rng(4);
  StallExitNet net(rng);
  nn::Tensor f({kChannels, kHistoryLen});
  f.fill(0.3);
  const double before = net.predict(f);

  const auto bytes = nn::serialize_model(nn::kModelKindStallExitNet, net.weights());
  Rng rng2(99);
  StallExitNet other(rng2);
  EXPECT_NE(other.predict(f), before);  // different init
  const auto tensors = nn::deserialize_model(nn::kModelKindStallExitNet, bytes);
  ASSERT_TRUE(tensors.has_value());
  ASSERT_TRUE(other.load_weights(*tensors));
  EXPECT_DOUBLE_EQ(other.predict(f), before);
}

TEST(StallExitNet, LoadRejectsWrongShapes) {
  Rng rng(5);
  StallExitNet net(rng);
  std::vector<nn::Tensor> wrong;
  wrong.emplace_back(std::vector<std::size_t>{3});
  EXPECT_FALSE(net.load_weights(wrong));
}

TEST(StallExitNet, ValidateWeightsChecksCountShapesAndFiniteness) {
  Rng rng(8);
  StallExitNet net(rng);
  const std::vector<nn::Tensor> tensors = net.weights();
  EXPECT_TRUE(StallExitNet::validate_weights(tensors).ok());

  std::vector<nn::Tensor> short_list(tensors.begin(), tensors.end() - 1);
  EXPECT_EQ(StallExitNet::validate_weights(short_list).error().code, Error::Code::kCorrupt);
  std::vector<nn::Tensor> reshaped = tensors;
  reshaped[10] = nn::Tensor({1600, 64});  // fc1 transposed
  EXPECT_EQ(StallExitNet::validate_weights(reshaped).error().code, Error::Code::kCorrupt);
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    std::vector<nn::Tensor> non_finite = tensors;
    non_finite[10][123] = bad;
    EXPECT_EQ(StallExitNet::validate_weights(non_finite).error().code, Error::Code::kCorrupt);
    // load_weights refuses the same tensors and leaves the net unchanged.
    nn::Tensor f({kChannels, kHistoryLen});
    f.fill(0.3);
    const double before = net.predict(f);
    EXPECT_FALSE(net.load_weights(non_finite));
    EXPECT_EQ(net.predict(f), before);
  }
}

TEST(StallExitNet, LearnsSimpleSeparableRule) {
  // Synthetic rule: exit iff the latest stall duration channel is high.
  Rng rng(6);
  StallExitNet net(rng);
  Dataset train;
  Rng data(7);
  for (int i = 0; i < 400; ++i) {
    nn::Tensor f({kChannels, kHistoryLen});
    const bool exit_label = (i % 2 == 0);
    const double stall = exit_label ? data.uniform(0.6, 1.0) : data.uniform(0.0, 0.2);
    f.at(2, kHistoryLen - 1) = stall;
    f.at(0, kHistoryLen - 1) = data.uniform();
    train.samples.push_back({f, exit_label});
  }
  TrainConfig cfg;
  cfg.epochs = 12;
  train_exit_net(net, train, cfg, rng);
  const auto m = evaluate(net, train);
  EXPECT_GT(m.accuracy, 0.95);
  EXPECT_GT(m.f1, 0.95);
}

TEST(StallExitNet, TrainingIsPinnedBitwise) {
  // Trains on a fixed generated stall set whose size is not a multiple of
  // the batch size, so the last minibatch is partial, and pins the final
  // epoch loss and the trained weights bit for bit. The literals were
  // captured with the one-sample-at-a-time trainer: the batched training
  // step must add every gradient term in the same order to reproduce them.
  Rng rng(29);
  DatasetGenConfig gen;
  gen.users = 24;
  gen.sessions_per_user = 10;
  gen.filter = DatasetFilter::kStall;
  const Dataset set = balance(generate_dataset(gen, rng), rng);
  const TrainConfig cfg{3, 32, 1e-3};
  ASSERT_GT(set.size(), cfg.batch_size);
  ASSERT_NE(set.size() % cfg.batch_size, 0u);
  StallExitNet net(rng);
  const double loss = train_exit_net(net, set, cfg, rng);
  const std::vector<unsigned char> bytes =
      nn::serialize_model(nn::kModelKindStallExitNet, net.weights());
  // The container ends in the CRC of its own payload; hash all but that.
  const std::uint32_t crc = crc32(bytes.data(), bytes.size() - 4);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(loss), 0x3fe4ec33b02052d8u) << loss;
  EXPECT_EQ(crc, 0x1ea0b06du);
}

// -- OverallStatsModel -------------------------------------------------------

TEST(OsModel, GlobalRateNeutralPriorWhenEmpty) {
  OverallStatsModel os;
  EXPECT_NEAR(os.global_rate(), 0.05, 1e-12);
}

TEST(OsModel, LearnsBucketRates) {
  OverallStatsModel os;
  for (int i = 0; i < 1000; ++i) os.observe(0, SwitchType::kNone, i % 10 == 0);  // 10%
  for (int i = 0; i < 1000; ++i) os.observe(3, SwitchType::kNone, i % 50 == 0);  // 2%
  EXPECT_GT(os.predict(0, SwitchType::kNone), os.predict(3, SwitchType::kNone));
  EXPECT_NEAR(os.predict(0, SwitchType::kNone), 0.1, 0.01);
}

TEST(OsModel, SmoothingPullsSparseBucketsToGlobal) {
  OverallStatsModel os;
  for (int i = 0; i < 10000; ++i) os.observe(1, SwitchType::kNone, i % 20 == 0);  // 5%
  os.observe(2, SwitchType::kUp, true);  // single catastrophic observation
  // Smoothed rate must be far below 1.0.
  EXPECT_LT(os.predict(2, SwitchType::kUp), 0.15);
}

TEST(OsModel, SwitchTypeClassification) {
  sim::SessionResult s;
  sim::SegmentRecord a, b, c, d;
  a.level = 1;
  b.level = 1;
  c.level = 3;
  d.level = 0;
  s.segments = {a, b, c, d};
  EXPECT_EQ(switch_type(s, 0), SwitchType::kNone);
  EXPECT_EQ(switch_type(s, 1), SwitchType::kNone);
  EXPECT_EQ(switch_type(s, 2), SwitchType::kUp);
  EXPECT_EQ(switch_type(s, 3), SwitchType::kDown);
}

TEST(OsModel, FitSessionCountsExitOnLastSegment) {
  OverallStatsModel os;
  sim::SessionResult s;
  sim::SegmentRecord a, b;
  a.level = 0;
  b.level = 0;
  s.segments = {a, b};
  s.exited = true;
  os.fit_session(s);
  EXPECT_EQ(os.observations(), 2u);
  EXPECT_NEAR(os.global_rate(), 0.5, 1e-12);
}

// -- HybridExitPredictor --------------------------------------------------------

TEST(Hybrid, UsesOsOnlyWithoutStall) {
  Rng rng(8);
  auto net = std::make_shared<StallExitNet>(rng);
  auto os = std::make_shared<OverallStatsModel>();
  for (int i = 0; i < 1000; ++i) os->observe(2, SwitchType::kNone, i % 25 == 0);  // 4%
  const HybridExitPredictor hybrid(net, os);

  EngagementState state;
  state.begin_session();
  auto seg = make_segment(1850.0, 3000.0, 0.0);
  state.on_segment(seg, 1.0);
  const double p = hybrid.predict(state, seg, SwitchType::kNone);
  EXPECT_NEAR(p, os->predict(2, SwitchType::kNone), 1e-12);
}

TEST(Hybrid, AddsNnTermOnStall) {
  Rng rng(9);
  auto net = std::make_shared<StallExitNet>(rng);
  auto os = std::make_shared<OverallStatsModel>();
  const HybridExitPredictor hybrid(net, os);

  EngagementState state;
  state.begin_session();
  auto seg = make_segment(1850.0, 3000.0, 4.0);
  state.on_segment(seg, 1.0);
  const double p = hybrid.predict(state, seg, SwitchType::kNone);
  const double os_only = os->predict(2, SwitchType::kNone);
  EXPECT_GT(p, os_only);  // untrained net adds a positive probability mass
  EXPECT_LE(p, 1.0);
}

TEST(PredictorExitModelBridge, ReSeedsEachSession) {
  Rng rng(10);
  auto net = std::make_shared<StallExitNet>(rng);
  auto os = std::make_shared<OverallStatsModel>();
  EngagementState seed;
  seed.begin_session();
  seed.on_segment(make_segment(750.0, 500.0, 5.0), 1.0);  // history with a stall
  PredictorExitModel bridge(HybridExitPredictor(net, os), seed, 1.0);

  bridge.begin_session();
  const double p1 = bridge.exit_probability(make_segment(750.0, 500.0, 1.0));
  bridge.begin_session();
  const double p2 = bridge.exit_probability(make_segment(750.0, 500.0, 1.0));
  EXPECT_DOUBLE_EQ(p1, p2);  // identical seed -> identical first prediction
}

// -- Dataset tooling -------------------------------------------------------------

TEST(Dataset, FiltersAreNested) {
  Rng rng(11);
  DatasetGenConfig cfg;
  cfg.users = 8;
  cfg.sessions_per_user = 6;
  cfg.filter = DatasetFilter::kAll;
  const Dataset all = generate_dataset(cfg, rng);
  Rng rng2(11);
  cfg.filter = DatasetFilter::kEvent;
  const Dataset event = generate_dataset(cfg, rng2);
  Rng rng3(11);
  cfg.filter = DatasetFilter::kStall;
  const Dataset stall = generate_dataset(cfg, rng3);
  EXPECT_GT(all.size(), event.size());
  EXPECT_GE(event.size(), stall.size());
  EXPECT_GT(stall.size(), 0u);
}

TEST(Dataset, BalanceReachesParity) {
  Dataset d;
  nn::Tensor f({kChannels, kHistoryLen});
  for (int i = 0; i < 90; ++i) d.samples.push_back({f, false});
  for (int i = 0; i < 10; ++i) d.samples.push_back({f, true});
  Rng rng(12);
  const Dataset b = balance(d, rng);
  EXPECT_EQ(b.positives(), 10u);
  EXPECT_EQ(b.negatives(), 10u);
}

TEST(Dataset, StratifiedSplitPreservesClassFractions) {
  Dataset d;
  nn::Tensor f({kChannels, kHistoryLen});
  for (int i = 0; i < 80; ++i) d.samples.push_back({f, false});
  for (int i = 0; i < 20; ++i) d.samples.push_back({f, true});
  Rng rng(13);
  const auto split = stratified_split(d, 0.8, rng);
  EXPECT_EQ(split.train.size(), 80u);
  EXPECT_EQ(split.test.size(), 20u);
  EXPECT_EQ(split.train.positives(), 16u);
  EXPECT_EQ(split.test.positives(), 4u);
}

TEST(Dataset, MetricsOnPerfectPredictor) {
  // evaluate() confusion accounting on trivially separable data.
  Rng rng(14);
  StallExitNet net(rng);
  Dataset train;
  Rng data(15);
  for (int i = 0; i < 200; ++i) {
    nn::Tensor f({kChannels, kHistoryLen});
    const bool label = i % 2 == 0;
    f.at(2, 7) = label ? 1.0 : 0.0;
    train.samples.push_back({f, label});
  }
  TrainConfig cfg;
  cfg.epochs = 10;
  train_exit_net(net, train, cfg, rng);
  const auto m = evaluate(net, train);
  EXPECT_EQ(m.true_pos + m.false_pos + m.true_neg + m.false_neg, 200u);
  EXPECT_GT(m.accuracy, 0.97);
}

TEST(Dataset, FilterNames) {
  EXPECT_STREQ(filter_name(DatasetFilter::kAll), "ALL");
  EXPECT_STREQ(filter_name(DatasetFilter::kEvent), "Event");
  EXPECT_STREQ(filter_name(DatasetFilter::kStall), "Stall");
}

}  // namespace
}  // namespace lingxi::predictor
