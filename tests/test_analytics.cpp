// Unit tests for lingxi_analytics: metric accumulation and the population
// experiment driver.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>

#include "abr/hyb.h"
#include "analytics/bench_gate.h"
#include "analytics/experiment.h"
#include "analytics/health_report.h"
#include "analytics/metrics.h"
#include "common/json.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "obs/timeline.h"
#include "predictor/exit_net.h"
#include "predictor/os_model.h"

namespace lingxi::analytics {
namespace {

sim::SessionResult make_session(double watch, double stall, double bitrate, bool exited,
                                std::size_t stall_events = 1) {
  sim::SessionResult s;
  s.watch_time = watch;
  s.total_stall = stall;
  s.mean_bitrate = bitrate;
  s.exited = exited;
  s.stall_events = stall_events;
  s.quality_switches = 2;
  return s;
}

TEST(MetricAccumulator, BasicAggregation) {
  MetricAccumulator m;
  m.add(make_session(10.0, 1.0, 1000.0, false));
  m.add(make_session(30.0, 3.0, 3000.0, true));
  EXPECT_DOUBLE_EQ(m.total_watch_time(), 40.0);
  EXPECT_DOUBLE_EQ(m.total_stall_time(), 4.0);
  // Time-weighted bitrate: (1000*10 + 3000*30)/40 = 2500.
  EXPECT_DOUBLE_EQ(m.mean_bitrate(), 2500.0);
  EXPECT_DOUBLE_EQ(m.completion_rate(), 0.5);
  EXPECT_EQ(m.sessions(), 2u);
  EXPECT_EQ(m.stall_events(), 2u);
  EXPECT_EQ(m.quality_switches(), 4u);
  EXPECT_DOUBLE_EQ(m.stall_per_10k(), 1000.0);
}

TEST(MetricAccumulator, EmptyIsZero) {
  MetricAccumulator m;
  EXPECT_DOUBLE_EQ(m.mean_bitrate(), 0.0);
  EXPECT_DOUBLE_EQ(m.completion_rate(), 0.0);
  EXPECT_DOUBLE_EQ(m.stall_per_10k(), 0.0);
}

TEST(MetricAccumulator, MergeMatchesSequential) {
  MetricAccumulator a, b, all;
  const auto s1 = make_session(10.0, 1.0, 1000.0, false);
  const auto s2 = make_session(20.0, 0.5, 2000.0, true);
  a.add(s1);
  b.add(s2);
  all.add(s1);
  all.add(s2);
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.total_watch_time(), all.total_watch_time());
  EXPECT_DOUBLE_EQ(a.mean_bitrate(), all.mean_bitrate());
  EXPECT_EQ(a.sessions(), all.sessions());
}

ExperimentConfig small_config() {
  ExperimentConfig cfg;
  cfg.users = 6;
  cfg.days = 4;
  cfg.sessions_per_user_day = 3;
  cfg.intervention_day = 2;
  cfg.video.mean_duration = 15.0;
  cfg.network.median_bandwidth = 2500.0;  // stall-prone world
  cfg.lingxi.obo_rounds = 2;
  cfg.lingxi.monte_carlo.samples = 3;
  cfg.lingxi.monte_carlo.sample_duration = 8.0;
  return cfg;
}

std::function<predictor::HybridExitPredictor()> predictor_factory() {
  // Shared across users, as in production (one global model).
  auto net_rng = std::make_shared<Rng>(123);
  return [net_rng]() {
    auto net = std::make_shared<predictor::StallExitNet>(*net_rng);
    auto os = std::make_shared<predictor::OverallStatsModel>();
    return predictor::HybridExitPredictor(net, os);
  };
}

TEST(PopulationExperiment, ShapesAreConsistent) {
  const auto cfg = small_config();
  PopulationExperiment exp(cfg, [] { return std::make_unique<abr::Hyb>(); },
                           predictor_factory());
  const auto control = exp.run(false, 7);
  EXPECT_EQ(control.daily.size(), cfg.days);
  EXPECT_EQ(control.user_days.size(), cfg.users * cfg.days);
  for (const auto& day : control.daily) {
    EXPECT_EQ(day.sessions(), cfg.users * cfg.sessions_per_user_day);
    EXPECT_GT(day.total_watch_time(), 0.0);
  }
}

TEST(PopulationExperiment, ControlParamsStayAtDefault) {
  const auto cfg = small_config();
  PopulationExperiment exp(cfg, [] { return std::make_unique<abr::Hyb>(); },
                           predictor_factory());
  const auto control = exp.run(false, 7);
  for (const auto& rec : control.user_days) {
    EXPECT_DOUBLE_EQ(rec.mean_beta, cfg.lingxi.default_params.hyb_beta);
  }
}

TEST(PopulationExperiment, TreatmentAdjustsParamsOnlyAfterIntervention) {
  const auto cfg = small_config();
  PopulationExperiment exp(cfg, [] { return std::make_unique<abr::Hyb>(); },
                           predictor_factory());
  const auto treatment = exp.run(true, 7);
  bool any_adjusted_post = false;
  for (const auto& rec : treatment.user_days) {
    if (rec.day < cfg.intervention_day) {
      EXPECT_DOUBLE_EQ(rec.mean_beta, cfg.lingxi.default_params.hyb_beta)
          << "user " << rec.user << " day " << rec.day;
    } else if (rec.mean_beta != cfg.lingxi.default_params.hyb_beta) {
      any_adjusted_post = true;
    }
  }
  EXPECT_TRUE(any_adjusted_post);
}

TEST(PopulationExperiment, SameSeedIsReproducible) {
  const auto cfg = small_config();
  PopulationExperiment exp(cfg, [] { return std::make_unique<abr::Hyb>(); },
                           predictor_factory());
  const auto a = exp.run(false, 42);
  const auto b = exp.run(false, 42);
  for (std::size_t d = 0; d < cfg.days; ++d) {
    EXPECT_DOUBLE_EQ(a.daily[d].total_watch_time(), b.daily[d].total_watch_time());
    EXPECT_DOUBLE_EQ(a.daily[d].total_stall_time(), b.daily[d].total_stall_time());
  }
}

TEST(PopulationExperiment, StallEventRecordingOptIn) {
  auto cfg = small_config();
  cfg.record_stall_events = true;
  PopulationExperiment exp(cfg, [] { return std::make_unique<abr::Hyb>(); },
                           predictor_factory());
  const auto treatment = exp.run(true, 9);
  // Low-bandwidth world: some stall events must have been recorded.
  EXPECT_FALSE(treatment.stall_events.empty());
  for (const auto& ev : treatment.stall_events) {
    EXPECT_GT(ev.stall_time, 0.0);
    EXPECT_GE(ev.param_beta_after, cfg.lingxi.space.beta_min);
    EXPECT_LE(ev.param_beta_after, cfg.lingxi.space.beta_max);
  }
}

// A pure predictor factory (fresh rng per call -> identical weights every
// call) — required by the FleetRunner factory contract, and doubly so for
// checkpoint/resume where the invocation count depends on the leg split.
std::function<predictor::HybridExitPredictor()> pure_predictor_factory() {
  return [] {
    Rng net_rng(123);
    auto net = std::make_shared<predictor::StallExitNet>(net_rng);
    auto os = std::make_shared<predictor::OverallStatsModel>();
    return predictor::HybridExitPredictor(net, os);
  };
}

void expect_results_identical(const ExperimentResult& a, const ExperimentResult& b) {
  ASSERT_EQ(a.daily.size(), b.daily.size());
  for (std::size_t d = 0; d < a.daily.size(); ++d) {
    EXPECT_EQ(a.daily[d].sessions(), b.daily[d].sessions()) << "day " << d;
    EXPECT_EQ(a.daily[d].total_watch_time(), b.daily[d].total_watch_time()) << "day " << d;
    EXPECT_EQ(a.daily[d].total_stall_time(), b.daily[d].total_stall_time()) << "day " << d;
    EXPECT_EQ(a.daily[d].mean_bitrate(), b.daily[d].mean_bitrate()) << "day " << d;
  }
  ASSERT_EQ(a.user_days.size(), b.user_days.size());
  for (std::size_t i = 0; i < a.user_days.size(); ++i) {
    const auto& x = a.user_days[i];
    const auto& y = b.user_days[i];
    EXPECT_EQ(x.user, y.user) << "record " << i;
    EXPECT_EQ(x.day, y.day) << "record " << i;
    EXPECT_EQ(x.mean_beta, y.mean_beta) << "record " << i;
    EXPECT_EQ(x.mean_stall_penalty, y.mean_stall_penalty) << "record " << i;
    EXPECT_EQ(x.stall_events, y.stall_events) << "record " << i;
    EXPECT_EQ(x.stall_exits, y.stall_exits) << "record " << i;
    EXPECT_EQ(x.stall_time, y.stall_time) << "record " << i;
    EXPECT_EQ(x.watch_time, y.watch_time) << "record " << i;
    EXPECT_EQ(x.mean_bandwidth, y.mean_bandwidth) << "record " << i;
  }
  ASSERT_EQ(a.stall_events.size(), b.stall_events.size());
  for (std::size_t i = 0; i < a.stall_events.size(); ++i) {
    const auto& x = a.stall_events[i];
    const auto& y = b.stall_events[i];
    EXPECT_EQ(x.user, y.user) << "event " << i;
    EXPECT_EQ(x.event_index, y.event_index) << "event " << i;
    EXPECT_EQ(x.stall_time, y.stall_time) << "event " << i;
    EXPECT_EQ(x.param_beta_after, y.param_beta_after) << "event " << i;
    EXPECT_EQ(x.exited, y.exited) << "event " << i;
    EXPECT_EQ(x.user_tolerance, y.user_tolerance) << "event " << i;
  }
}

TEST(PopulationExperiment, BatchingStatsMergeAcrossLegs) {
  // Incremental legs must MERGE the predictor-pool counters, not drop them:
  // a run_to_day+resume split reports its own legs' flushes, and the query
  // total — one count per parked query, schedule-independent — matches the
  // unsplit run exactly. (Flush/wave counts may legitimately differ across
  // the split: a leg boundary synchronizes the shard's tasks, changing wave
  // composition but never which queries run.)
  auto cfg = small_config();
  cfg.predictor_batch = 4;  // pooled flushes need a batch
  PopulationExperiment exp(cfg, [] { return std::make_unique<abr::Hyb>(); },
                           pure_predictor_factory());
  // Seed chosen so both legs of the day-3 split run optimizations that park
  // predictor queries (most seeds only trigger in the prefix leg at this
  // tiny population size).
  const std::uint64_t seed = 15;
  const auto full = exp.run(true, seed);
  ASSERT_GT(full.batching.pool_flushes, 0u);
  ASSERT_GT(full.batching.pool_queries, 0u);

  // Split after the intervention day so the prefix leg has pool activity.
  const auto checkpoint = exp.run_to_day(true, seed, 3);
  EXPECT_GT(checkpoint.batching.pool_flushes, 0u);
  const auto resumed = exp.resume(true, seed, checkpoint);
  EXPECT_EQ(resumed.batching.pool_queries, full.batching.pool_queries);
  EXPECT_GT(resumed.batching.pool_flushes, checkpoint.batching.pool_flushes);
  EXPECT_GE(resumed.batching.pool_max_flush,
            checkpoint.batching.pool_max_flush);
  EXPECT_GE(resumed.batching.pool_net_batches, resumed.batching.pool_flushes);
  EXPECT_GT(resumed.batching.mean_flush_occupancy(), 0.0);
}

TEST(PopulationExperiment, IncrementalDayResumeMatchesFullRun) {
  // The snapshot contract at the analytics layer: checkpoint an arm at day
  // D, resume, and every record — float sums included — is identical to the
  // unsplit run (no accumulation crosses a day boundary).
  auto cfg = small_config();
  cfg.record_stall_events = true;
  PopulationExperiment exp(cfg, [] { return std::make_unique<abr::Hyb>(); },
                           pure_predictor_factory());
  for (const bool treatment : {false, true}) {
    const auto full = exp.run(treatment, 11);
    const auto checkpoint = exp.run_to_day(treatment, 11, 2);
    EXPECT_EQ(checkpoint.fleet.next_day, 2u);
    EXPECT_EQ(checkpoint.records.finish(2).user_days.size(), cfg.users * 2);
    const auto resumed = exp.resume(treatment, 11, checkpoint);
    expect_results_identical(resumed, full);
  }
}

TEST(PopulationExperiment, ResumeExtendsHorizonWithoutResimulating) {
  // Intervention-day continuation: extend a finished D-day A/B fleet by K
  // days from its checkpoint; the spliced result must equal a from-scratch
  // experiment over D+K days.
  const auto cfg = small_config();  // 4 days, intervention at 2
  auto extended_cfg = cfg;
  extended_cfg.days = 6;
  PopulationExperiment exp(cfg, [] { return std::make_unique<abr::Hyb>(); },
                           pure_predictor_factory());
  PopulationExperiment extended_exp(extended_cfg,
                                    [] { return std::make_unique<abr::Hyb>(); },
                                    pure_predictor_factory());
  const auto full6 = extended_exp.run(true, 13);
  const auto checkpoint = exp.run_to_day(true, 13, 3);
  const auto extended = exp.resume(true, 13, checkpoint, 6);
  expect_results_identical(extended, full6);
}

TEST(RelativeDailyGap, ComputesPerDayRelativeDifference) {
  ExperimentResult control, treatment;
  control.daily.resize(2);
  treatment.daily.resize(2);
  control.daily[0].add(make_session(10.0, 1.0, 1000.0, false));
  treatment.daily[0].add(make_session(11.0, 1.0, 1000.0, false));
  control.daily[1].add(make_session(20.0, 1.0, 1000.0, false));
  treatment.daily[1].add(make_session(19.0, 1.0, 1000.0, false));
  const auto gaps =
      relative_daily_gap(treatment, control, &MetricAccumulator::total_watch_time);
  ASSERT_EQ(gaps.size(), 2u);
  EXPECT_NEAR(gaps[0], 0.1, 1e-9);
  EXPECT_NEAR(gaps[1], -0.05, 1e-9);
}

// ---------------------------------------------------------------------------
// Health report: timeline summarization and A/B comparison.

TEST(HealthReport, SummarizesTimelineSeriesDigestsAndAlerts) {
  const std::string path = ::testing::TempDir() + "/lingxi_health_report_timeline.bin";
  {
    obs::Registry reg;
    obs::TimelineWriter writer(path);
    static const obs::HistogramSpec spec({10.0, 20.0});
    reg.set("sim.fleet.sessions_total", 100.0);
    reg.set("sim.fleet.day", 1.0);
    reg.add("predictor.pool.queries", 4);
    reg.observe("snapshot.save.total_us", spec, 5.0);
    writer.append_day(1, reg.snapshot());
    reg.set("sim.fleet.sessions_total", 250.0);
    reg.set("sim.fleet.day", 2.0);
    reg.add("predictor.pool.queries", 6);
    reg.observe("snapshot.save.total_us", spec, 15.0);
    reg.observe("snapshot.save.total_us", spec, 15.0);
    writer.append_day(2, reg.snapshot());
    obs::HealthAlert alert;
    alert.day = 2;
    alert.rule = "sessions-ceiling";
    alert.metric = "sim.fleet.sessions_total";
    alert.observed = 250.0;
    alert.threshold = 200.0;
    alert.message = "gauge above ceiling";
    writer.append_alert(alert);
    ASSERT_TRUE(writer.close().ok());
  }

  const auto summary = summarize_timeline(path);
  ASSERT_TRUE(summary.has_value()) << summary.error().message;
  EXPECT_EQ(summary->day_records, 2u);
  EXPECT_EQ(summary->first_day, 1u);
  EXPECT_EQ(summary->last_day, 2u);

  const MetricDaySeries* sessions = summary->find("sim.fleet.sessions_total");
  ASSERT_NE(sessions, nullptr);
  EXPECT_TRUE(sessions->deterministic);
  EXPECT_EQ(sessions->kind, obs::MetricKind::kGauge);
  ASSERT_EQ(sessions->values.size(), 2u);
  EXPECT_DOUBLE_EQ(sessions->first, 100.0);
  EXPECT_DOUBLE_EQ(sessions->last, 250.0);
  EXPECT_DOUBLE_EQ(sessions->min, 100.0);
  EXPECT_DOUBLE_EQ(sessions->max, 250.0);
  EXPECT_DOUBLE_EQ(sessions->mean, 175.0);

  // Counters are process-lifetime, not splice-invariant, so they live in the
  // wall-clock section; the series still tracks their cumulative trajectory.
  const MetricDaySeries* queries = summary->find("predictor.pool.queries");
  ASSERT_NE(queries, nullptr);
  EXPECT_FALSE(queries->deterministic);
  EXPECT_EQ(queries->kind, obs::MetricKind::kCounter);
  EXPECT_DOUBLE_EQ(queries->first, 4.0);
  EXPECT_DOUBLE_EQ(queries->last, 10.0);

  // Digest is over the FINAL day's histogram: {5, 15, 15} in buckets
  // (<=10, <=20] -> p50 interpolates to 12.5, p95/p99 clamp to observed max.
  ASSERT_EQ(summary->histograms.size(), 1u);
  const HistogramDigest& d = summary->histograms[0];
  EXPECT_EQ(d.name, "snapshot.save.total_us");
  EXPECT_EQ(d.count, 3u);
  EXPECT_DOUBLE_EQ(d.sum, 35.0);
  EXPECT_DOUBLE_EQ(d.p50, 12.5);
  EXPECT_DOUBLE_EQ(d.p95, 15.0);
  EXPECT_DOUBLE_EQ(d.p99, 15.0);

  ASSERT_EQ(summary->alerts.size(), 1u);
  EXPECT_EQ(summary->alerts[0].day, 2u);
  EXPECT_EQ(summary->alerts[0].rule, "sessions-ceiling");
  EXPECT_DOUBLE_EQ(summary->alerts[0].observed, 250.0);

  // The JSON report must itself parse under the repo's JSON reader.
  std::ostringstream os;
  summary->write_json(os);
  const auto doc = parse_json(os.str());
  ASSERT_TRUE(doc.has_value()) << doc.error().message;
  const JsonValue* schema = doc->find("schema");
  ASSERT_NE(schema, nullptr);
  EXPECT_EQ(schema->as_string(), "lingxi.obs.health_report/v1");
  const JsonValue* days = doc->find("day_records");
  ASSERT_NE(days, nullptr);
  EXPECT_DOUBLE_EQ(days->as_number(), 2.0);

  std::remove(path.c_str());
}

TEST(HealthReport, CorruptOrMissingTimelineIsErrorNotUb) {
  const std::string garbage = ::testing::TempDir() + "/lingxi_health_report_garbage.bin";
  {
    std::ofstream out(garbage, std::ios::binary);
    out << "this is not a timeline";
  }
  const auto corrupt = summarize_timeline(garbage);
  ASSERT_FALSE(corrupt.has_value());
  EXPECT_EQ(corrupt.error().code, Error::Code::kCorrupt);
  std::remove(garbage.c_str());

  const auto missing = summarize_timeline(::testing::TempDir() + "/no_such_timeline.bin");
  ASSERT_FALSE(missing.has_value());
  EXPECT_EQ(missing.error().code, Error::Code::kIo);
}

TEST(HealthReport, CompareTimelinesFlagsMovedMetrics) {
  const auto series = [](const char* name, double last) {
    MetricDaySeries s;
    s.name = name;
    s.last = last;
    return s;
  };
  TimelineSummary base, cand;
  base.series = {series("a.shared", 100.0), series("b.gone", 1.0), series("c.zero", 0.0),
                 series("d.steady", 50.0)};
  cand.series = {series("a.shared", 120.0), series("c.zero", 2.0), series("d.steady", 50.0),
                 series("e.new", 5.0)};
  base.alerts.emplace_back();

  const TimelineComparison cmp = compare_timelines(base, cand, 0.1);
  // Sorted by |rel_change| descending: the zero-base sentinel outranks +20%.
  ASSERT_EQ(cmp.flagged.size(), 2u);
  EXPECT_EQ(cmp.flagged[0].name, "c.zero");
  EXPECT_GT(cmp.flagged[0].rel_change, 1e8);
  EXPECT_EQ(cmp.flagged[1].name, "a.shared");
  EXPECT_NEAR(cmp.flagged[1].rel_change, 0.2, 1e-12);
  ASSERT_EQ(cmp.base_only.size(), 1u);
  EXPECT_EQ(cmp.base_only[0], "b.gone");
  ASSERT_EQ(cmp.candidate_only.size(), 1u);
  EXPECT_EQ(cmp.candidate_only[0], "e.new");
  EXPECT_EQ(cmp.base_alerts, 1u);
  EXPECT_EQ(cmp.candidate_alerts, 0u);
  EXPECT_FALSE(cmp.clean());

  const TimelineComparison self = compare_timelines(base, base, 0.1);
  EXPECT_TRUE(self.clean());
}

// ---------------------------------------------------------------------------
// Bench gate: baseline spec parsing and regression evaluation.

TEST(BenchGate, ParsesBaselineSpec) {
  const auto doc = parse_json(R"({
    "schema": "lingxi.bench.baseline/v1",
    "max_regression": 0.2,
    "checks": [
      {"name": "batched-speedup", "input": "scaling",
       "metric": "batched.sessions_per_sec", "divide_by": "scalar.sessions_per_sec",
       "baseline": 2.0},
      {"name": "p99-latency", "input": "scaling", "metric": "p99_ms",
       "baseline": 10.0, "higher_is_better": false, "max_regression": 0.5}
    ]
  })");
  ASSERT_TRUE(doc.has_value()) << doc.error().message;
  const auto spec = BaselineSpec::parse(*doc);
  ASSERT_TRUE(spec.has_value()) << spec.error().message;
  EXPECT_DOUBLE_EQ(spec->default_max_regression, 0.2);
  ASSERT_EQ(spec->checks.size(), 2u);
  EXPECT_EQ(spec->checks[0].name, "batched-speedup");
  EXPECT_EQ(spec->checks[0].divide_by, "scalar.sessions_per_sec");
  EXPECT_TRUE(spec->checks[0].higher_is_better);
  EXPECT_LT(spec->checks[0].max_regression, 0.0);  // inherits the default
  EXPECT_FALSE(spec->checks[1].higher_is_better);
  EXPECT_DOUBLE_EQ(spec->checks[1].max_regression, 0.5);
}

TEST(BenchGate, RejectsMalformedBaselineSpec) {
  const char* bad_docs[] = {
      R"({"schema": "lingxi.bench.baseline/v2", "checks": []})",
      R"({"checks": [{"name": "x", "input": "i", "metric": "m", "baseline": 1}]})",
      R"({"schema": "lingxi.bench.baseline/v1"})",
      R"({"schema": "lingxi.bench.baseline/v1", "checks": []})",
      R"({"schema": "lingxi.bench.baseline/v1",
          "checks": [{"name": "x", "input": "i", "metric": "m"}]})",
      R"({"schema": "lingxi.bench.baseline/v1", "max_regression": -0.1,
          "checks": [{"name": "x", "input": "i", "metric": "m", "baseline": 1}]})",
  };
  for (const char* text : bad_docs) {
    const auto doc = parse_json(text);
    ASSERT_TRUE(doc.has_value()) << text;
    const auto spec = BaselineSpec::parse(*doc);
    ASSERT_FALSE(spec.has_value()) << text;
    EXPECT_EQ(spec.error().code, Error::Code::kParse) << text;
  }
}

TEST(BenchGate, EvaluatesRatiosAndCatchesRegressions) {
  BaselineSpec spec;
  spec.default_max_regression = 0.2;
  BaselineCheck ratio;
  ratio.name = "batched-speedup";
  ratio.input = "scaling";
  ratio.metric = "batched.sessions_per_sec";
  ratio.divide_by = "scalar.sessions_per_sec";
  ratio.baseline = 2.0;
  BaselineCheck latency;
  latency.name = "p99-latency";
  latency.input = "scaling";
  latency.metric = "p99_ms";
  latency.baseline = 10.0;
  latency.higher_is_better = false;
  latency.max_regression = 0.5;
  spec.checks = {ratio, latency};

  std::map<std::string, JsonValue> inputs;
  const auto healthy = parse_json(
      R"({"batched": {"sessions_per_sec": 300.0},
          "scalar": {"sessions_per_sec": 100.0}, "p99_ms": 12.0})");
  ASSERT_TRUE(healthy.has_value());
  inputs.emplace("scaling", *healthy);
  const GateReport good = evaluate_baseline(spec, inputs);
  ASSERT_EQ(good.results.size(), 2u);
  EXPECT_TRUE(good.ok());
  EXPECT_DOUBLE_EQ(good.results[0].observed, 3.0);  // 300/100 via divide_by
  EXPECT_NEAR(good.results[0].rel_change, 0.5, 1e-12);
  EXPECT_TRUE(good.results[1].ok);  // 12 <= 10 * (1 + 0.5)

  // Higher-is-better regression: ratio 1.5 < floor 2.0 * (1 - 0.2) = 1.6.
  inputs.clear();
  const auto regressed = parse_json(
      R"({"batched": {"sessions_per_sec": 150.0},
          "scalar": {"sessions_per_sec": 100.0}, "p99_ms": 16.0})");
  ASSERT_TRUE(regressed.has_value());
  inputs.emplace("scaling", *regressed);
  const GateReport bad = evaluate_baseline(spec, inputs);
  EXPECT_FALSE(bad.ok());
  EXPECT_FALSE(bad.results[0].ok);
  EXPECT_FALSE(bad.results[1].ok);  // 16 > ceiling 15

  // Missing input label and missing metric path fail the check, not the
  // process.
  inputs.clear();
  const auto sparse = parse_json(R"({"scalar": {"sessions_per_sec": 100.0}})");
  ASSERT_TRUE(sparse.has_value());
  inputs.emplace("other-label", *sparse);
  const GateReport missing_input = evaluate_baseline(spec, inputs);
  EXPECT_FALSE(missing_input.ok());
  EXPECT_NE(missing_input.results[0].detail.find("no --input"), std::string::npos);

  inputs.clear();
  inputs.emplace("scaling", *sparse);
  const GateReport missing_metric = evaluate_baseline(spec, inputs);
  EXPECT_FALSE(missing_metric.ok());
  EXPECT_NE(missing_metric.results[0].detail.find("missing or non-numeric"),
            std::string::npos);
}

}  // namespace
}  // namespace lingxi::analytics
