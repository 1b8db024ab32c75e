// Unit tests for lingxi_analytics: metric accumulation and the population
// experiment driver.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "abr/hyb.h"
#include "analytics/experiment.h"
#include "analytics/health_report.h"
#include "analytics/metrics.h"
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

  // The whole JSON report, byte for byte: every value above is exact in
  // %.17g, so the metric series, the digest and the alert all appear as set.
  // ci.sh also parses the CLI's report with python3, quiet and fired.
  std::ostringstream os;
  summary->write_json(os);
  EXPECT_EQ(os.str(),
            R"({"schema": "lingxi.obs.health_report/v1", "day_records": 2, )"
            R"("first_day": 1, "last_day": 2, "metrics": [)"
            R"({"name": "predictor.pool.queries", "kind": "counter", )"
            R"("deterministic": false, "first": 4, "last": 10, "min": 4, )"
            R"("max": 10, "mean": 7}, )"
            R"({"name": "sim.fleet.day", "kind": "gauge", "deterministic": true, )"
            R"("first": 1, "last": 2, "min": 1, "max": 2, "mean": 1.5}, )"
            R"({"name": "sim.fleet.sessions_total", "kind": "gauge", )"
            R"("deterministic": true, "first": 100, "last": 250, "min": 100, )"
            R"("max": 250, "mean": 175}, )"
            R"({"name": "snapshot.save.total_us", "kind": "histogram", )"
            R"("deterministic": false, "first": 1, "last": 3, "min": 1, "max": 3, )"
            R"("mean": 2}], )"
            R"("histograms": [{"name": "snapshot.save.total_us", "count": 3, )"
            R"("sum": 35, "p50": 12.5, "p95": 15, "p99": 15}], )"
            R"("alerts": [{"day": 2, "rule": "sessions-ceiling", )"
            R"("metric": "sim.fleet.sessions_total", "observed": 250, )"
            R"("threshold": 200, "message": "gauge above ceiling"}]})"
            "\n");

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

}  // namespace
}  // namespace lingxi::analytics
