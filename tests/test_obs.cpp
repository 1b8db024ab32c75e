// Unit tests for src/obs/: registry merge determinism across thread counts,
// histogram bucket boundaries, trace ring overflow semantics, the stable
// JSON schemas, and the disabled fast path.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/expected.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/sampler.h"
#include "obs/timeline.h"
#include "obs/timer.h"
#include "obs/trace.h"

namespace lingxi::obs {
namespace {

/// Installs a registry and/or tracer for one test and guarantees the global
/// sinks are cleared on exit, whatever the test body does.
struct InstallGuard {
  explicit InstallGuard(Registry* r, Tracer* t = nullptr) {
    Registry::install(r);
    Tracer::install(t);
  }
  ~InstallGuard() {
    Registry::install(nullptr);
    Tracer::install(nullptr);
  }
};

/// Deterministic synthetic workload: item i contributes the same counter
/// delta and histogram observation regardless of which thread runs it, and
/// every thread pins the gauge to the same value — so the merged snapshot
/// is a pure function of the item set, not of the partition.
void record_items(Registry& reg, std::size_t first, std::size_t last,
                  const HistogramSpec& spec) {
  for (std::size_t i = first; i < last; ++i) {
    reg.add("test.items", (i % 5) + 1);
    reg.add("test.touched");
    reg.observe("test.values", spec, static_cast<double>(i % 50));
  }
  if (first < last) reg.set("test.gauge", 7.5);
}

RegistrySnapshot run_partitioned(std::size_t threads, std::size_t items,
                                 const HistogramSpec& spec) {
  Registry reg;
  if (threads <= 1) {
    record_items(reg, 0, items, spec);
  } else {
    std::vector<std::thread> workers;
    workers.reserve(threads);
    const std::size_t chunk = (items + threads - 1) / threads;
    for (std::size_t t = 0; t < threads; ++t) {
      const std::size_t first = std::min(t * chunk, items);
      const std::size_t last = std::min(first + chunk, items);
      workers.emplace_back(
          [&reg, first, last, &spec] { record_items(reg, first, last, spec); });
    }
    for (auto& w : workers) w.join();
  }
  return reg.snapshot();
}

TEST(ObsRegistry, MergeDeterministicAcrossThreadCounts) {
  const HistogramSpec spec({4.0, 16.0, 64.0});
  const RegistrySnapshot reference = run_partitioned(1, 240, spec);
  for (const std::size_t threads : {2u, 4u, 8u}) {
    const RegistrySnapshot snap = run_partitioned(threads, 240, spec);
    EXPECT_TRUE(snap == reference);
  }
  // Spot-check the reference itself.
  const MetricSnapshot* items = reference.find("test.items");
  ASSERT_NE(items, nullptr);
  EXPECT_EQ(items->count, 240u / 5u * (1u + 2u + 3u + 4u + 5u));
  const MetricSnapshot* touched = reference.find("test.touched");
  ASSERT_NE(touched, nullptr);
  EXPECT_EQ(touched->count, 240u);
  const MetricSnapshot* gauge = reference.find("test.gauge");
  ASSERT_NE(gauge, nullptr);
  EXPECT_DOUBLE_EQ(gauge->value, 7.5);
  const MetricSnapshot* values = reference.find("test.values");
  ASSERT_NE(values, nullptr);
  EXPECT_EQ(values->count, 240u);
}

TEST(ObsRegistry, HistogramBucketBoundaries) {
  // Bucket i counts v <= bounds[i]; past the last bound -> overflow bucket.
  const HistogramSpec spec({1.0, 2.0, 4.0});
  EXPECT_EQ(spec.buckets(), 4u);
  EXPECT_EQ(spec.bucket_for(0.5), 0u);
  EXPECT_EQ(spec.bucket_for(1.0), 0u);  // boundary value lands inclusive
  EXPECT_EQ(spec.bucket_for(1.5), 1u);
  EXPECT_EQ(spec.bucket_for(2.0), 1u);
  EXPECT_EQ(spec.bucket_for(4.0), 2u);
  EXPECT_EQ(spec.bucket_for(4.1), 3u);  // overflow

  Registry reg;
  for (double v : {0.5, 1.0, 1.5, 2.0, 4.0, 4.1, 100.0}) {
    reg.observe("h", spec, v);
  }
  const RegistrySnapshot snap = reg.snapshot();
  const MetricSnapshot* h = snap.find("h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 7u);
  ASSERT_EQ(h->buckets.size(), 4u);
  EXPECT_EQ(h->buckets[0], 2u);
  EXPECT_EQ(h->buckets[1], 2u);
  EXPECT_EQ(h->buckets[2], 1u);
  EXPECT_EQ(h->buckets[3], 2u);
  EXPECT_DOUBLE_EQ(h->min, 0.5);
  EXPECT_DOUBLE_EQ(h->max, 100.0);
  EXPECT_NEAR(h->value, 0.5 + 1.0 + 1.5 + 2.0 + 4.0 + 4.1 + 100.0, 1e-12);
}

TEST(ObsRegistry, GaugeMergeHighestUpdateCountWinsTieMaxValue) {
  {
    // Shard A sets three times (last value 1), shard B once (value 9):
    // the busier shard wins regardless of merge order.
    Registry reg;
    reg.set("g", 5.0);
    reg.set("g", 6.0);
    reg.set("g", 1.0);
    std::thread([&reg] { reg.set("g", 9.0); }).join();
    const RegistrySnapshot snap = reg.snapshot();
    const MetricSnapshot* g = snap.find("g");
    ASSERT_NE(g, nullptr);
    EXPECT_DOUBLE_EQ(g->value, 1.0);
  }
  {
    // Equal update counts: the larger value wins (order-independent tie).
    Registry reg;
    reg.set("g", 3.0);
    std::thread([&reg] { reg.set("g", 8.0); }).join();
    const RegistrySnapshot snap = reg.snapshot();
    const MetricSnapshot* g = snap.find("g");
    ASSERT_NE(g, nullptr);
    EXPECT_DOUBLE_EQ(g->value, 8.0);
  }
}

TEST(ObsRegistry, CounterReadBackSumsShards) {
  Registry reg;
  reg.add("c", 10);
  std::thread([&reg] { reg.add("c", 32); }).join();
  EXPECT_EQ(reg.counter("c"), 42u);
  EXPECT_EQ(reg.counter("missing"), 0u);
}

TEST(ObsRegistry, JsonSchemaGolden) {
  Registry reg;
  reg.add("a.counter", 3);
  reg.set("b.gauge", 2.5);
  const HistogramSpec spec({1.0, 2.0});
  reg.observe("c.hist", spec, 1.5);
  std::ostringstream os;
  reg.write_json(os);
  const std::string expected =
      "{\"schema\": \"lingxi.obs.metrics/v1\", \"metrics\": ["
      "{\"name\": \"a.counter\", \"kind\": \"counter\", \"value\": 3}, "
      "{\"name\": \"b.gauge\", \"kind\": \"gauge\", \"value\": 2.5}, "
      "{\"name\": \"c.hist\", \"kind\": \"histogram\", \"count\": 1, "
      "\"sum\": 1.5, \"min\": 1.5, \"max\": 1.5, "
      "\"p50\": 1.5, \"p95\": 1.5, \"p99\": 1.5, \"bounds\": [1, 2], "
      "\"buckets\": [0, 1, 0]}]}\n";
  EXPECT_EQ(os.str(), expected);
}

TEST(ObsRegistry, DisabledSitesAreNoOps) {
  ASSERT_EQ(Registry::active(), nullptr);
  ASSERT_EQ(Tracer::active(), nullptr);
  {
    // Every macro must be safe (and free) with no sinks installed.
    OBS_TIMED("x.y.z_us");
    OBS_SPAN("x.span");
    OBS_TIMED_SPAN("x.both_us");
  }
  Registry reg;
  EXPECT_TRUE(reg.snapshot().metrics.empty());
}

TEST(ObsRegistry, ScopedTimerFeedsHistogramAndSpan) {
  Registry reg;
  Tracer tracer(16);
  InstallGuard guard(&reg, &tracer);
  {
    OBS_TIMED("unit.timer.scope_us");
    OBS_SPAN("unit.span");
  }
  {
    OBS_TIMED_SPAN("unit.both_us");
  }
  const RegistrySnapshot snap = reg.snapshot();
  const MetricSnapshot* timed = snap.find("unit.timer.scope_us");
  ASSERT_NE(timed, nullptr);
  EXPECT_EQ(timed->kind, MetricKind::kHistogram);
  EXPECT_EQ(timed->count, 1u);
  const MetricSnapshot* both = snap.find("unit.both_us");
  ASSERT_NE(both, nullptr);
  EXPECT_EQ(both->count, 1u);
  EXPECT_EQ(tracer.retained_events(), 2u);  // unit.span + unit.both_us
  EXPECT_EQ(tracer.dropped_events(), 0u);
}

TEST(ObsTracer, RingOverflowDropsOldestAndCounts) {
  static const char* const kNames[] = {"s0", "s1", "s2", "s3", "s4", "s5"};
  Tracer tracer(4);
  for (std::uint64_t i = 0; i < 6; ++i) {
    tracer.record(kNames[i], 10 * i, 10 * i + 5);
  }
  EXPECT_EQ(tracer.retained_events(), 4u);
  EXPECT_EQ(tracer.dropped_events(), 2u);
  std::ostringstream os;
  tracer.write_json(os);
  const std::string json = os.str();
  // Oldest two spans are gone; the newest four survive, and the drop count
  // is exported with the trace.
  EXPECT_EQ(json.find("\"s0\""), std::string::npos);
  EXPECT_EQ(json.find("\"s1\""), std::string::npos);
  EXPECT_NE(json.find("\"s2\""), std::string::npos);
  EXPECT_NE(json.find("\"s5\""), std::string::npos);
  EXPECT_NE(json.find("\"dropped_events\": 2"), std::string::npos);
}

TEST(ObsTracer, ChromeTraceJsonShape) {
  Tracer tracer(8);
  tracer.record("alpha", 100, 250);
  tracer.record("beta", 300, 301);
  std::ostringstream os;
  tracer.write_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"displayTimeUnit\": \"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"schema\": \"lingxi.obs.trace/v1\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\": ["), std::string::npos);
  EXPECT_NE(json.find("{\"name\": \"alpha\", \"cat\": \"lingxi\", \"ph\": \"X\", "
                      "\"ts\": 100, \"dur\": 150, \"pid\": 0, \"tid\": 0}"),
            std::string::npos);
  EXPECT_NE(json.find("{\"name\": \"beta\", \"cat\": \"lingxi\", \"ph\": \"X\", "
                      "\"ts\": 300, \"dur\": 1, \"pid\": 0, \"tid\": 0}"),
            std::string::npos);
}

TEST(ObsSampler, GaugesAndRates) {
  Registry reg;
  // Pool counters present -> the sampler derives mean flush occupancy.
  reg.add("predictor.pool.flushes", 4);
  reg.add("predictor.pool.queries", 100);
  PeriodicSampler sampler(&reg, /*base_sessions=*/50);
  FleetDayFacts facts;
  facts.day = 2;
  facts.live_users = 8;
  facts.sessions_total = 150;
  facts.completed_total = 144;
  facts.mean_bitrate_kbps = 1200.0;
  facts.completion_rate = 0.96;
  sampler.sample_at(facts, /*now_us=*/1'000'000);
  const RegistrySnapshot snap = reg.snapshot();
  const MetricSnapshot* day = snap.find("sim.fleet.day");
  ASSERT_NE(day, nullptr);
  EXPECT_DOUBLE_EQ(day->value, 2.0);
  const MetricSnapshot* live = snap.find("sim.fleet.live_users");
  ASSERT_NE(live, nullptr);
  EXPECT_DOUBLE_EQ(live->value, 8.0);
  const MetricSnapshot* total = snap.find("sim.fleet.sessions_total");
  ASSERT_NE(total, nullptr);
  EXPECT_DOUBLE_EQ(total->value, 150.0);
  const MetricSnapshot* completed = snap.find("sim.fleet.completed_total");
  ASSERT_NE(completed, nullptr);
  EXPECT_DOUBLE_EQ(completed->value, 144.0);
  const MetricSnapshot* bitrate = snap.find("sim.fleet.mean_bitrate_kbps");
  ASSERT_NE(bitrate, nullptr);
  EXPECT_DOUBLE_EQ(bitrate->value, 1200.0);
  // The first sample only establishes the rate window: no rate gauge yet.
  EXPECT_EQ(snap.find("sim.fleet.sessions_per_sec"), nullptr);
  const MetricSnapshot* occ = snap.find("predictor.pool.mean_flush_occupancy");
  ASSERT_NE(occ, nullptr);
  EXPECT_DOUBLE_EQ(occ->value, 25.0);
  // RSS gauges exist; positive on Linux, and the peak bounds the current.
  const MetricSnapshot* rss = snap.find("process.rss_bytes");
  ASSERT_NE(rss, nullptr);
  const MetricSnapshot* peak = snap.find("process.rss_peak_bytes");
  ASSERT_NE(peak, nullptr);
#if defined(__linux__)
  EXPECT_GT(rss->value, 0.0);
  EXPECT_GT(peak->value, 0.0);
  EXPECT_GE(peak->value, rss->value);
#endif

  // A zero-microsecond resample neither publishes a rate (the window would
  // divide by zero) nor collapses the window for the next real sample.
  facts.day = 3;
  facts.sessions_total = 250;
  sampler.sample_at(facts, /*now_us=*/1'000'000);
  EXPECT_EQ(reg.snapshot().find("sim.fleet.sessions_per_sec"), nullptr);

  // A real window: (450 - 150) sessions over 2 elapsed seconds.
  facts.day = 4;
  facts.sessions_total = 450;
  sampler.sample_at(facts, /*now_us=*/3'000'000);
  const RegistrySnapshot snap2 = reg.snapshot();
  const MetricSnapshot* rate = snap2.find("sim.fleet.sessions_per_sec");
  ASSERT_NE(rate, nullptr);
  EXPECT_DOUBLE_EQ(rate->value, 150.0);

  // Null-registry sampler is a no-op.
  PeriodicSampler off(nullptr);
  off.sample(FleetDayFacts{});
}

TEST(ObsSampler, PeakRssBoundsCurrentRss) {
#if defined(__linux__)
  const std::uint64_t rss = process_rss_bytes();
  const std::uint64_t peak = process_peak_rss_bytes();
  EXPECT_GT(rss, 0u);
  EXPECT_GT(peak, 0u);
  EXPECT_GE(peak, rss);
#else
  EXPECT_EQ(process_peak_rss_bytes(), 0u);
#endif
}

TEST(ObsHistogram, QuantileInterpolatesWithinBuckets) {
  Registry reg;
  const HistogramSpec spec({10.0, 20.0});
  // One observation per bucket: [5] | (10, 15] | overflow (30).
  for (double v : {5.0, 15.0, 30.0}) reg.observe("q", spec, v);
  const RegistrySnapshot snap = reg.snapshot();
  const MetricSnapshot* q = snap.find("q");
  ASSERT_NE(q, nullptr);
  // q=0 resolves inside bucket 0, whose lower edge is the observed min.
  EXPECT_DOUBLE_EQ(q->quantile(0.0), 5.0);
  // rank 1.5 lands halfway through bucket 1: lower 10, upper 20.
  EXPECT_DOUBLE_EQ(q->quantile(0.5), 15.0);
  // rank 3 exhausts the overflow bucket, whose upper edge is the observed
  // max — never infinity.
  EXPECT_DOUBLE_EQ(q->quantile(1.0), 30.0);
  // Out-of-range q clamps rather than extrapolating.
  EXPECT_DOUBLE_EQ(q->quantile(-1.0), 5.0);
  EXPECT_DOUBLE_EQ(q->quantile(2.0), 30.0);
}

TEST(ObsHistogram, QuantileEdgeCases) {
  Registry reg;
  const HistogramSpec spec({10.0, 20.0});
  // Single observation: every quantile is that observation (clamped to
  // [min, max] = [v, v]).
  reg.observe("one", spec, 12.5);
  const RegistrySnapshot snap1 = reg.snapshot();
  const MetricSnapshot* one = snap1.find("one");
  ASSERT_NE(one, nullptr);
  EXPECT_DOUBLE_EQ(one->quantile(0.01), 12.5);
  EXPECT_DOUBLE_EQ(one->quantile(0.99), 12.5);
  // All observations in the overflow bucket: quantiles stay within
  // [min, max] of the real data.
  reg.observe("over", spec, 100.0);
  reg.observe("over", spec, 200.0);
  const RegistrySnapshot snap2 = reg.snapshot();
  const MetricSnapshot* over = snap2.find("over");
  ASSERT_NE(over, nullptr);
  EXPECT_GE(over->quantile(0.5), 100.0);
  EXPECT_LE(over->quantile(0.5), 200.0);
  EXPECT_DOUBLE_EQ(over->quantile(1.0), 200.0);
  // Non-histogram and empty metrics report 0.
  reg.add("ctr", 5);
  reg.set("g", 3.0);
  const RegistrySnapshot snap3 = reg.snapshot();
  EXPECT_DOUBLE_EQ(snap3.find("ctr")->quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(snap3.find("g")->quantile(0.5), 0.0);
  MetricSnapshot empty;
  empty.kind = MetricKind::kHistogram;
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);
}

// ---------------------------------------------------------------------------
// Timeline: round-trip, section partitioning, schema handling. The LXTL
// framing itself is covered by the frame table in test_codec.cpp.
// ---------------------------------------------------------------------------

TEST(ObsTimeline, DeterministicSectionPredicate) {
  EXPECT_TRUE(timeline_deterministic("sim.fleet.day", MetricKind::kGauge));
  EXPECT_TRUE(timeline_deterministic("sim.fleet.sessions_total", MetricKind::kGauge));
  // The rate measures the machine, not the simulation.
  EXPECT_FALSE(timeline_deterministic("sim.fleet.sessions_per_sec", MetricKind::kGauge));
  // Counters reset on restart, so they cannot splice deterministically.
  EXPECT_FALSE(timeline_deterministic("sim.fleet.day", MetricKind::kCounter));
  EXPECT_FALSE(timeline_deterministic("process.rss_bytes", MetricKind::kGauge));
  EXPECT_FALSE(timeline_deterministic("sim.session.step_us", MetricKind::kHistogram));
}

TEST(ObsTimeline, RoundTripDaysAndAlerts) {
  const std::string path = "obs_timeline_roundtrip.bin";
  Registry reg;
  reg.set("sim.fleet.day", 1.0);
  reg.set("sim.fleet.sessions_total", 100.0);
  reg.set("sim.fleet.sessions_per_sec", 42.0);  // wall-clock
  reg.set("process.rss_bytes", 1e6);            // wall-clock
  reg.add("sched.waves", 7);                    // wall-clock (counter)
  const HistogramSpec spec({1.0, 2.0});
  reg.observe("sim.step_us", spec, 1.5);        // wall-clock (histogram)
  {
    TimelineWriter writer(path);
    ASSERT_TRUE(writer.status().ok());
    writer.append_day(1, reg.snapshot());
    reg.set("sim.fleet.day", 2.0);
    reg.set("sim.fleet.sessions_total", 220.0);
    writer.append_day(2, reg.snapshot());
    HealthAlert alert;
    alert.day = 2;
    alert.rule = "floor:sim.fleet.completion_rate";
    alert.metric = "sim.fleet.completion_rate";
    alert.observed = 0.4;
    alert.threshold = 0.9;
    alert.message = "completion rate 0.4 below floor 0.9";
    writer.append_alert(alert);
    EXPECT_EQ(writer.days_written(), 2u);
    EXPECT_TRUE(writer.close().ok());
  }
  auto reader = TimelineReader::open(path);
  ASSERT_TRUE(static_cast<bool>(reader));
  auto records = reader->read_all();
  ASSERT_TRUE(static_cast<bool>(records));
  ASSERT_EQ(records->size(), 3u);

  const TimelineRecord& day1 = (*records)[0];
  EXPECT_EQ(day1.type, TimelineRecord::Type::kDay);
  EXPECT_EQ(day1.day, 1u);
  ASSERT_EQ(day1.deterministic.size(), 2u);  // sim.fleet.day, sessions_total
  EXPECT_EQ(day1.deterministic[0].name, "sim.fleet.day");
  EXPECT_DOUBLE_EQ(day1.deterministic[0].value, 1.0);
  EXPECT_EQ(day1.deterministic[1].name, "sim.fleet.sessions_total");
  EXPECT_DOUBLE_EQ(day1.deterministic[1].value, 100.0);
  // Wall-clock section holds the rate, RSS, the counter and the histogram.
  ASSERT_EQ(day1.wallclock.size(), 4u);
  bool saw_rate = false, saw_hist = false;
  for (const MetricSnapshot& m : day1.wallclock) {
    if (m.name == "sim.fleet.sessions_per_sec") {
      saw_rate = true;
      EXPECT_DOUBLE_EQ(m.value, 42.0);
    }
    if (m.name == "sim.step_us") {
      saw_hist = true;
      EXPECT_EQ(m.kind, MetricKind::kHistogram);
      EXPECT_EQ(m.count, 1u);
      ASSERT_EQ(m.bounds.size(), 2u);
      EXPECT_DOUBLE_EQ(m.bounds[0], 1.0);
      ASSERT_EQ(m.buckets.size(), 3u);
      EXPECT_EQ(m.buckets[1], 1u);
    }
  }
  EXPECT_TRUE(saw_rate);
  EXPECT_TRUE(saw_hist);

  const TimelineRecord& day2 = (*records)[1];
  EXPECT_EQ(day2.day, 2u);
  EXPECT_DOUBLE_EQ(day2.deterministic[1].value, 220.0);
  // Same metric set, different values: the deterministic bytes must differ.
  EXPECT_NE(day1.deterministic_bytes, day2.deterministic_bytes);

  const TimelineRecord& alert_rec = (*records)[2];
  EXPECT_EQ(alert_rec.type, TimelineRecord::Type::kAlert);
  EXPECT_EQ(alert_rec.day, 2u);
  EXPECT_EQ(alert_rec.alert.rule, "floor:sim.fleet.completion_rate");
  EXPECT_EQ(alert_rec.alert.metric, "sim.fleet.completion_rate");
  EXPECT_DOUBLE_EQ(alert_rec.alert.observed, 0.4);
  EXPECT_DOUBLE_EQ(alert_rec.alert.threshold, 0.9);
  EXPECT_EQ(alert_rec.alert.message, "completion rate 0.4 below floor 0.9");
  std::remove(path.c_str());
}

namespace {

void write_bytes(const std::string& path, const std::vector<unsigned char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// Schema-header payload for an arbitrary schema string.
std::vector<unsigned char> schema_payload(std::string_view schema) {
  std::vector<unsigned char> p;
  put_u32(p, 0);  // kRecSchema
  put_str(p, schema);
  return p;
}

}  // namespace

TEST(ObsTimeline, UnknownSchemaRejectedAtOpen) {
  const std::string path = "obs_timeline_badschema.bin";
  std::vector<unsigned char> bytes;
  append_frame(bytes, "LXTL", 1, schema_payload("lingxi.obs.timeline/v999"));
  write_bytes(path, bytes);
  auto reader = TimelineReader::open(path);
  ASSERT_FALSE(static_cast<bool>(reader));
  EXPECT_EQ(reader.error().code, Error::Code::kCorrupt);
  EXPECT_NE(reader.error().message.find("unknown schema"), std::string::npos);
  std::remove(path.c_str());
}

TEST(ObsTimeline, MissingFileIsIoError) {
  auto reader = TimelineReader::open("obs_timeline_does_not_exist.bin");
  ASSERT_FALSE(static_cast<bool>(reader));
  EXPECT_EQ(reader.error().code, Error::Code::kIo);
}

// ---------------------------------------------------------------------------
// Health monitor: rule grammar, rule kinds, latch semantics.
// ---------------------------------------------------------------------------

TEST(ObsHealth, ParseSloRuleGrammar) {
  auto floor = parse_slo_rule("floor:sim.fleet.completion_rate:0.9");
  ASSERT_TRUE(static_cast<bool>(floor));
  EXPECT_EQ(floor->kind, SloKind::kGaugeFloor);
  EXPECT_EQ(floor->metric, "sim.fleet.completion_rate");
  EXPECT_DOUBLE_EQ(floor->threshold, 0.9);
  EXPECT_EQ(floor->name, "floor:sim.fleet.completion_rate");  // defaulted

  auto ceiling = parse_slo_rule("ceiling:process.rss_bytes:2e9:rss-cap");
  ASSERT_TRUE(static_cast<bool>(ceiling));
  EXPECT_EQ(ceiling->kind, SloKind::kGaugeCeiling);
  EXPECT_DOUBLE_EQ(ceiling->threshold, 2e9);
  EXPECT_EQ(ceiling->name, "rss-cap");

  auto rate = parse_slo_rule("rate:checkpoint.commit.failures:0");
  ASSERT_TRUE(static_cast<bool>(rate));
  EXPECT_EQ(rate->kind, SloKind::kRateCeiling);
  EXPECT_DOUBLE_EQ(rate->threshold, 0.0);

  auto stall = parse_slo_rule("stall:sched.waves");
  ASSERT_TRUE(static_cast<bool>(stall));
  EXPECT_EQ(stall->kind, SloKind::kStall);

  for (const char* bad :
       {"", "floor", "floor:x", "floor:x:notanumber", "bogus:x:1", "stall:"}) {
    auto r = parse_slo_rule(bad);
    EXPECT_FALSE(static_cast<bool>(r)) << "spec '" << bad << "' should not parse";
    if (!r) {
      EXPECT_EQ(r.error().code, Error::Code::kParse);
    }
  }
}

TEST(ObsHealth, GaugeFloorAndCeilingRules) {
  HealthMonitor monitor({{SloKind::kGaugeFloor, "g.floor", 10.0, "f"},
                         {SloKind::kGaugeCeiling, "g.ceil", 100.0, "c"}});
  Registry reg;
  reg.set("g.floor", 20.0);
  reg.set("g.ceil", 50.0);
  monitor.evaluate(1, reg.snapshot());
  EXPECT_TRUE(monitor.healthy());

  reg.set("g.floor", 5.0);    // below floor
  reg.set("g.ceil", 150.0);   // above ceiling
  monitor.evaluate(2, reg.snapshot());
  EXPECT_FALSE(monitor.healthy());
  ASSERT_EQ(monitor.alerts().size(), 2u);
  EXPECT_EQ(monitor.alerts()[0].rule, "f");
  EXPECT_EQ(monitor.alerts()[0].day, 2u);
  EXPECT_DOUBLE_EQ(monitor.alerts()[0].observed, 5.0);
  EXPECT_DOUBLE_EQ(monitor.alerts()[0].threshold, 10.0);
  EXPECT_EQ(monitor.alerts()[1].rule, "c");
}

TEST(ObsHealth, LatchFiresOncePerEpisodeAndRearms) {
  HealthMonitor monitor({{SloKind::kGaugeFloor, "g", 10.0, "floor"}});
  Registry reg;
  reg.set("g", 5.0);
  // Persistent degradation over many days: exactly one alert.
  for (std::uint64_t day = 1; day <= 5; ++day) monitor.evaluate(day, reg.snapshot());
  EXPECT_EQ(monitor.alerts().size(), 1u);
  EXPECT_EQ(monitor.alerts()[0].day, 1u);
  // Recovery re-arms the rule...
  reg.set("g", 50.0);
  monitor.evaluate(6, reg.snapshot());
  EXPECT_EQ(monitor.alerts().size(), 1u);
  // ...so a relapse fires a second alert.
  reg.set("g", 3.0);
  monitor.evaluate(7, reg.snapshot());
  ASSERT_EQ(monitor.alerts().size(), 2u);
  EXPECT_EQ(monitor.alerts()[1].day, 7u);
  // healthy() stays false once anything has fired.
  EXPECT_FALSE(monitor.healthy());
}

TEST(ObsHealth, RateCeilingNeedsBaselineThenFiresOnDelta) {
  HealthMonitor monitor({{SloKind::kRateCeiling, "errors", 2.0, "err-budget"}});
  Registry reg;
  reg.add("errors", 100);
  // First evaluation only establishes the baseline — a huge absolute count
  // must not fire.
  monitor.evaluate(1, reg.snapshot());
  EXPECT_TRUE(monitor.healthy());
  // +2 per day is within budget.
  reg.add("errors", 2);
  monitor.evaluate(2, reg.snapshot());
  EXPECT_TRUE(monitor.healthy());
  // +5 per day blows the budget.
  reg.add("errors", 5);
  monitor.evaluate(3, reg.snapshot());
  ASSERT_EQ(monitor.alerts().size(), 1u);
  EXPECT_EQ(monitor.alerts()[0].day, 3u);
  EXPECT_DOUBLE_EQ(monitor.alerts()[0].observed, 5.0);
}

TEST(ObsHealth, StallRuleFiresWhenCounterStopsGrowing) {
  HealthMonitor monitor({{SloKind::kStall, "progress", 0.0, "watchdog"}});
  Registry reg;
  reg.add("progress", 10);
  monitor.evaluate(1, reg.snapshot());  // baseline
  EXPECT_TRUE(monitor.healthy());
  reg.add("progress", 4);
  monitor.evaluate(2, reg.snapshot());  // growing: fine
  EXPECT_TRUE(monitor.healthy());
  monitor.evaluate(3, reg.snapshot());  // no growth: stall
  ASSERT_EQ(monitor.alerts().size(), 1u);
  EXPECT_EQ(monitor.alerts()[0].rule, "watchdog");
  EXPECT_EQ(monitor.alerts()[0].day, 3u);
  // Latched while stalled; growth re-arms.
  monitor.evaluate(4, reg.snapshot());
  EXPECT_EQ(monitor.alerts().size(), 1u);
  reg.add("progress", 1);
  monitor.evaluate(5, reg.snapshot());
  EXPECT_EQ(monitor.alerts().size(), 1u);
}

TEST(ObsHealth, AbsentGaugeIsNoDataNotViolation) {
  HealthMonitor monitor({{SloKind::kGaugeFloor, "missing.gauge", 10.0, "f"}});
  Registry reg;
  monitor.evaluate(1, reg.snapshot());
  EXPECT_TRUE(monitor.healthy());
}

TEST(ObsHealth, AlertsLandInActiveTimeline) {
  const std::string path = "obs_health_timeline.bin";
  {
    TimelineWriter writer(path);
    TimelineWriter::install(&writer);
    HealthMonitor monitor({{SloKind::kGaugeFloor, "g", 10.0, "floor"}});
    Registry reg;
    reg.set("g", 1.0);
    monitor.evaluate(3, reg.snapshot());
    TimelineWriter::install(nullptr);
    EXPECT_TRUE(writer.close().ok());
    ASSERT_EQ(monitor.alerts().size(), 1u);
  }
  auto reader = TimelineReader::open(path);
  ASSERT_TRUE(static_cast<bool>(reader));
  auto records = reader->read_all();
  ASSERT_TRUE(static_cast<bool>(records));
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ((*records)[0].type, TimelineRecord::Type::kAlert);
  EXPECT_EQ((*records)[0].alert.rule, "floor");
  EXPECT_EQ((*records)[0].alert.day, 3u);
}

TEST(ObsRegistry, WriteJsonFileRoundTripsThroughDisk) {
  Registry reg;
  reg.add("file.counter", 7);
  const std::string path = "obs_metrics_test.json";
  ASSERT_TRUE(reg.write_json_file(path));
  std::ifstream in(path);
  ASSERT_TRUE(static_cast<bool>(in));
  std::stringstream buf;
  buf << in.rdbuf();
  std::ostringstream direct;
  reg.write_json(direct);
  EXPECT_EQ(buf.str(), direct.str());
  std::remove(path.c_str());
}

TEST(ObsDumps, WriteJsonFilesReplaceTheFileAtomically) {
  // Both dumps go through write_file: the new bytes land under a temp name
  // and are renamed over the old file, which is never truncated in place. A
  // hard link to the old file keeps its old bytes whole, no temp file stays
  // behind, and an unwritable path reports false.
  Registry reg;
  reg.add("file.counter", 7);
  Tracer tracer;
  Tracer::install(&tracer);
  { OBS_SPAN("dump.span"); }
  Tracer::install(nullptr);
  const auto dump_registry = [&](const std::string& p) { return reg.write_json_file(p); };
  const auto dump_tracer = [&](const std::string& p) { return tracer.write_json_file(p); };
  for (const auto& [name, dump] :
       {std::pair<std::string, std::function<bool(const std::string&)>>{"metrics", dump_registry},
        {"trace", dump_tracer}}) {
    const std::string path = ::testing::TempDir() + "/lingxi_obs_dump_" + name + ".json";
    const std::string link = path + ".old";
    std::remove(link.c_str());
    ASSERT_TRUE(write_file(path, std::vector<unsigned char>{'s', 't', 'a', 'l', 'e'}).ok());
    ASSERT_EQ(::link(path.c_str(), link.c_str()), 0) << name;

    ASSERT_TRUE(dump(path)) << name;
    const auto fresh = read_file(path);
    ASSERT_TRUE(fresh.has_value()) << name;
    EXPECT_EQ(fresh->front(), '{') << name;
    const auto old = read_file(link);
    ASSERT_TRUE(old.has_value()) << name;
    EXPECT_EQ(std::string(old->begin(), old->end()), "stale") << name;
    EXPECT_FALSE(std::ifstream(path + ".tmp").good()) << name;
    EXPECT_FALSE(dump(::testing::TempDir() + "/lingxi_obs_no_such_dir/dump.json")) << name;
    std::remove(path.c_str());
    std::remove(link.c_str());
  }
}

}  // namespace
}  // namespace lingxi::obs
