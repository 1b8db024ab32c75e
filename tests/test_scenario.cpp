// Scenario subsystem: pure (user, day) query semantics, script validation,
// the canonical demo script, a real fork + SIGKILL through the churn day,
// and the golden-fixture regression for the scenario analytics report.
// Scenario parity across the scheduling grid and disk splices is a set of
// rows of the fleet parity harness in test_properties.cpp.
//
// Regenerating the analytics fixture (after an intentional numbers change):
//   LINGXI_REGEN_SCENARIO_GOLDEN=1 ./test_scenario
#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "abr/hyb.h"
#include "analytics/scenario_report.h"
#include "common/rng.h"
#include "predictor/exit_net.h"
#include "predictor/hybrid.h"
#include "predictor/os_model.h"
#include "scenario/scenario.h"
#include "sim/fleet_runner.h"
#include "snapshot/checkpoint.h"
#include "snapshot/snapshot.h"
#include "telemetry/capture.h"

#ifndef LINGXI_TEST_DATA_DIR
#define LINGXI_TEST_DATA_DIR "tests/data"
#endif

namespace lingxi {
namespace {

// ---------------------------------------------------------------------------
// Pure (user, day) query semantics.
// ---------------------------------------------------------------------------

TEST(ScenarioCohort, MembershipWithStrideAndPhase) {
  const scenario::Cohort everyone;  // defaults: [0, SIZE_MAX), stride 1
  EXPECT_TRUE(everyone.contains(0));
  EXPECT_TRUE(everyone.contains(123456));

  const scenario::Cohort strided{2, 11, 4, 1};  // 3, 7 (11 is out of range)
  EXPECT_FALSE(strided.contains(1));
  EXPECT_FALSE(strided.contains(2));
  EXPECT_TRUE(strided.contains(3));
  EXPECT_FALSE(strided.contains(4));
  EXPECT_TRUE(strided.contains(7));
  EXPECT_FALSE(strided.contains(11));
}

TEST(ScenarioQueries, ArrivalDayIsLatestMatchingFlashCrowd) {
  scenario::ScenarioScript script;
  script.flash_crowds.push_back({{4, 8, 1, 0}, 2});
  script.flash_crowds.push_back({{6, 8, 1, 0}, 3});
  EXPECT_EQ(script.arrival_day(0), 0u);  // initial fleet
  EXPECT_EQ(script.arrival_day(5), 2u);
  EXPECT_EQ(script.arrival_day(7), 3u);  // latest arrival wins
}

TEST(ScenarioQueries, GenerationBoundarySemantics) {
  scenario::ScenarioScript script;
  script.churns.push_back({{0, 4, 1, 0}, 2});
  script.churns.push_back({{0, 2, 1, 0}, 3});

  // A churn at day d belongs to the leg that simulates day d: strictly
  // before vs through differ exactly on the churn day.
  EXPECT_EQ(script.generations_before(0, 2), 0u);
  EXPECT_EQ(script.generations_through(0, 2), 1u);
  EXPECT_EQ(script.generations_before(0, 3), 1u);
  EXPECT_EQ(script.generations_through(0, 3), 2u);
  EXPECT_EQ(script.generations_through(0, 9), 2u);
  EXPECT_EQ(script.generations_through(2, 9), 1u);  // only the first churn
  EXPECT_EQ(script.generations_through(4, 9), 0u);  // never churned
}

TEST(ScenarioQueries, ShockScalesComposeMultiplicatively) {
  scenario::ScenarioScript script;
  script.shocks.push_back({{0, 4, 1, 0}, 1, 3, 0.5, 2.0});
  script.shocks.push_back({{0, 2, 1, 0}, 2, 4, 0.5, 3.0});
  EXPECT_EQ(script.bandwidth_scale(0, 0), 1.0);  // before both windows
  EXPECT_EQ(script.bandwidth_scale(0, 1), 0.5);
  EXPECT_EQ(script.bandwidth_scale(0, 2), 0.25);  // overlap composes
  EXPECT_EQ(script.bandwidth_scale(2, 2), 0.5);   // only the wide cohort
  EXPECT_EQ(script.bandwidth_scale(0, 3), 0.5);
  EXPECT_EQ(script.sd_scale(0, 2), 6.0);
  EXPECT_EQ(script.sd_scale(5, 2), 1.0);  // outside every cohort
}

TEST(ScenarioQueries, SessionCountsCurveFlashAndClamp) {
  scenario::ScenarioScript script;
  script.curves.push_back({{0, 8, 1, 0}, {1.0, 1.5, 0.0}});
  script.flash_crowds.push_back({{6, 8, 1, 0}, 1});

  EXPECT_EQ(script.sessions_on(0, 0, 6), 6u);
  EXPECT_EQ(script.sessions_on(0, 1, 6), 9u);   // round(6 * 1.5)
  EXPECT_EQ(script.sessions_on(0, 2, 6), 0u);   // multiplier 0: inactive day
  EXPECT_EQ(script.sessions_on(0, 3, 6), 6u);   // curve wraps (3 % 3 == 0)
  EXPECT_EQ(script.sessions_on(6, 0, 6), 0u);   // pre-arrival
  EXPECT_EQ(script.sessions_on(6, 1, 6), 9u);   // joins on the curve day

  // sessions_before is the running total — the warmup/session-stream cursor.
  EXPECT_EQ(script.sessions_before(0, 3, 6), 15u);
  EXPECT_EQ(script.sessions_before(6, 1, 6), 0u);  // absent day 0
  EXPECT_EQ(script.sessions_before(6, 3, 6), 9u);  // day 1 only (day 2 is 0)

  // The 16-bit session-stream slot bounds any single day.
  scenario::ScenarioScript huge;
  huge.curves.push_back({{0, 8, 1, 0}, {1e9}});
  EXPECT_EQ(huge.sessions_on(0, 0, 6), 65535u);
}

TEST(ScenarioQueries, FirstMatchingOverrideWins) {
  scenario::ScenarioScript script;
  scenario::CohortOverride first;
  first.cohort = {0, 4, 1, 0};
  first.population.sensitive_fraction = 0.9;
  first.population.threshold_fraction = 0.05;
  first.population.insensitive_fraction = 0.05;
  scenario::CohortOverride second;
  second.cohort = {0, 8, 1, 0};
  script.cohorts.push_back(first);
  script.cohorts.push_back(second);

  EXPECT_EQ(script.population_override(1), &script.cohorts[0].population);
  EXPECT_EQ(script.population_override(5), &script.cohorts[1].population);
  EXPECT_EQ(script.population_override(9), nullptr);
}

// ---------------------------------------------------------------------------
// Structural validation.
// ---------------------------------------------------------------------------

TEST(ScenarioValidate, AcceptsCanonicalScriptAndEmptyScript) {
  EXPECT_TRUE(scenario::ScenarioScript{}.validate(8, 4).ok());
  EXPECT_TRUE(scenario::canonical_script(8, 3).validate(8, 3).ok());
  EXPECT_TRUE(scenario::canonical_script(64, 14).validate(64, 14).ok());
}

TEST(ScenarioValidate, RejectsMalformedEvents) {
  const auto bad = [](const scenario::ScenarioScript& script) {
    return !script.validate(8, 4).ok();
  };

  {
    scenario::ScenarioScript s;  // zero stride
    s.shocks.push_back({{0, 8, 0, 0}, 0, 2, 0.5, 1.0});
    EXPECT_TRUE(bad(s));
  }
  {
    scenario::ScenarioScript s;  // phase outside the stride
    s.shocks.push_back({{0, 8, 2, 2}, 0, 2, 0.5, 1.0});
    EXPECT_TRUE(bad(s));
  }
  {
    scenario::ScenarioScript s;  // empty day window
    s.shocks.push_back({{0, 8, 1, 0}, 2, 2, 0.5, 1.0});
    EXPECT_TRUE(bad(s));
  }
  {
    scenario::ScenarioScript s;  // window past the horizon
    s.shocks.push_back({{0, 8, 1, 0}, 1, 5, 0.5, 1.0});
    EXPECT_TRUE(bad(s));
  }
  {
    scenario::ScenarioScript s;  // non-positive scale
    s.shocks.push_back({{0, 8, 1, 0}, 0, 2, 0.0, 1.0});
    EXPECT_TRUE(bad(s));
  }
  {
    scenario::ScenarioScript s;  // empty multiplier list
    s.curves.push_back({{0, 8, 1, 0}, {}});
    EXPECT_TRUE(bad(s));
  }
  {
    scenario::ScenarioScript s;  // negative multiplier
    s.curves.push_back({{0, 8, 1, 0}, {1.0, -0.5}});
    EXPECT_TRUE(bad(s));
  }
  {
    scenario::ScenarioScript s;  // arrival outside the run
    s.flash_crowds.push_back({{0, 8, 1, 0}, 4});
    EXPECT_TRUE(bad(s));
  }
  {
    scenario::ScenarioScript s;  // day-0 churn: the initial fleet IS gen 0
    s.churns.push_back({{0, 8, 1, 0}, 0});
    EXPECT_TRUE(bad(s));
  }
  {
    scenario::ScenarioScript s;  // churn at/past the horizon
    s.churns.push_back({{0, 8, 1, 0}, 4});
    EXPECT_TRUE(bad(s));
  }
  {
    scenario::ScenarioScript s;  // override config not normalizable
    scenario::CohortOverride o;
    o.cohort = {0, 8, 1, 0};
    o.population.sensitive_fraction = 0.0;
    o.population.threshold_fraction = 0.0;
    o.population.insensitive_fraction = 0.0;
    s.cohorts.push_back(o);
    EXPECT_TRUE(bad(s));
  }
  {
    scenario::ScenarioScript s;  // fleet too large for the generation shift
    s.churns.push_back({{0, 8, 1, 0}, 1});
    EXPECT_FALSE(s.validate(std::size_t{1} << scenario::kGenerationShift, 4).ok());
  }
}

// ---------------------------------------------------------------------------
// Scenario x checkpoint/resume splices. The script fires a flash crowd on
// day 1 and a churn on day 2; checkpoints land exactly on those boundaries,
// so the splice exercises the strict-before/through generation semantics.
// ---------------------------------------------------------------------------

scenario::ScenarioScript splice_script() {
  scenario::ScenarioScript script;
  script.shocks.push_back({{0, 4, 1, 0}, 1, 3, 0.5, 1.3});
  script.curves.push_back({{0, 8, 1, 0}, {1.0, 1.5, 0.5, 1.0}});
  script.flash_crowds.push_back({{6, 8, 1, 0}, 1});
  script.churns.push_back({{2, 4, 1, 0}, 2});
  scenario::CohortOverride mobile;
  mobile.cohort = {0, 8, 4, 1};
  mobile.population.sensitive_fraction = 0.50;
  mobile.population.threshold_fraction = 0.35;
  mobile.population.insensitive_fraction = 0.15;
  script.cohorts.push_back(mobile);
  return script;
}

// Small stall-prone scripted LingXi fleet (single-threaded: the kill test
// forks).
sim::FleetConfig scripted_fleet_config() {
  sim::FleetConfig cfg;
  cfg.users = 8;
  cfg.days = 4;
  cfg.sessions_per_user_day = 5;
  cfg.users_per_shard = 3;
  cfg.enable_lingxi = true;
  cfg.drift_user_tolerance = true;
  cfg.intervention_day = 1;
  cfg.network.median_bandwidth = 1100.0;
  cfg.network.sigma = 0.4;
  cfg.lingxi.space.optimize_stall = false;
  cfg.lingxi.space.optimize_switch = false;
  cfg.lingxi.space.optimize_beta = true;
  cfg.lingxi.obo_rounds = 2;
  cfg.lingxi.monte_carlo.samples = 6;
  cfg.lingxi.monte_carlo.sample_duration = 12.0;
  cfg.lingxi.monte_carlo.min_samples_before_prune = 3;
  cfg.scenario = splice_script();
  return cfg;
}

sim::FleetRunner::PredictorFactory predictor_factory() {
  return [] {
    Rng net_rng(4242);
    return predictor::HybridExitPredictor(
        std::make_shared<predictor::StallExitNet>(net_rng),
        std::make_shared<predictor::OverallStatsModel>());
  };
}

sim::FleetRunner make_runner(const sim::FleetConfig& cfg) {
  sim::FleetRunner runner(cfg, [] { return std::make_unique<abr::Hyb>(); });
  runner.set_predictor_factory(predictor_factory());
  return runner;
}

struct Reference {
  sim::FleetAccumulator acc;
  telemetry::FleetArchive archive;
};

Reference reference_run(const sim::FleetConfig& cfg, std::uint64_t seed) {
  sim::FleetRunner runner = make_runner(cfg);
  telemetry::ShardedCapture capture(telemetry::ShardedCapture::Config{4});
  runner.set_telemetry_sink(&capture);
  Reference ref;
  ref.acc = runner.run(seed);
  ref.archive = capture.finish();
  return ref;
}

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/lingxi_scenario_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

// Commit-hook kill plan (file-scope: SaveCommitHook is a plain function
// pointer): SIGKILL inside the `at_save`-th save at the given stage.
int g_kill_at_save = 0;
int g_kill_stage = -1;
int g_saves_seen = 0;

bool kill_hook(snapshot::SaveStage stage) {
  if (stage == snapshot::SaveStage::kStateFilesStaged) ++g_saves_seen;
  if (g_saves_seen == g_kill_at_save &&
      stage == static_cast<snapshot::SaveStage>(g_kill_stage)) {
    std::raise(SIGKILL);
  }
  return true;
}

TEST(ScenarioSplice, AutoCheckpointKillAtChurnDayResumesBitwise) {
  const sim::FleetConfig cfg = scripted_fleet_config();  // threads = 1: fork-safe
  constexpr std::uint64_t kSeed = 77;
  const Reference ref = reference_run(cfg, kSeed);
  const std::string root = fresh_dir("sigkill");

  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: checkpoint every day; die by SIGKILL inside the day-2 commit
    // right before the rename. The staging dir is complete, just unnamed.
    g_kill_at_save = 2;
    g_kill_stage = static_cast<int>(snapshot::SaveStage::kStagingDurable);
    g_saves_seen = 0;
    snapshot::set_save_commit_hook(&kill_hook);
    sim::FleetRunner runner = make_runner(cfg);
    telemetry::ShardedCapture capture(telemetry::ShardedCapture::Config{4});
    runner.set_telemetry_sink(&capture);
    snapshot::AutoCheckpointer ckpt(
        runner, kSeed, {root, /*every_k_days=*/1, /*retain=*/2, /*users_per_shard=*/4},
        &capture);
    ckpt.arm(runner);
    runner.run_days(kSeed, 0, cfg.days, nullptr, nullptr);
    _exit(7);  // only reached if the kill never fired
  }
  int wstatus = 0;
  ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(wstatus)) << "child exited instead of dying by signal";
  EXPECT_EQ(WTERMSIG(wstatus), SIGKILL);

  // Recovery adopts the complete day-2 staging; the resumed leg replays the
  // churn (scripted AT day 2) and the rest of the calendar bitwise.
  auto recovered = snapshot::find_latest_valid(root);
  ASSERT_TRUE(recovered.has_value()) << recovered.error().message;
  EXPECT_EQ(recovered->snapshot.state.next_day, 2u);
  ASSERT_TRUE(snapshot::check_compatible(recovered->snapshot, cfg, kSeed).ok());

  sim::FleetRunner runner(cfg, [] { return std::make_unique<abr::Hyb>(); });
  runner.set_predictor_factory(snapshot::resume_predictor_factory(
      predictor_factory(), recovered->snapshot.net_model));
  telemetry::ShardedCapture capture(telemetry::ShardedCapture::Config{4});
  ASSERT_TRUE(snapshot::restore_capture(capture, cfg, recovered->snapshot.seed,
                                        std::move(recovered->snapshot.capture))
                  .ok());
  runner.set_telemetry_sink(&capture);
  const sim::FleetAccumulator resumed = runner.run_days(
      kSeed, recovered->snapshot.state.next_day, cfg.days, &recovered->snapshot.state);

  EXPECT_EQ(resumed.checksum(), ref.acc.checksum());
  EXPECT_EQ(resumed.users, ref.acc.users);
  const telemetry::FleetArchive archive = capture.finish();
  EXPECT_EQ(archive.checksum(), ref.archive.checksum());
  EXPECT_TRUE(archive.shards == ref.archive.shards);
}

// ---------------------------------------------------------------------------
// Golden regression for the scenario analytics report: the canonical
// "CDN brownout + flash crowd + churn" script on a tiny A/B fleet, pinned
// to tests/data/scenario_golden.json. Any change to the scenario layer, the
// fleet substrate, the experiment driver or the DiD/bucket computation that
// moves the report's numbers fails loudly.
// ---------------------------------------------------------------------------

constexpr std::uint64_t kGoldenSeed = 555;

analytics::ExperimentConfig golden_config() {
  analytics::ExperimentConfig cfg;
  cfg.users = 8;
  cfg.days = 6;
  cfg.sessions_per_user_day = 6;
  cfg.intervention_day = 0;  // post-deploy view: LingXi live from day 0
  // Bursty mid-bandwidth world (same rationale as the Fig. 13 fixture):
  // buffers build between dips, so beta flips decisions and stalls fire the
  // trigger — the report pins LingXi's response to the events, not plumbing.
  cfg.network.median_bandwidth = 2800.0;
  cfg.network.sigma = 0.35;
  cfg.network.relative_sd = 0.45;
  cfg.lingxi.obo_rounds = 3;
  cfg.lingxi.monte_carlo.samples = 4;
  cfg.lingxi.monte_carlo.sample_duration = 10.0;
  cfg.lingxi.adoption_margin = 0.0;
  cfg.scenario = scenario::canonical_script(cfg.users, cfg.days);
  return cfg;
}

std::function<predictor::HybridExitPredictor()> golden_predictor_factory() {
  return [] {
    Rng net_rng(7777);
    return predictor::HybridExitPredictor(
        std::make_shared<predictor::StallExitNet>(net_rng),
        std::make_shared<predictor::OverallStatsModel>());
  };
}

std::string run_scenario_report(std::size_t threads, std::size_t predictor_batch) {
  analytics::ExperimentConfig cfg = golden_config();
  cfg.threads = threads;
  cfg.predictor_batch = predictor_batch;
  const analytics::PopulationExperiment experiment(
      cfg, [] { return std::make_unique<abr::Hyb>(); }, golden_predictor_factory());
  const analytics::ExperimentResult control = experiment.run(false, kGoldenSeed);
  const analytics::ExperimentResult treatment = experiment.run(true, kGoldenSeed);
  const analytics::ScenarioReport report = analytics::summarize_scenario(
      cfg.scenario, cfg.users, cfg.days, control.user_days, treatment.user_days);

  // Shape sanity (not part of the fixture comparison): one window per event
  // and one bucket per scripted cohort plus the unscripted rest.
  EXPECT_EQ(report.events.size(), 3u);
  EXPECT_EQ(report.cohorts.size(), 5u);
  return analytics::to_json(report);
}

std::string golden_path() {
  return std::string(LINGXI_TEST_DATA_DIR) + "/scenario_golden.json";
}

/// Every numeric token in the text, in order (string labels contribute
/// identically on both sides, so sequence comparison is sound).
std::vector<double> numbers_in(const std::string& text) {
  std::vector<double> out;
  const char* p = text.c_str();
  const char* end = p + text.size();
  while (p < end) {
    if ((*p >= '0' && *p <= '9') ||
        (*p == '-' && p + 1 < end && p[1] >= '0' && p[1] <= '9')) {
      char* next = nullptr;
      out.push_back(std::strtod(p, &next));
      p = next;
    } else {
      ++p;
    }
  }
  return out;
}

TEST(ScenarioGolden, MatchesCommittedGolden) {
  const std::string actual = run_scenario_report(/*threads=*/1, /*predictor_batch=*/1);

  if (std::getenv("LINGXI_REGEN_SCENARIO_GOLDEN") != nullptr) {
    std::ofstream out(golden_path(), std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path();
    out << actual;
    return;
  }

  std::ifstream in(golden_path());
  ASSERT_TRUE(in.good()) << "missing fixture " << golden_path()
                         << " (regenerate with LINGXI_REGEN_SCENARIO_GOLDEN=1)";
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string golden = buf.str();

  const std::vector<double> want = numbers_in(golden);
  const std::vector<double> got = numbers_in(actual);
  ASSERT_EQ(got.size(), want.size()) << "fixture shape changed:\n" << actual;
  for (std::size_t i = 0; i < want.size(); ++i) {
    // Numeric (not string) comparison with a tight relative tolerance:
    // simulations are deterministic, but FP contraction may differ a ulp or
    // two across compilers.
    const double tol = std::max(1e-9, 1e-6 * std::abs(want[i]));
    EXPECT_NEAR(got[i], want[i], tol) << "token " << i << "\n" << actual;
  }
}

TEST(ScenarioGolden, IndependentOfThreadsAndBatch) {
  const std::string scalar = run_scenario_report(/*threads=*/1, /*predictor_batch=*/1);
  const std::string batched = run_scenario_report(/*threads=*/2, /*predictor_batch=*/7);
  // Byte-identical JSON: the report cannot depend on throughput knobs.
  EXPECT_EQ(scalar, batched);
}

}  // namespace
}  // namespace lingxi
