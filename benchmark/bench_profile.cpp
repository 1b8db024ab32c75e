// bench_profile: the repository benchmark — a paper-shaped LingXi fleet
// ledger with per-layer costs.
//
// Four workloads drive the public API only (sim::FleetRunner,
// telemetry::ShardedCapture / Replay, snapshot::AutoCheckpointer /
// find_latest_valid, predictor::StallExitNet::predict_batch). README.md in
// this directory documents why each workload exists, every metric, and the
// noise model.
//
// Per workload, one invocation:
//   * runs one untimed warm-up round on an eighth of the fleet, and for
//     lowbw-lingxi-4t one 1-thread round as the checksum reference;
//   * runs timed rounds until --seconds is spent, with at least --rounds
//     rounds. The first three each start with a separately timed set-up,
//     which trains the exit predictor and builds the runner; later rounds
//     reuse it. A round simulates the whole fleet (plus, for ab-durable, its
//     archive write, replay and recovery). Throughput is best-of-rounds,
//     because co-tenant CPU noise on a shared host only ever adds time;
//     set-up time and memory are medians;
//   * with --trace 1, adds one traced round. It installs obs::Registry and
//     obs::Tracer and times the seams this file owns (ABR select, telemetry
//     sink, checkpoint hook, archive/replay/recover), then probes
//     StallExitNet::predict_batch at 1 and 64 rows. Per-layer metrics come
//     from that round.
//
// Correctness: every round must reproduce the first timed round's
// FleetAccumulator checksum (lowbw-lingxi-4t: the 1-thread round's), never
// overflow, and simulate every configured session; ab-durable must replay
// to the live checksum and recover the day-3 checkpoint; the traced round
// must match the untraced checksum. A violation fails the round and the
// exit code.
//
// Usage: bench_profile [--workload NAME|all] [--seed N]
//                      [--seconds S] [--rounds R] [--trace 0|1]
//                      [--json PATH] [--trace-out PATH] [--workdir DIR]
//                      [--smoke]
#include <malloc.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "abr/hyb.h"
#include "nn/tensor.h"
#include "obs/metrics.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "predictor/dataset.h"
#include "predictor/engagement_state.h"
#include "predictor/exit_net.h"
#include "predictor/hybrid.h"
#include "predictor/os_model.h"
#include "sim/fleet_runner.h"
#include "snapshot/checkpoint.h"
#include "telemetry/capture.h"
#include "telemetry/replay.h"

using namespace lingxi;
namespace fs = std::filesystem;

namespace {

constexpr std::uint64_t kDefaultSeed = 1;
/// Seed of the predictor's training log. The trained predictor is the
/// deployment's model, not a fleet input: pinning it keeps --seed to the
/// fleet, whose per-seed work varies by about 8%, where a re-trained net
/// moved pooled queries by up to 25% between seeds.
constexpr std::uint64_t kTrainingSeed = 808;
constexpr std::size_t kDefaultMinRounds = 3;
/// Timed set-ups per workload; later rounds reuse the last fleet.
constexpr std::size_t kSetUps = 3;
constexpr double kDefaultSeconds = 20.0;
constexpr std::size_t kProbeRows = 64;
constexpr std::size_t kFeatureLen = predictor::kChannels * predictor::kHistoryLen;

// ---------------------------------------------------------------- clocks --

double wall_now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

double cpu_seconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Wall and calling-thread CPU time of one call on the main thread.
struct Cost {
  double wall_s = 0.0;
  double cpu_s = 0.0;

  Cost& operator+=(const Cost& other) {
    wall_s += other.wall_s;
    cpu_s += other.cpu_s;
    return *this;
  }
};

template <class F>
Cost measure(F&& f) {
  const double wall0 = wall_now();
  const double cpu0 = cpu_seconds(CLOCK_THREAD_CPUTIME_ID);
  f();
  return {wall_now() - wall0, cpu_seconds(CLOCK_THREAD_CPUTIME_ID) - cpu0};
}

// ---------------------------------------------------------------- memory --

/// Starts a peak-RSS window: malloc_trim(0) hands freed heap back to the
/// kernel and writing 5 to /proc/self/clear_refs resets VmHWM to the
/// current RSS, so the next peak_rss_mb() is the peak since this call.
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

/// VmHWM of /proc/self/status in MB (0 when absent).
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0.0;
}

// ----------------------------------------------------------------- seeds --

/// SplitMix64 finalizer over (seed, stream): each world's fleet seed derives
/// from --seed through it.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// ------------------------------------------------------------- workloads --

enum class World : std::uint64_t { kLowBandwidth = 0, kAbTest = 1 };

struct Workload {
  const char* name = "";
  World world = World::kLowBandwidth;
  sim::FleetConfig config;
  /// ab-durable: capture sink, daily checkpoints, health timeline, then
  /// archive write + replay + recovery inside the timed round.
  bool durable = false;
  /// lowbw-lingxi-4t: every round must reproduce the 1-thread checksum.
  bool thread_reference = false;
};

/// Shared shape of both worlds: HYB tuned on beta only (the paper's
/// production integration), tolerance drift on, 12 sessions per user-day.
sim::FleetConfig world_config(World world) {
  sim::FleetConfig cfg;
  cfg.days = 4;
  cfg.sessions_per_user_day = 12;
  cfg.drift_user_tolerance = true;
  cfg.lingxi.space.optimize_stall = false;
  cfg.lingxi.space.optimize_switch = false;
  cfg.lingxi.space.optimize_beta = true;
  cfg.fixed_params = cfg.lingxi.default_params;
  if (world == World::kLowBandwidth) {
    cfg.network.median_bandwidth = 1500.0;
    cfg.network.sigma = 0.5;
    cfg.network.relative_sd = 0.35;
    cfg.lingxi.obo_rounds = 4;
    cfg.lingxi.monte_carlo.samples = 16;
    cfg.predictor_batch = 16;
    cfg.users_per_shard = 8;
  } else {  // the Fig. 12 A/B world
    cfg.network.median_bandwidth = 4000.0;
    cfg.network.sigma = 0.8;
    cfg.lingxi.obo_rounds = 5;
    cfg.lingxi.monte_carlo.samples = 8;
    cfg.lingxi.monte_carlo.sample_duration = 30.0;
  }
  return cfg;
}

std::vector<Workload> all_workloads(bool smoke) {
  Workload lowbw{"lowbw-lingxi", World::kLowBandwidth, world_config(World::kLowBandwidth)};
  lowbw.config.enable_lingxi = true;
  lowbw.config.users = smoke ? 24 : 768;

  Workload lowbw_4t = lowbw;
  lowbw_4t.name = "lowbw-lingxi-4t";
  lowbw_4t.config.threads =
      std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
  lowbw_4t.thread_reference = true;

  Workload ab{"ab-durable", World::kAbTest, world_config(World::kAbTest)};
  ab.config.enable_lingxi = true;
  ab.config.intervention_day = 2;
  ab.config.users = smoke ? 32 : 2048;
  ab.durable = true;

  Workload control{"control", World::kAbTest, world_config(World::kAbTest)};
  control.config.users = smoke ? 64 : 8192;
  return {lowbw, lowbw_4t, ab, control};
}

// ----------------------------------------------------- traced-round seams --

/// ABR select() calls and time of the traced round, live vs rollout.
struct SelectTally {
  std::atomic<std::uint64_t> live_calls{0};
  std::atomic<std::uint64_t> live_ns{0};
  std::atomic<std::uint64_t> rollout_calls{0};
  std::atomic<std::uint64_t> rollout_ns{0};
};

/// Pass-through ABR that times select(). clone() — how LingXi builds its
/// Monte Carlo rollout copies — yields rollout-tallied wrappers. params_ is
/// kept equal to the wrapped ABR's because AbrAlgorithm::params() is not
/// virtual. Counts are flushed to the shared tally once, at destruction.
class TimedAbr final : public abr::AbrAlgorithm {
 public:
  TimedAbr(std::unique_ptr<abr::AbrAlgorithm> inner, SelectTally& tally, bool rollout)
      : inner_(std::move(inner)), tally_(tally), rollout_(rollout) {
    params_ = inner_->params();
  }
  ~TimedAbr() override {
    (rollout_ ? tally_.rollout_calls : tally_.live_calls)
        .fetch_add(calls_, std::memory_order_relaxed);
    (rollout_ ? tally_.rollout_ns : tally_.live_ns).fetch_add(ns_, std::memory_order_relaxed);
  }
  TimedAbr(const TimedAbr&) = delete;
  TimedAbr& operator=(const TimedAbr&) = delete;

  std::string name() const override { return inner_->name(); }
  std::size_t select(const sim::AbrObservation& obs) override {
    const std::uint64_t begin = now_ns();
    const std::size_t level = inner_->select(obs);
    ns_ += now_ns() - begin;
    ++calls_;
    return level;
  }
  void reset() override { inner_->reset(); }
  void set_params(const abr::QoeParams& params) override {
    params_ = params;
    inner_->set_params(params);
  }
  std::unique_ptr<abr::AbrAlgorithm> clone() const override {
    return std::make_unique<TimedAbr>(inner_->clone(), tally_, /*rollout=*/true);
  }

 private:
  std::unique_ptr<abr::AbrAlgorithm> inner_;
  SelectTally& tally_;
  bool rollout_;
  std::uint64_t calls_ = 0;
  std::uint64_t ns_ = 0;
};

/// Records and time of the traced round's telemetry sink calls.
struct SinkTally {
  std::atomic<std::uint64_t> records{0};
  std::atomic<std::uint64_t> ns{0};
};

/// Forwards every call to the real capture and times it.
class TimedSink final : public telemetry::TelemetrySink {
 public:
  TimedSink(telemetry::TelemetrySink& inner, SinkTally& tally) : inner_(inner), tally_(tally) {}

  void begin_fleet(const sim::FleetConfig& config, std::uint64_t seed) override {
    timed(0, [&] { inner_.begin_fleet(config, seed); });
  }
  void record_session(const telemetry::SessionContext& ctx,
                      const sim::SessionResult& session) override {
    timed(1, [&] { inner_.record_session(ctx, session); });
  }
  void record_user(const telemetry::UserTelemetry& user) override {
    timed(1, [&] { inner_.record_user(user); });
  }

 private:
  template <class F>
  void timed(std::uint64_t records, F&& f) {
    const std::uint64_t begin = now_ns();
    f();
    tally_.ns.fetch_add(now_ns() - begin, std::memory_order_relaxed);
    tally_.records.fetch_add(records, std::memory_order_relaxed);
  }

  telemetry::TelemetrySink& inner_;
  SinkTally& tally_;
};

/// Everything the traced round installs or tallies.
struct Probes {
  obs::Registry registry;
  obs::Tracer tracer;
  SelectTally select;
  SinkTally sink;
};

// ---------------------------------------------------------------- set-up --

/// What set-up produces: the trained predictor and the runner. Held by
/// pointer, because the runner's factories capture its address.
struct Fleet {
  std::shared_ptr<predictor::StallExitNet> net;
  std::shared_ptr<predictor::OverallStatsModel> os_model;
  /// kProbeRows flattened stall-feature rows from the training log.
  std::vector<double> probe_rows;
  telemetry::ShardedCapture capture;
  std::unique_ptr<sim::FleetRunner> runner;
  /// Non-null during the traced round: the ABR factory wraps HYB in TimedAbr.
  SelectTally* select_tally = nullptr;
};

/// Train the exit predictor (predictor::generate_dataset / balance /
/// train_exit_net) and build the runner. Every workload trains the same
/// predictor, on the generator's stall-biased log (the paper trains on
/// stall-bearing production logs), so set-up is the same work everywhere;
/// the control fleet never queries it.
std::unique_ptr<Fleet> set_up(const Workload& w, bool smoke) {
  auto fleet = std::make_unique<Fleet>();
  Rng rng(kTrainingSeed);
  fleet->net = std::make_shared<predictor::StallExitNet>(rng);
  fleet->os_model = std::make_shared<predictor::OverallStatsModel>();

  predictor::DatasetGenConfig gen;
  gen.users = smoke ? 8 : 64;
  gen.sessions_per_user = smoke ? 6 : 16;
  gen.filter = predictor::DatasetFilter::kAll;
  for (const predictor::Sample& s : predictor::generate_dataset(gen, rng).samples) {
    fleet->os_model->observe(1, predictor::SwitchType::kNone, s.exited);
  }
  gen.filter = predictor::DatasetFilter::kStall;
  const predictor::Dataset stalls = predictor::generate_dataset(gen, rng);
  const predictor::Dataset balanced = predictor::balance(stalls, rng);
  predictor::TrainConfig train;
  train.epochs = smoke ? 2 : 8;
  if (!balanced.samples.empty()) predictor::train_exit_net(*fleet->net, balanced, train, rng);

  fleet->probe_rows.assign(kProbeRows * kFeatureLen, 0.0);
  for (std::size_t r = 0; r < kProbeRows && !stalls.samples.empty(); ++r) {
    const nn::Tensor& f = stalls.samples[r % stalls.samples.size()].features;
    std::copy(f.data(), f.data() + kFeatureLen,
              fleet->probe_rows.begin() + static_cast<std::ptrdiff_t>(r * kFeatureLen));
  }

  Fleet* f = fleet.get();
  fleet->runner = std::make_unique<sim::FleetRunner>(
      w.config, [f]() -> std::unique_ptr<abr::AbrAlgorithm> {
        auto hyb = std::make_unique<abr::Hyb>();
        if (f->select_tally == nullptr) return hyb;
        return std::make_unique<TimedAbr>(std::move(hyb), *f->select_tally, false);
      });
  if (w.config.enable_lingxi) {
    fleet->runner->set_predictor_factory(
        [f] { return predictor::HybridExitPredictor(f->net, f->os_model); });
  }
  return fleet;
}

// ----------------------------------------------------------------- round --

struct RoundResult {
  sim::FleetAccumulator acc;
  sim::FleetRunStats stats;
  double wall_s = 0.0;
  double cpu_s = 0.0;  ///< process CPU, all threads
  double peak_mem_mb = 0.0;  ///< process peak RSS during the round
  std::vector<std::string> errors;

  // ab-durable's plane; zero elsewhere. Costs are main-thread CPU and wall.
  std::size_t checkpoints = 0;
  std::uint64_t checkpoint_bytes = 0;  ///< traced round only
  Cost checkpoint;
  std::uint64_t archive_bytes = 0;
  Cost archive_write;
  Cost replay;
  Cost recover;
  std::uint64_t timeline_bytes = 0;
};

std::uint64_t tree_bytes(const fs::path& root) {
  std::uint64_t bytes = 0;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(root, ec), end; !ec && it != end; it.increment(ec)) {
    if (it->is_regular_file(ec)) bytes += it->file_size(ec);
  }
  return bytes;
}

/// ab-durable's round body: the fleet runs with a capture sink, a daily
/// checkpoint hook and the health timeline, then the archive is written,
/// replayed and the newest checkpoint recovered — all inside the timing.
void run_durable(const Workload& w, Fleet& fleet, std::uint64_t seed, const fs::path& dir,
                 Probes* probes, RoundResult& r) {
  sim::FleetRunner& runner = *fleet.runner;
  fs::create_directories(dir);
  // The timeline samples the active registry; the traced round installed
  // its own.
  std::optional<obs::Registry> registry;
  if (probes == nullptr) {
    registry.emplace();
    obs::Registry::install(&*registry);
  }
  const fs::path timeline_path = dir / "timeline.lxtl";
  obs::TimelineWriter timeline(timeline_path.string());
  obs::TimelineWriter::install(&timeline);

  snapshot::CheckpointPolicy policy;
  policy.root = (dir / "checkpoints").string();
  policy.every_k_days = 1;
  policy.retain = 1;
  snapshot::AutoCheckpointer checkpointer(runner, seed, policy, &fleet.capture);
  runner.set_checkpoint_hook(
      [&](const sim::FleetDayState& state) {
        r.checkpoint += measure([&] { checkpointer.on_boundary(state); });
        if (probes != nullptr && !checkpointer.committed_dirs().empty()) {
          r.checkpoint_bytes += tree_bytes(checkpointer.committed_dirs().back());
        }
      },
      1);
  std::optional<TimedSink> timed_sink;
  if (probes != nullptr) timed_sink.emplace(fleet.capture, probes->sink);
  runner.set_telemetry_sink(timed_sink ? static_cast<telemetry::TelemetrySink*>(&*timed_sink)
                                       : &fleet.capture);

  r.acc = runner.run(seed, &r.stats);

  runner.set_telemetry_sink(nullptr);
  runner.set_checkpoint_hook(nullptr, 0);
  obs::TimelineWriter::install(nullptr);
  if (registry) obs::Registry::install(nullptr);
  if (const Status s = timeline.close(); !s) {
    r.errors.push_back("timeline: " + s.error().message);
  }
  if (!checkpointer.status()) {
    r.errors.push_back("checkpoint: " + checkpointer.status().error().message);
  }
  r.checkpoints = checkpointer.checkpoints_committed();

  const telemetry::FleetArchive archive = fleet.capture.finish();
  r.archive_bytes = archive.total_bytes();
  const std::string archive_dir = (dir / "archive").string();
  r.archive_write = measure([&] {
    if (const Status s = archive.write(archive_dir); !s) {
      r.errors.push_back("archive write: " + s.error().message);
    }
  });
  r.replay = measure([&] {
    const auto replayed = telemetry::Replay::run(archive_dir);
    if (!replayed) {
      r.errors.push_back("replay: " + replayed.error().message);
    } else if (replayed->fleet.checksum() != r.acc.checksum()) {
      r.errors.push_back("replayed checksum differs from the live run");
    }
  });
  r.recover = measure([&] {
    const auto recovered = snapshot::find_latest_valid(policy.root);
    if (!recovered) {
      r.errors.push_back("recovery: " + recovered.error().message);
    } else if (recovered->snapshot.state.next_day + 1 != w.config.days) {
      r.errors.push_back("recovered checkpoint next_day " +
                         std::to_string(recovered->snapshot.state.next_day) + ", want " +
                         std::to_string(w.config.days - 1));
    }
  });
  std::error_code ec;
  r.timeline_bytes = fs::file_size(timeline_path, ec);
}

RoundResult run_round(const Workload& w, Fleet& fleet, std::uint64_t seed, const fs::path& dir,
                      Probes* probes) {
  RoundResult r;
  fleet.select_tally = probes != nullptr ? &probes->select : nullptr;
  if (probes != nullptr) {
    obs::Registry::install(&probes->registry);
    obs::Tracer::install(&probes->tracer);
  }
  reset_peak_rss();
  const double wall0 = wall_now();
  const double cpu0 = cpu_seconds(CLOCK_PROCESS_CPUTIME_ID);
  if (w.durable) {
    run_durable(w, fleet, seed, dir, probes, r);
  } else {
    r.acc = fleet.runner->run(seed, &r.stats);
  }
  r.cpu_s = cpu_seconds(CLOCK_PROCESS_CPUTIME_ID) - cpu0;
  r.wall_s = wall_now() - wall0;
  r.peak_mem_mb = peak_rss_mb();
  if (probes != nullptr) {
    obs::Tracer::install(nullptr);
    obs::Registry::install(nullptr);
  }
  fleet.select_tally = nullptr;

  const sim::FleetConfig& cfg = w.config;
  if (r.acc.has_overflow()) r.errors.push_back("accumulator overflowed");
  if (r.acc.sessions != cfg.users * cfg.days * cfg.sessions_per_user_day) {
    r.errors.push_back("simulated " + std::to_string(r.acc.sessions) + " sessions, want " +
                       std::to_string(cfg.users * cfg.days * cfg.sessions_per_user_day));
  }
  std::error_code ec;
  fs::remove_all(dir, ec);
  return r;
}

// --------------------------------------------------------------- metrics --

struct Metric {
  std::string name;
  double value = 0.0;
  const char* unit = "";
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Median µs per row of StallExitNet::predict_batch at `batch` rows over
/// nine timed repetitions, each forwarding ~512 rows.
double net_us_per_row(const Fleet& fleet, std::size_t batch) {
  const nn::ConstBatchView rows(fleet.probe_rows.data(), batch, kFeatureLen);
  std::vector<double> out(batch);
  predictor::StallExitNet::BatchWorkspace ws;
  const std::size_t reps = std::max<std::size_t>(1, 512 / batch);
  std::vector<double> samples;
  for (int s = 0; s < 9; ++s) {
    const std::uint64_t begin = now_ns();
    for (std::size_t i = 0; i < reps; ++i) fleet.net->predict_batch(rows, out.data(), &ws);
    samples.push_back(1e-3 * static_cast<double>(now_ns() - begin) /
                      static_cast<double>(reps * batch));
  }
  return median(std::move(samples));
}

struct Histogram {
  double count = 0.0;
  double sum = 0.0;  ///< histogram sum: µs for the *_us timers
};

Histogram histogram(const obs::RegistrySnapshot& snap, const char* name) {
  const obs::MetricSnapshot* m = snap.find(name);
  if (m == nullptr) return {};
  return {static_cast<double>(m->count), m->value};
}

struct WorkloadResult {
  const Workload* workload = nullptr;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> errors;
  std::uint32_t checksum = 0;
  std::vector<double> setup_s, cpu_s, wall_s, peak_mem_mb;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
};

/// Per-layer metrics of the traced round. CPU shares are self times over
/// the round's process CPU; nested timers are subtracted (sim.live =
/// session step minus live ABR select) and the remainder is reported as
/// sim.fleet.unattributed_share.
std::vector<Metric> per_layer_metrics(const WorkloadResult& res, const RoundResult& traced,
                                      const Probes& probes, const Fleet& fleet,
                                      double rate_1t) {
  const sim::FleetConfig& cfg = res.workload->config;
  const sim::FleetAccumulator& acc = traced.acc;
  const obs::RegistrySnapshot snap = probes.registry.snapshot();
  const Histogram step = histogram(snap, "sim.session.step_us");
  const Histogram flush = histogram(snap, "predictor.pool.flush_us");
  const Histogram refit = histogram(snap, "bayesopt.gp.refit_us");
  const Histogram acquisition = histogram(snap, "bayesopt.obo.acquisition_us");
  const Histogram parked = histogram(snap, "sim.wave.parked_tasks");
  const double cpu = traced.cpu_s;

  const double live_calls = static_cast<double>(probes.select.live_calls.load());
  const double rollout_calls = static_cast<double>(probes.select.rollout_calls.load());
  const double select_s =
      1e-9 * static_cast<double>(probes.select.live_ns.load() + probes.select.rollout_ns.load());
  const double live_s = 1e-6 * step.sum - 1e-9 * static_cast<double>(probes.select.live_ns.load());
  const double records = static_cast<double>(probes.sink.records.load());
  const double sink_s = 1e-9 * static_cast<double>(probes.sink.ns.load());
  const double queries = static_cast<double>(traced.stats.pool_queries);
  const double flushes = static_cast<double>(traced.stats.pool_flushes);
  const double archive_mb = static_cast<double>(traced.archive_bytes) / 1e6;

  const double threads = static_cast<double>(std::max<std::size_t>(cfg.threads, 1));
  const double best_cpu = *std::min_element(res.cpu_s.begin(), res.cpu_s.end());
  const std::size_t fastest = static_cast<std::size_t>(
      std::min_element(res.wall_s.begin(), res.wall_s.end()) - res.wall_s.begin());
  const double rate = static_cast<double>(acc.sessions) / res.wall_s[fastest];
  const double idle = 1.0 - res.cpu_s[fastest] / (res.wall_s[fastest] * threads);

  std::vector<Metric> shares = {
      {"predictor.pool.cpu_share", ratio(1e-6 * flush.sum, cpu), "fraction"},
      {"abr.select.cpu_share", ratio(select_s, cpu), "fraction"},
      {"bayesopt.cpu_share", ratio(1e-6 * (refit.sum + acquisition.sum), cpu), "fraction"},
      {"sim.live.cpu_share", ratio(live_s, cpu), "fraction"},
      {"telemetry.capture.cpu_share", ratio(sink_s, cpu), "fraction"},
      {"telemetry.archive.cpu_share",
       ratio(traced.archive_write.cpu_s + traced.replay.cpu_s, cpu), "fraction"},
      {"snapshot.checkpoint.cpu_share", ratio(traced.checkpoint.cpu_s, cpu), "fraction"},
      {"snapshot.recover.cpu_share", ratio(traced.recover.cpu_s, cpu), "fraction"},
  };
  double attributed = 0.0;
  for (const Metric& m : shares) attributed += m.value;

  std::vector<Metric> out = {
      {"predictor.pool.queries", queries, "count"},
      {"predictor.pool.flushes", flushes, "count"},
      {"predictor.pool.rows_per_flush", ratio(queries, flushes), "rows"},
      {"predictor.pool.us_per_row", ratio(flush.sum, queries), "us"},
      {"predictor.net.us_per_row_1", net_us_per_row(fleet, 1), "us"},
      {"predictor.net.us_per_row_64", net_us_per_row(fleet, kProbeRows), "us"},
      {"abr.select.rollout_calls", rollout_calls, "count"},
      {"abr.select.ns_per_call", ratio(1e9 * select_s, live_calls + rollout_calls), "ns"},
      {"core.optimizations", static_cast<double>(acc.lingxi_optimizations), "count"},
      {"core.preplay_pruned", static_cast<double>(acc.lingxi_pruned_preplay), "count"},
      {"core.mc_evaluations", static_cast<double>(acc.lingxi_mc_evaluations), "count"},
      {"core.mc_rollouts_pruned", static_cast<double>(acc.lingxi_mc_rollouts_pruned), "count"},
      {"core.rounds_pruned_share",
       ratio(static_cast<double>(acc.lingxi_mc_rollouts_pruned),
             static_cast<double>(acc.lingxi_mc_evaluations)),
       "fraction"},
      {"core.adjusted_user_days", static_cast<double>(acc.adjusted_user_days), "count"},
      {"bayesopt.gp.observes", refit.count, "count"},
      {"bayesopt.gp.us_per_observe", ratio(refit.sum, refit.count), "us"},
      {"bayesopt.acquisition.sweeps", acquisition.count, "count"},
      {"bayesopt.acquisition.us_per_sweep", ratio(acquisition.sum, acquisition.count), "us"},
      {"sim.live.sessions", static_cast<double>(acc.sessions), "count"},
      {"sim.live.segments", live_calls, "count"},
      {"sim.live.us_per_session", ratio(1e6 * live_s, static_cast<double>(acc.sessions)), "us"},
      {"sim.fleet.stall_s_per_10k_s", acc.stall_per_10k(), "s/10k-s"},
      {"sim.wave.count", static_cast<double>(probes.registry.counter("sim.wave.count")),
       "count"},
      {"sim.wave.parked_tasks_mean", ratio(parked.sum, parked.count), "tasks"},
      {"sim.fleet.worker_idle_share", idle, "fraction"},
      {"sim.fleet.parallel_efficiency", ratio(rate, threads * rate_1t), "fraction"},
      {"telemetry.capture.records", records, "count"},
      {"telemetry.capture.ns_per_record", ratio(1e9 * sink_s, records), "ns"},
      {"telemetry.archive.bytes", static_cast<double>(traced.archive_bytes), "bytes"},
      {"telemetry.archive.write_mb_per_s", ratio(archive_mb, traced.archive_write.wall_s), "MB/s"},
      {"telemetry.replay.mb_per_s", ratio(archive_mb, traced.replay.wall_s), "MB/s"},
      {"snapshot.checkpoints", static_cast<double>(traced.checkpoints), "count"},
      {"snapshot.checkpoint.bytes", static_cast<double>(traced.checkpoint_bytes), "bytes"},
      {"snapshot.checkpoint.ms_per_commit",
       ratio(1e3 * traced.checkpoint.wall_s, static_cast<double>(traced.checkpoints)), "ms"},
      {"snapshot.recover.ms", 1e3 * traced.recover.wall_s, "ms"},
      {"obs.timeline.bytes", static_cast<double>(traced.timeline_bytes), "bytes"},
      {"obs.tracing_overhead_pct", 100.0 * (ratio(cpu, best_cpu) - 1.0), "%"},
      {"sim.fleet.unattributed_share", 1.0 - attributed, "fraction"},
  };
  out.insert(out.end(), shares.begin(), shares.end());
  return out;
}

// --------------------------------------------------------------- profile --

struct Options {
  std::string workload = "all";
  std::uint64_t seed = kDefaultSeed;
  double seconds = kDefaultSeconds;
  std::size_t min_rounds = kDefaultMinRounds;
  bool trace = false;
  bool smoke = false;
  std::string json_path;
  std::string trace_out;
  fs::path workdir = ".";
};

/// Count a round, and fail it on any error or on a checksum other than
/// `expected`.
void tally_round(WorkloadResult& res, const RoundResult& r, std::uint32_t expected,
                 const char* what) {
  ++res.attempted;
  std::vector<std::string> errors = r.errors;
  if (r.acc.checksum() != expected) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "checksum 0x%08x, want 0x%08x", r.acc.checksum(), expected);
    errors.emplace_back(buf);
  }
  if (errors.empty()) return;
  ++res.failed;
  for (const std::string& e : errors) res.errors.push_back(std::string(what) + ": " + e);
}

WorkloadResult profile(const Workload& w, const Options& opt, const fs::path& dir) {
  WorkloadResult res;
  res.workload = &w;
  const std::uint64_t fleet_seed = derive_seed(opt.seed, static_cast<std::uint64_t>(w.world));
  std::fprintf(stderr, "[%s] %zu users x %zu days, %zu thread(s), fleet seed %llu\n", w.name,
               w.config.users, w.config.days, std::max<std::size_t>(w.config.threads, 1),
               static_cast<unsigned long long>(fleet_seed));

  // Untimed warm-up on an eighth of the fleet keeps first-touch costs (code,
  // page faults, allocator growth) out of the timed rounds.
  Workload warm_up = w;
  warm_up.config.users = std::max<std::size_t>(w.config.users / 8, 1);
  const RoundResult warm = run_round(warm_up, *set_up(warm_up, opt.smoke), fleet_seed, dir,
                                     nullptr);
  tally_round(res, warm, warm.acc.checksum(), "warm-up round");

  // lowbw-lingxi-4t: a 1-thread round of the same fleet fixes the checksum
  // every 4-thread round must reproduce (the thread-invariance contract)
  // and the base of sim.fleet.parallel_efficiency. Elsewhere the first
  // timed round fixes the checksum.
  std::optional<std::uint32_t> expected;
  double rate_1t = 0.0;
  if (w.thread_reference) {
    Workload serial = w;
    serial.config.threads = 1;
    const RoundResult r = run_round(serial, *set_up(serial, opt.smoke), fleet_seed, dir, nullptr);
    expected = r.acc.checksum();
    tally_round(res, r, *expected, "1-thread round");
    rate_1t = ratio(static_cast<double>(r.acc.sessions), r.wall_s);
  }

  // The first kSetUps rounds each set up afresh (setup_s is their median);
  // later rounds reuse the last fleet. Rounds continue while the next one
  // (estimated by the last) still ends within --seconds.
  sim::FleetAccumulator acc;
  std::unique_ptr<Fleet> fleet;
  const double start = wall_now();
  double last = 0.0;
  for (std::size_t round = 0;
       round < opt.min_rounds || wall_now() - start + last <= opt.seconds; ++round) {
    const double round_start = wall_now();
    if (round < kSetUps) {
      fleet = set_up(w, opt.smoke);
      res.setup_s.push_back(wall_now() - round_start);
    }
    const RoundResult r = run_round(w, *fleet, fleet_seed, dir, nullptr);
    if (!expected) expected = r.acc.checksum();
    tally_round(res, r, *expected, ("round " + std::to_string(round)).c_str());
    acc = r.acc;
    res.cpu_s.push_back(r.cpu_s);
    res.wall_s.push_back(r.wall_s);
    res.peak_mem_mb.push_back(r.peak_mem_mb);
    last = wall_now() - round_start;
    std::fprintf(stderr, "[%s] round %zu: %.3f CPU-s, %.3f s wall, %.1f MB, checksum 0x%08x\n",
                 w.name, round, r.cpu_s, r.wall_s, r.peak_mem_mb, r.acc.checksum());
  }
  res.checksum = *expected;

  const double sessions = static_cast<double>(acc.sessions);
  const double best_wall = *std::min_element(res.wall_s.begin(), res.wall_s.end());
  res.end_to_end = {
      {"sessions_per_cpu_s",
       ratio(sessions, *std::min_element(res.cpu_s.begin(), res.cpu_s.end())),
       "sessions/CPU-s"},
      {"sessions_per_s", ratio(sessions, best_wall), "sessions/s"},
      {"setup_s", median(res.setup_s), "s"},
      {"peak_mem_mb", median(res.peak_mem_mb), "MB"},
      {"watch_s_per_session", ratio(acc.total_watch_time(), sessions), "s"},
      {"mean_bitrate_kbps", acc.mean_bitrate(), "kbps"},
      {"exit_rate", acc.exit_rate(), "fraction"},
  };
  if (!opt.trace) return res;

  // A 1-thread workload is its own parallel-efficiency base.
  if (!w.thread_reference) rate_1t = ratio(sessions, best_wall);
  const auto probes = std::make_unique<Probes>();
  const RoundResult traced = run_round(w, *fleet, fleet_seed, dir, probes.get());
  tally_round(res, traced, *expected, "traced round");
  res.per_layer = per_layer_metrics(res, traced, *probes, *fleet, rate_1t);
  if (!opt.trace_out.empty()) {
    fs::path path(opt.trace_out);
    path.replace_filename(path.stem().string() + "." + w.name + path.extension().string());
    if (!probes->tracer.write_json_file(path.string())) {
      res.errors.push_back("cannot write " + path.string());
      ++res.failed;
    }
  }
  return res;
}

// ------------------------------------------------------------------ JSON --

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_array(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    out += (i == 0 ? "" : ", ") + json_number(values[i]);
  }
  return out + "]";
}

std::string json_metrics(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i == 0 ? "\n        " : ",\n        ") + json_string(metrics[i].name) +
           ": {\"value\": " + json_number(metrics[i].value) +
           ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  return out + "}";
}

std::string to_json(const Options& opt, const std::vector<WorkloadResult>& results) {
  std::ostringstream os;
  os << "{\n  \"schema\": \"lingxi.bench_profile/v1\",\n  \"seed\": " << opt.seed
     << ",\n  \"trace\": " << (opt.trace ? "true" : "false")
     << ",\n  \"smoke\": " << (opt.smoke ? "true" : "false")
     << ",\n  \"seconds\": " << json_number(opt.seconds) << ",\n  \"min_rounds\": "
     << opt.min_rounds << ",\n  \"workloads\": [";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const WorkloadResult& r = results[i];
    const sim::FleetConfig& cfg = r.workload->config;
    char checksum[16];
    std::snprintf(checksum, sizeof(checksum), "0x%08x", r.checksum);
    std::string errors = "[";
    for (std::size_t e = 0; e < r.errors.size(); ++e) {
      errors += (e == 0 ? "" : ", ") + json_string(r.errors[e]);
    }
    errors += "]";
    os << (i == 0 ? "\n" : ",\n") << "    {\"name\": " << json_string(r.workload->name)
       << ", \"users\": " << cfg.users << ", \"days\": " << cfg.days
       << ", \"threads\": " << std::max<std::size_t>(cfg.threads, 1)
       << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
       << ", \"checksum\": \"" << checksum << "\",\n     \"errors\": " << errors
       << ",\n     \"rounds\": {\"setup_s\": " << json_array(r.setup_s)
       << ", \"cpu_s\": " << json_array(r.cpu_s) << ", \"wall_s\": " << json_array(r.wall_s)
       << ", \"peak_mem_mb\": " << json_array(r.peak_mem_mb)
       << "},\n     \"end_to_end\": " << json_metrics(r.end_to_end)
       << ",\n     \"per_layer\": " << json_metrics(r.per_layer) << "}";
  }
  os << "\n  ]\n}\n";
  return os.str();
}

// ------------------------------------------------------------------ main --

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--workload NAME|all] [--seed N] [--seconds S] "
               "[--rounds R] [--trace 0|1] [--json PATH] [--trace-out PATH] "
               "[--workdir DIR] [--smoke]\n",
               argv0);
  return 2;
}

bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      opt.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value, &end, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value, &end);
    } else if (arg == "--rounds") {
      opt.min_rounds = std::strtoull(value, &end, 10);
    } else if (arg == "--trace") {
      opt.trace = std::strtoull(value, &end, 10) != 0;
    } else if (arg == "--json") {
      opt.json_path = value;
    } else if (arg == "--trace-out") {
      opt.trace_out = value;
    } else if (arg == "--workdir") {
      opt.workdir = value;
    } else {
      return false;
    }
    if (end != nullptr && (*end != '\0' || end == value)) return false;
  }
  return opt.min_rounds >= 1 && opt.seconds >= 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, opt)) return usage(argv[0]);
  if (opt.smoke) {
    // CI-sized: tiny fleets, one timed round plus the traced round each.
    opt.trace = true;
    opt.min_rounds = 1;
    opt.seconds = 0.0;
  }

  const std::vector<Workload> catalog = all_workloads(opt.smoke);
  std::vector<const Workload*> selected;
  for (const Workload& w : catalog) {
    if (opt.workload == "all" || opt.workload == w.name) selected.push_back(&w);
  }
  if (selected.empty()) {
    std::fprintf(stderr, "unknown workload %s\n", opt.workload.c_str());
    return usage(argv[0]);
  }

  const fs::path dir = opt.workdir / ("bench_profile.work." + std::to_string(getpid()));
  std::vector<WorkloadResult> results;
  for (const Workload* w : selected) results.push_back(profile(*w, opt, dir));
  std::error_code ec;
  fs::remove_all(dir, ec);

  const std::string json = to_json(opt, results);
  if (opt.json_path.empty()) {
    std::fputs(json.c_str(), stdout);
  } else if (!(std::ofstream(opt.json_path) << json)) {
    std::fprintf(stderr, "cannot write %s\n", opt.json_path.c_str());
    return 1;
  }
  bool ok = true;
  for (const WorkloadResult& r : results) {
    for (const std::string& e : r.errors) {
      std::fprintf(stderr, "[%s] FAILED %s\n", r.workload->name, e.c_str());
    }
    ok = ok && r.failed == 0;
  }
  return ok ? 0 : 1;
}
