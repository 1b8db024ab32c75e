// Fleet observability: thread-sharded metrics registry.
//
// A Registry holds named counters, gauges and fixed-bucket histograms. Each
// recording thread accumulates into its own shard (created on first touch,
// single writer, a per-shard mutex taken only for the brief cell update so a
// snapshot can read concurrently without torn values); snapshot() merges the
// shards into one deterministic view — metrics sorted by name, counters and
// histogram buckets summed, gauges resolved by an order-independent rule —
// so the merged snapshot of a deterministic workload is identical at any
// thread count (tests/test_obs.cpp pins this).
//
// The registry is a runtime-nullable process-wide sink: instrumented code
// calls Registry::active() (one atomic load + branch) and does nothing when
// no registry is installed — observability off costs ~one branch per site
// and never allocates. Observability output feeds NO simulation state and is
// kept out of every checksum: enabling it cannot change a result bit (the
// obs-on/off identity grid in tests/test_properties.cpp).
//
// Naming convention: `layer.component.metric`, e.g. `predictor.pool.queries`
// or `snapshot.save.total_us` (histogram of microseconds). The stable JSON
// schema is documented at write_json().
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace lingxi::obs {

/// Fixed ascending histogram bucket upper bounds. Bucket i counts values
/// v <= bounds[i]; one implicit overflow bucket (index bounds.size()) counts
/// everything greater than the last bound. Specs are shared by pointer —
/// pass a static instance (latency_us() / rows()) or keep the spec alive for
/// the registry's lifetime.
class HistogramSpec {
 public:
  explicit HistogramSpec(std::vector<double> bounds);

  /// Canonical log-spaced microsecond latency buckets (1us .. ~67s).
  static const HistogramSpec& latency_us();
  /// Canonical power-of-two row/occupancy buckets (1 .. 4096).
  static const HistogramSpec& rows();

  const std::vector<double>& bounds() const noexcept { return bounds_; }
  /// Bucket count including the overflow bucket.
  std::size_t buckets() const noexcept { return bounds_.size() + 1; }
  /// Index of the bucket counting `v` (first bound >= v; overflow past the
  /// last bound).
  std::size_t bucket_for(double v) const noexcept;

 private:
  std::vector<double> bounds_;
};

enum class MetricKind { kCounter, kGauge, kHistogram };

/// One merged metric in a registry snapshot.
struct MetricSnapshot {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  /// Counter value, or histogram observation count.
  std::uint64_t count = 0;
  /// Gauge value, or histogram sum of observations.
  double value = 0.0;
  double min = 0.0;  ///< histogram only
  double max = 0.0;  ///< histogram only
  std::vector<double> bounds;          ///< histogram bucket upper bounds
  std::vector<std::uint64_t> buckets;  ///< bounds.size() + 1 counts

  /// Histogram quantile estimate (q in [0,1]) by linear interpolation inside
  /// the bucket holding rank q*count. Bucket 0's lower edge is the observed
  /// min and the overflow bucket's upper edge is the observed max, and the
  /// result is clamped to [min, max] — so single-bucket and overflow-heavy
  /// histograms still return values inside the observed range. Returns 0 for
  /// empty histograms and non-histogram metrics.
  double quantile(double q) const noexcept;

  bool operator==(const MetricSnapshot&) const = default;
};

/// Deterministic point-in-time view of a registry: metrics sorted by name.
struct RegistrySnapshot {
  std::vector<MetricSnapshot> metrics;

  /// Metric by exact name; nullptr when absent.
  const MetricSnapshot* find(std::string_view name) const noexcept;
  /// Stable JSON schema `lingxi.obs.metrics/v1`:
  ///   {"schema": "lingxi.obs.metrics/v1",
  ///    "metrics": [
  ///      {"name": ..., "kind": "counter", "value": <u64>},
  ///      {"name": ..., "kind": "gauge", "value": <double>},
  ///      {"name": ..., "kind": "histogram", "count": <u64>, "sum": <double>,
  ///       "min": <double>, "max": <double>,
  ///       "p50": <double>, "p95": <double>, "p99": <double>,
  ///       "bounds": [<double>...], "buckets": [<u64>...]}]}
  /// Metrics appear in sorted-name order; doubles print with %.17g so the
  /// serialization round-trips bit-exactly. p50/p95/p99 are the
  /// MetricSnapshot::quantile bucket-interpolated estimates.
  void write_json(std::ostream& os) const;

  bool operator==(const RegistrySnapshot&) const = default;
};

class Registry {
 public:
  Registry();
  ~Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// The process-wide active registry, or nullptr when observability is off.
  /// The one branch every instrumentation site pays.
  static Registry* active() noexcept;
  /// Install `r` as the active registry (nullptr disables). Install/uninstall
  /// while no instrumented code is running; a registry must be uninstalled
  /// before it is destroyed.
  static void install(Registry* r) noexcept;

  /// Add to a named counter (created on first touch in this thread's shard).
  void add(std::string_view name, std::uint64_t delta = 1);
  /// Set a named gauge. Cross-shard merge: the shard with the most updates
  /// wins, ties resolved toward the larger value — order-independent, so a
  /// gauge set deterministically merges deterministically.
  void set(std::string_view name, double value);
  /// Record one histogram observation. All observers of one name must pass
  /// the same spec.
  void observe(std::string_view name, const HistogramSpec& spec, double value);

  /// Merged counter value (0 when absent) — cheap read-back for samplers,
  /// derived gauges and tests.
  std::uint64_t counter(std::string_view name) const;

  /// Deterministic merged view (sorted names). Safe to call while other
  /// threads record.
  RegistrySnapshot snapshot() const;
  /// snapshot() serialized via RegistrySnapshot::write_json.
  void write_json(std::ostream& os) const;
  /// write_json to a file atomically (common/bytes.h write_file: temp file,
  /// fsync, rename), so a crash never leaves a torn dump; false on I/O
  /// failure.
  bool write_json_file(const std::string& path) const;

 private:
  struct Cell;
  struct Shard;

  Shard& local_shard();

  const std::uint64_t id_;  ///< process-unique, guards the thread-local cache
  mutable std::mutex shards_mu_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace lingxi::obs
