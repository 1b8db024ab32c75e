#include "obs/metrics.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <limits>
#include <ostream>
#include <sstream>
#include <unordered_map>

#include "common/bytes.h"

namespace lingxi::obs {
namespace {

std::atomic<Registry*> g_active{nullptr};
std::atomic<std::uint64_t> g_next_registry_id{1};

/// Heterogeneous lookup so the hot path probes the map with a string_view
/// and only materializes a std::string key on first touch of a name.
struct StringHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
};

void write_double(std::ostream& os, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  os << buf;
}

void write_string(std::ostream& os, std::string_view s) {
  os << '"';
  for (const char c : s) {
    // Metric names are dotted identifiers; escape defensively anyway.
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
  os << '"';
}

}  // namespace

HistogramSpec::HistogramSpec(std::vector<double> bounds)
    : bounds_(std::move(bounds)) {}

std::size_t HistogramSpec::bucket_for(double v) const noexcept {
  // First bound >= v; values past the last bound land in the overflow
  // bucket at index bounds_.size().
  return static_cast<std::size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), v) - bounds_.begin());
}

const HistogramSpec& HistogramSpec::latency_us() {
  static const HistogramSpec spec{[] {
    std::vector<double> b;
    for (double v = 1.0; v <= 67'108'864.0; v *= 4.0) b.push_back(v);
    return b;
  }()};  // 1us, 4us, ..., ~67s: 14 bounds + overflow
  return spec;
}

const HistogramSpec& HistogramSpec::rows() {
  static const HistogramSpec spec{[] {
    std::vector<double> b;
    for (double v = 1.0; v <= 4096.0; v *= 2.0) b.push_back(v);
    return b;
  }()};
  return spec;
}

double MetricSnapshot::quantile(double q) const noexcept {
  if (kind != MetricKind::kHistogram || count == 0 || buckets.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(count);
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    const std::uint64_t c = buckets[i];
    if (c == 0) continue;
    if (static_cast<double>(cum + c) >= rank) {
      // Interpolate within bucket i. Bucket 0 starts at the observed min;
      // the overflow bucket (i == bounds.size()) ends at the observed max.
      const double lower = i == 0 ? min : bounds[i - 1];
      const double upper = i < bounds.size() ? bounds[i] : max;
      const double fraction =
          std::clamp((rank - static_cast<double>(cum)) / static_cast<double>(c), 0.0, 1.0);
      return std::clamp(lower + fraction * (upper - lower), min, max);
    }
    cum += c;
  }
  return max;
}

const MetricSnapshot* RegistrySnapshot::find(std::string_view name) const noexcept {
  for (const MetricSnapshot& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

void RegistrySnapshot::write_json(std::ostream& os) const {
  os << "{\"schema\": \"lingxi.obs.metrics/v1\", \"metrics\": [";
  bool first = true;
  for (const MetricSnapshot& m : metrics) {
    if (!first) os << ", ";
    first = false;
    os << "{\"name\": ";
    write_string(os, m.name);
    switch (m.kind) {
      case MetricKind::kCounter:
        os << ", \"kind\": \"counter\", \"value\": " << m.count;
        break;
      case MetricKind::kGauge:
        os << ", \"kind\": \"gauge\", \"value\": ";
        write_double(os, m.value);
        break;
      case MetricKind::kHistogram: {
        os << ", \"kind\": \"histogram\", \"count\": " << m.count
           << ", \"sum\": ";
        write_double(os, m.value);
        os << ", \"min\": ";
        write_double(os, m.min);
        os << ", \"max\": ";
        write_double(os, m.max);
        os << ", \"p50\": ";
        write_double(os, m.quantile(0.50));
        os << ", \"p95\": ";
        write_double(os, m.quantile(0.95));
        os << ", \"p99\": ";
        write_double(os, m.quantile(0.99));
        os << ", \"bounds\": [";
        for (std::size_t i = 0; i < m.bounds.size(); ++i) {
          if (i) os << ", ";
          write_double(os, m.bounds[i]);
        }
        os << "], \"buckets\": [";
        for (std::size_t i = 0; i < m.buckets.size(); ++i) {
          if (i) os << ", ";
          os << m.buckets[i];
        }
        os << "]";
        break;
      }
    }
    os << "}";
  }
  os << "]}\n";
}

void RegistrySnapshot::write_prometheus(std::ostream& os) const {
  auto sanitize = [](std::string_view name) {
    std::string out;
    out.reserve(name.size());
    for (const char c : name) {
      const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '_' || c == ':';
      out.push_back(ok ? c : '_');
    }
    if (!out.empty() && out[0] >= '0' && out[0] <= '9') out.insert(out.begin(), '_');
    return out;
  };
  for (const MetricSnapshot& m : metrics) {
    const std::string name = sanitize(m.name);
    switch (m.kind) {
      case MetricKind::kCounter:
        os << "# TYPE " << name << " counter\n" << name << " " << m.count << "\n";
        break;
      case MetricKind::kGauge:
        os << "# TYPE " << name << " gauge\n" << name << " ";
        write_double(os, m.value);
        os << "\n";
        break;
      case MetricKind::kHistogram: {
        os << "# TYPE " << name << " histogram\n";
        std::uint64_t cum = 0;
        for (std::size_t i = 0; i < m.buckets.size(); ++i) {
          cum += m.buckets[i];
          os << name << "_bucket{le=\"";
          if (i < m.bounds.size()) {
            write_double(os, m.bounds[i]);
          } else {
            os << "+Inf";
          }
          os << "\"} " << cum << "\n";
        }
        // A spec-less empty histogram still exposes the +Inf bucket the
        // exposition format requires.
        if (m.buckets.empty()) os << name << "_bucket{le=\"+Inf\"} 0\n";
        os << name << "_sum ";
        write_double(os, m.value);
        os << "\n" << name << "_count " << m.count << "\n";
        break;
      }
    }
  }
}

/// One named metric's per-shard accumulation. A cell is exactly one kind for
/// its whole life; the kind is fixed on first touch.
struct Registry::Cell {
  MetricKind kind = MetricKind::kCounter;
  std::uint64_t count = 0;    // counter value / histogram observations
  double value = 0.0;         // gauge value / histogram sum
  std::uint64_t updates = 0;  // gauge set() count, for the merge rule
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  const HistogramSpec* spec = nullptr;
  std::vector<std::uint64_t> buckets;
};

/// One recording thread's cells. Single writer; `mu` is effectively
/// uncontended and exists so snapshot() can read without torn values.
struct Registry::Shard {
  std::mutex mu;
  std::unordered_map<std::string, Cell, StringHash, std::equal_to<>> cells;
  /// Call-site lookaside: the instrumented sites pass string-literal names,
  /// so the view's data pointer identifies the site and the hot path
  /// replaces the string hash with a pointer hash plus one equality check
  /// against the map key (which also keeps a reused caller buffer with
  /// different contents correct — the check misses and the slow path
  /// re-resolves). Cell and key storage are stable across `cells` rehashes,
  /// so cached entries never dangle. Must be taken under `mu` like
  /// everything else in the shard.
  struct SiteEntry {
    std::string_view name;  ///< view of the map key, not the caller's buffer
    Cell* cell = nullptr;
  };
  std::unordered_map<const char*, SiteEntry> by_site;

  /// Find-or-create under `mu`; `kind`/`spec` apply only on first touch.
  Cell& cell_for(std::string_view name, MetricKind kind,
                 const HistogramSpec* spec = nullptr) {
    if (auto site = by_site.find(name.data());
        site != by_site.end() && site->second.name == name) {
      return *site->second.cell;
    }
    auto it = cells.find(name);
    if (it == cells.end()) {
      it = cells.emplace(std::string(name), Cell{}).first;
      Cell& cell = it->second;
      cell.kind = kind;
      if (spec != nullptr) {
        cell.spec = spec;
        cell.buckets.assign(spec->buckets(), 0);
      }
    }
    by_site[name.data()] = SiteEntry{it->first, &it->second};
    return it->second;
  }
};

Registry::Registry()
    : id_(g_next_registry_id.fetch_add(1, std::memory_order_relaxed)) {}

Registry::~Registry() = default;

Registry* Registry::active() noexcept {
  return g_active.load(std::memory_order_acquire);
}

void Registry::install(Registry* r) noexcept {
  g_active.store(r, std::memory_order_release);
}

Registry::Shard& Registry::local_shard() {
  // The cache is keyed by the process-unique registry id, never a pointer:
  // ids are never reused, so a stale cache entry from a destroyed registry
  // can only miss, never dangle.
  struct TlsSlot {
    std::uint64_t registry_id = 0;
    Shard* shard = nullptr;
  };
  thread_local TlsSlot slot;
  if (slot.registry_id == id_ && slot.shard != nullptr) return *slot.shard;
  std::lock_guard<std::mutex> lock(shards_mu_);
  shards_.push_back(std::make_unique<Shard>());
  slot.registry_id = id_;
  slot.shard = shards_.back().get();
  return *slot.shard;
}

void Registry::add(std::string_view name, std::uint64_t delta) {
  Shard& shard = local_shard();
  std::lock_guard<std::mutex> lock(shard.mu);
  shard.cell_for(name, MetricKind::kCounter).count += delta;
}

void Registry::set(std::string_view name, double value) {
  Shard& shard = local_shard();
  std::lock_guard<std::mutex> lock(shard.mu);
  Cell& cell = shard.cell_for(name, MetricKind::kGauge);
  cell.value = value;
  ++cell.updates;
}

void Registry::observe(std::string_view name, const HistogramSpec& spec,
                       double value) {
  Shard& shard = local_shard();
  std::lock_guard<std::mutex> lock(shard.mu);
  Cell& cell = shard.cell_for(name, MetricKind::kHistogram, &spec);
  ++cell.count;
  cell.value += value;
  cell.min = std::min(cell.min, value);
  cell.max = std::max(cell.max, value);
  ++cell.buckets[spec.bucket_for(value)];
}

std::uint64_t Registry::counter(std::string_view name) const {
  std::uint64_t total = 0;
  std::lock_guard<std::mutex> lock(shards_mu_);
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> cell_lock(shard->mu);
    auto it = shard->cells.find(name);
    if (it != shard->cells.end() && it->second.kind == MetricKind::kCounter) {
      total += it->second.count;
    }
  }
  return total;
}

RegistrySnapshot Registry::snapshot() const {
  // Merge all shards into name-keyed accumulators. Merge rules are
  // order-independent (sums; gauge by update count then value), so the
  // result is identical however threads divided the work.
  std::unordered_map<std::string, Cell, StringHash, std::equal_to<>> merged;
  {
    std::lock_guard<std::mutex> lock(shards_mu_);
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> cell_lock(shard->mu);
      for (const auto& [name, cell] : shard->cells) {
        auto it = merged.find(name);
        if (it == merged.end()) {
          merged.emplace(name, cell);
          continue;
        }
        Cell& into = it->second;
        switch (cell.kind) {
          case MetricKind::kCounter:
            into.count += cell.count;
            break;
          case MetricKind::kGauge:
            if (cell.updates > into.updates ||
                (cell.updates == into.updates && cell.value > into.value)) {
              into.value = cell.value;
            }
            into.updates = std::max(into.updates, cell.updates);
            break;
          case MetricKind::kHistogram:
            into.count += cell.count;
            into.value += cell.value;
            into.min = std::min(into.min, cell.min);
            into.max = std::max(into.max, cell.max);
            if (into.buckets.size() < cell.buckets.size()) {
              into.buckets.resize(cell.buckets.size(), 0);
            }
            for (std::size_t i = 0; i < cell.buckets.size(); ++i) {
              into.buckets[i] += cell.buckets[i];
            }
            break;
        }
      }
    }
  }
  RegistrySnapshot snap;
  snap.metrics.reserve(merged.size());
  for (auto& [name, cell] : merged) {
    MetricSnapshot m;
    m.name = name;
    m.kind = cell.kind;
    m.count = cell.count;
    m.value = cell.value;
    if (cell.kind == MetricKind::kHistogram) {
      m.min = cell.count ? cell.min : 0.0;
      m.max = cell.count ? cell.max : 0.0;
      if (cell.spec != nullptr) m.bounds = cell.spec->bounds();
      m.buckets = std::move(cell.buckets);
    }
    snap.metrics.push_back(std::move(m));
  }
  std::sort(snap.metrics.begin(), snap.metrics.end(),
            [](const MetricSnapshot& a, const MetricSnapshot& b) {
              return a.name < b.name;
            });
  return snap;
}

void Registry::write_json(std::ostream& os) const { snapshot().write_json(os); }

void Registry::write_prometheus(std::ostream& os) const {
  snapshot().write_prometheus(os);
}

bool Registry::write_json_file(const std::string& path) const {
  std::ostringstream os;
  write_json(os);
  const std::string json = os.str();
  return write_file(path, std::vector<unsigned char>(json.begin(), json.end())).ok();
}

}  // namespace lingxi::obs
