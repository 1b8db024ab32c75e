#include "obs/timeline.h"

#include <atomic>
#include <utility>

#include "common/bytes.h"

namespace lingxi::obs {
namespace {

constexpr std::string_view kMagic = "LXTL";
constexpr std::uint32_t kFrameVersion = 1;

// Record types inside a frame payload.
constexpr std::uint32_t kRecSchema = 0;
constexpr std::uint32_t kRecDay = static_cast<std::uint32_t>(TimelineRecord::Type::kDay);
constexpr std::uint32_t kRecAlert = static_cast<std::uint32_t>(TimelineRecord::Type::kAlert);

// One metric inside a day-record section: name | kind | count | value |
// min | max | bounds[] | buckets[].
void encode_metric(std::vector<unsigned char>& out, const MetricSnapshot& m) {
  put_str(out, m.name);
  put_u32(out, static_cast<std::uint32_t>(m.kind));
  put_u64(out, m.count);
  put_f64(out, m.value);
  put_f64(out, m.min);
  put_f64(out, m.max);
  put_u32(out, static_cast<std::uint32_t>(m.bounds.size()));
  put_f64s(out, m.bounds);
  put_u32(out, static_cast<std::uint32_t>(m.buckets.size()));
  for (std::uint64_t c : m.buckets) put_u64(out, c);
}

void decode_metric(ByteReader& in, MetricSnapshot& m) {
  m.name = in.str();
  const std::uint32_t kind = in.u32();
  if (kind > static_cast<std::uint32_t>(MetricKind::kHistogram)) in.fail();
  m.kind = static_cast<MetricKind>(kind);
  m.count = in.u64();
  m.value = in.f64();
  m.min = in.f64();
  m.max = in.f64();
  m.bounds = in.f64s(in.u32());
  m.buckets.resize(in.count(in.u32(), 8));
  for (std::uint64_t& c : m.buckets) c = in.u64();
}

// A metric section: u32 metric count, then each metric. The deterministic
// section's encoded bytes are exactly one of these — the unit of the
// bitwise-parity contract.
std::vector<unsigned char> encode_section(const std::vector<MetricSnapshot>& metrics) {
  std::vector<unsigned char> out;
  put_u32(out, static_cast<std::uint32_t>(metrics.size()));
  for (const auto& m : metrics) encode_metric(out, m);
  return out;
}

// A section decodes only if it fills `in` exactly.
bool decode_section(ByteReader& in, std::vector<MetricSnapshot>& out) {
  // Smallest metric: empty name, kind, count, 3 doubles, two empty arrays.
  constexpr std::size_t kMinMetricWireSize = 4 + 4 + 8 + 3 * 8 + 4 + 4;
  out.resize(in.count(in.u32(), kMinMetricWireSize));
  for (MetricSnapshot& m : out) decode_metric(in, m);
  return in.done();
}

std::atomic<TimelineWriter*> g_active{nullptr};

}  // namespace

bool timeline_deterministic(std::string_view name, MetricKind kind) {
  // Only the accumulator-derived fleet-day gauges are pure functions of
  // (config, seed, day). Counters reset on process restart, so a resumed
  // run's registry cannot reproduce them — they stay wall-clock.
  if (kind != MetricKind::kGauge) return false;
  if (name.substr(0, 10) != "sim.fleet.") return false;
  return name != "sim.fleet.sessions_per_sec";
}

TimelineWriter* TimelineWriter::active() noexcept {
  return g_active.load(std::memory_order_acquire);
}

void TimelineWriter::install(TimelineWriter* w) noexcept {
  g_active.store(w, std::memory_order_release);
}

TimelineWriter::TimelineWriter(const std::string& path) : path_(path) {
  out_.open(path, std::ios::binary | std::ios::trunc);
  if (!out_) {
    status_ = Error::io("timeline: cannot open " + path);
    return;
  }
  std::vector<unsigned char> payload;
  put_u32(payload, kRecSchema);
  put_str(payload, kTimelineSchema);
  append(payload);
}

TimelineWriter::~TimelineWriter() { close(); }

void TimelineWriter::append(const std::vector<unsigned char>& payload) {
  if (!status_.ok() || closed_) return;
  std::vector<unsigned char> frame;
  append_frame(frame, kMagic, kFrameVersion, payload);
  out_.write(reinterpret_cast<const char*>(frame.data()),
             static_cast<std::streamsize>(frame.size()));
  if (!out_) status_ = Error::io("timeline: write failed for " + path_);
}

void TimelineWriter::append_day(std::uint64_t day, const RegistrySnapshot& snapshot) {
  if (!status_.ok() || closed_) return;
  std::vector<MetricSnapshot> det;
  std::vector<MetricSnapshot> wall;
  for (const auto& m : snapshot.metrics) {
    (timeline_deterministic(m.name, m.kind) ? det : wall).push_back(m);
  }
  // Sections inherit the snapshot's sorted-name order, so the deterministic
  // bytes depend only on the metric values, not on partition order.
  std::vector<unsigned char> det_bytes = encode_section(det);
  std::vector<unsigned char> wall_bytes = encode_section(wall);

  std::vector<unsigned char> payload;
  put_u32(payload, kRecDay);
  put_u64(payload, day);
  put_u32(payload, static_cast<std::uint32_t>(det_bytes.size()));
  payload.insert(payload.end(), det_bytes.begin(), det_bytes.end());
  payload.insert(payload.end(), wall_bytes.begin(), wall_bytes.end());
  append(payload);
  if (status_.ok()) ++days_written_;
}

void TimelineWriter::append_alert(const HealthAlert& alert) {
  if (!status_.ok() || closed_) return;
  std::vector<unsigned char> payload;
  put_u32(payload, kRecAlert);
  put_u64(payload, alert.day);
  put_str(payload, alert.rule);
  put_str(payload, alert.metric);
  put_f64(payload, alert.observed);
  put_f64(payload, alert.threshold);
  put_str(payload, alert.message);
  append(payload);
}

Status TimelineWriter::close() {
  if (closed_) return status_;
  closed_ = true;
  if (out_.is_open()) {
    out_.flush();
    if (!out_ && status_.ok()) status_ = Error::io("timeline: flush failed for " + path_);
    out_.close();
  }
  return status_;
}

Expected<TimelineReader> TimelineReader::open(const std::string& path) {
  auto in = std::make_shared<std::ifstream>(path, std::ios::binary);
  if (!*in) return Error::io("timeline: cannot open " + path);
  TimelineReader reader(std::move(in));
  // The first frame must be the schema header.
  if (!reader.has_next()) return Error::corrupt("timeline: empty file " + path);
  auto frame = read_frame(*reader.in_, kMagic, kFrameVersion);
  if (!frame) return frame.error();
  ByteReader header(*frame);
  const std::uint32_t type = header.u32();
  const std::string schema = header.str();
  if (!header.done() || type != kRecSchema) {
    return Error::corrupt("timeline: missing schema header in " + path);
  }
  if (schema != kTimelineSchema) {
    return Error::corrupt("timeline: unknown schema '" + schema + "' in " + path);
  }
  return reader;
}

bool TimelineReader::has_next() {
  if (!in_ || !in_->good()) return false;
  return in_->peek() != std::ifstream::traits_type::eof();
}

Expected<TimelineRecord> TimelineReader::next() {
  auto frame = read_frame(*in_, kMagic, kFrameVersion);
  if (!frame) return frame.error();
  ByteReader in(*frame);
  const std::uint32_t type = in.u32();
  if (!in.ok()) return Error::corrupt("timeline: empty record payload");

  TimelineRecord rec;
  if (type == kRecDay) {
    rec.type = TimelineRecord::Type::kDay;
    rec.day = in.u64();
    const ByteSpan det = in.bytes(in.u32());
    if (!in.ok()) {
      return Error::corrupt("timeline: day record deterministic section overruns frame");
    }
    rec.deterministic_bytes.assign(det.begin(), det.end());
    ByteReader det_in(det);
    if (!decode_section(det_in, rec.deterministic)) {
      return Error::corrupt("timeline: malformed deterministic section");
    }
    if (!decode_section(in, rec.wallclock)) {
      return Error::corrupt("timeline: malformed wall-clock section");
    }
  } else if (type == kRecAlert) {
    rec.type = TimelineRecord::Type::kAlert;
    rec.day = in.u64();
    rec.alert.day = rec.day;
    rec.alert.rule = in.str();
    rec.alert.metric = in.str();
    rec.alert.observed = in.f64();
    rec.alert.threshold = in.f64();
    rec.alert.message = in.str();
    if (!in.done()) return Error::corrupt("timeline: malformed alert record");
  } else {
    return Error::corrupt("timeline: unknown record type " + std::to_string(type));
  }
  return rec;
}

Expected<std::vector<TimelineRecord>> TimelineReader::read_all() {
  std::vector<TimelineRecord> out;
  while (has_next()) {
    auto rec = next();
    if (!rec) return rec.error();
    out.push_back(std::move(*rec));
  }
  return out;
}

}  // namespace lingxi::obs
