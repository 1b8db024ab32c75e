#include "obs/trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <ostream>
#include <sstream>

#include "common/bytes.h"

namespace lingxi::obs {
namespace {

std::atomic<Tracer*> g_active{nullptr};
std::atomic<std::uint64_t> g_next_tracer_id{1};

void write_name(std::ostream& os, const char* s) {
  os << '"';
  for (; *s; ++s) {
    if (*s == '"' || *s == '\\') os << '\\';
    os << *s;
  }
  os << '"';
}

}  // namespace

/// One recording thread's span storage: a fixed ring where `next` wraps and
/// overwrites the oldest entry. Single writer; `mu` exists only so
/// write_json() can read a consistent view.
struct Tracer::Ring {
  std::mutex mu;
  std::vector<Span> spans;    // capacity slots, size() == capacity
  std::size_t next = 0;       // next slot to write
  std::size_t filled = 0;     // live entries, <= capacity
  std::uint64_t dropped = 0;  // overwritten entries
};

Tracer::Tracer(std::size_t ring_capacity)
    : id_(g_next_tracer_id.fetch_add(1, std::memory_order_relaxed)),
      capacity_(ring_capacity == 0 ? 1 : ring_capacity) {}

Tracer::~Tracer() = default;

Tracer* Tracer::active() noexcept {
  return g_active.load(std::memory_order_acquire);
}

void Tracer::install(Tracer* t) noexcept {
  g_active.store(t, std::memory_order_release);
}

std::uint64_t Tracer::now_us() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Tracer::Ring& Tracer::local_ring() {
  // Same id-keyed TLS cache as Registry::local_shard — ids are never
  // reused, so a stale entry can only miss.
  struct TlsSlot {
    std::uint64_t tracer_id = 0;
    Ring* ring = nullptr;
  };
  thread_local TlsSlot slot;
  if (slot.tracer_id == id_ && slot.ring != nullptr) return *slot.ring;
  std::lock_guard<std::mutex> lock(rings_mu_);
  rings_.push_back(std::make_unique<Ring>());
  rings_.back()->spans.resize(capacity_);
  slot.tracer_id = id_;
  slot.ring = rings_.back().get();
  return *slot.ring;
}

void Tracer::record(const char* name, std::uint64_t begin_us,
                    std::uint64_t end_us) {
  Ring& ring = local_ring();
  std::lock_guard<std::mutex> lock(ring.mu);
  Span& slot = ring.spans[ring.next];
  if (ring.filled == ring.spans.size()) {
    ++ring.dropped;  // overwriting the oldest retained span
  } else {
    ++ring.filled;
  }
  slot.name = name;
  slot.begin_us = begin_us;
  slot.end_us = end_us;
  ring.next = (ring.next + 1) % ring.spans.size();
}

std::uint64_t Tracer::dropped_events() const {
  std::uint64_t total = 0;
  std::lock_guard<std::mutex> lock(rings_mu_);
  for (const auto& ring : rings_) {
    std::lock_guard<std::mutex> ring_lock(ring->mu);
    total += ring->dropped;
  }
  return total;
}

std::uint64_t Tracer::retained_events() const {
  std::uint64_t total = 0;
  std::lock_guard<std::mutex> lock(rings_mu_);
  for (const auto& ring : rings_) {
    std::lock_guard<std::mutex> ring_lock(ring->mu);
    total += ring->filled;
  }
  return total;
}

void Tracer::write_json(std::ostream& os) const {
  struct Event {
    Span span;
    std::size_t tid = 0;
  };
  std::vector<Event> events;
  std::uint64_t dropped = 0;
  {
    std::lock_guard<std::mutex> lock(rings_mu_);
    for (std::size_t tid = 0; tid < rings_.size(); ++tid) {
      Ring& ring = *rings_[tid];
      std::lock_guard<std::mutex> ring_lock(ring.mu);
      dropped += ring.dropped;
      // Oldest-first: the ring's oldest live entry sits at `next` once the
      // ring has wrapped, at 0 before.
      const std::size_t cap = ring.spans.size();
      const std::size_t start =
          ring.filled == cap ? ring.next : (ring.next + cap - ring.filled) % cap;
      for (std::size_t i = 0; i < ring.filled; ++i) {
        events.push_back(Event{ring.spans[(start + i) % cap], tid});
      }
    }
  }
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    if (a.span.begin_us != b.span.begin_us)
      return a.span.begin_us < b.span.begin_us;
    if (a.tid != b.tid) return a.tid < b.tid;
    return std::strcmp(a.span.name, b.span.name) < 0;
  });
  os << "{\"displayTimeUnit\": \"ms\", \"otherData\": {\"schema\": "
        "\"lingxi.obs.trace/v1\", \"dropped_events\": "
     << dropped << "}, \"traceEvents\": [";
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Event& e = events[i];
    if (i) os << ", ";
    os << "{\"name\": ";
    write_name(os, e.span.name);
    os << ", \"cat\": \"lingxi\", \"ph\": \"X\", \"ts\": " << e.span.begin_us
       << ", \"dur\": " << (e.span.end_us - e.span.begin_us)
       << ", \"pid\": 0, \"tid\": " << e.tid << "}";
  }
  os << "]}\n";
}

bool Tracer::write_json_file(const std::string& path) const {
  std::ostringstream os;
  write_json(os);
  const std::string json = os.str();
  return write_file(path, std::vector<unsigned char>(json.begin(), json.end())).ok();
}

}  // namespace lingxi::obs
