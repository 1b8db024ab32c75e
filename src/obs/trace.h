// Fleet observability: bounded per-thread span tracer.
//
// A Tracer records begin/end spans into fixed-capacity per-thread rings —
// recording a span is two clock reads plus one ring slot write, no
// allocation, no cross-thread contention. When a ring fills, the newest
// span overwrites the oldest and the tracer counts the drop; write_json()
// merges every ring, sorted by start timestamp, into Chrome `trace_event`
// JSON ("X" complete events) loadable in chrome://tracing or Perfetto
// (https://ui.perfetto.dev — open the file directly).
//
// Same runtime-nullable model as the metrics Registry: Tracer::active() is
// one atomic load, a null tracer costs one branch per span site, and span
// names must be string literals (static lifetime) — the ring stores the
// pointer, never a copy.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace lingxi::obs {

class Tracer {
 public:
  /// `ring_capacity` spans retained per recording thread (oldest dropped
  /// first on overflow).
  explicit Tracer(std::size_t ring_capacity = 1 << 14);
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// The process-wide active tracer, or nullptr when tracing is off.
  static Tracer* active() noexcept;
  /// Install `t` as the active tracer (nullptr disables). Same lifecycle
  /// contract as Registry::install.
  static void install(Tracer* t) noexcept;

  /// Record one completed span. `name` must be a string literal (the
  /// pointer is stored). Timestamps are steady-clock microseconds as
  /// returned by now_us().
  void record(const char* name, std::uint64_t begin_us, std::uint64_t end_us);

  /// Steady-clock microseconds, the tracer's time base.
  static std::uint64_t now_us() noexcept;

  /// Spans dropped to ring overflow, across all threads.
  std::uint64_t dropped_events() const;
  /// Spans currently retained, across all threads.
  std::uint64_t retained_events() const;

  /// Chrome trace_event JSON: {"displayTimeUnit": "ms",
  /// "otherData": {"schema": "lingxi.obs.trace/v1", "dropped_events": N},
  /// "traceEvents": [{"name", "cat": "lingxi", "ph": "X", "ts", "dur",
  /// "pid": 0, "tid"}]}, events sorted by (ts, tid, name). tid is the
  /// order in which recording threads first touched the tracer.
  void write_json(std::ostream& os) const;
  /// write_json to a file atomically (common/bytes.h write_file: temp file,
  /// fsync, rename), so a crash never leaves a torn dump; false on I/O
  /// failure.
  bool write_json_file(const std::string& path) const;

 private:
  struct Span {
    const char* name = nullptr;
    std::uint64_t begin_us = 0;
    std::uint64_t end_us = 0;
  };
  struct Ring;

  Ring& local_ring();

  const std::uint64_t id_;
  const std::size_t capacity_;
  mutable std::mutex rings_mu_;
  std::vector<std::unique_ptr<Ring>> rings_;
};

/// RAII span: records [construction, destruction) into the active tracer.
/// Captures the tracer once so an install() mid-span cannot tear. `name`
/// must be a string literal.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) noexcept
      : tracer_(Tracer::active()), name_(name),
        begin_us_(tracer_ ? Tracer::now_us() : 0) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->record(name_, begin_us_, Tracer::now_us());
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  const char* name_;
  std::uint64_t begin_us_;
};

}  // namespace lingxi::obs

#define LINGXI_OBS_CONCAT_(a, b) a##b
#define LINGXI_OBS_CONCAT(a, b) LINGXI_OBS_CONCAT_(a, b)

/// Trace the enclosing scope as one span named `name` (string literal).
#define OBS_SPAN(name) \
  ::lingxi::obs::ScopedSpan LINGXI_OBS_CONCAT(obs_span_, __COUNTER__)(name)
