// Scoped-span tracer — the tracing half of the observability layer
// (metrics.hpp is the other half; see docs/observability.md).
//
// Spans are recorded through the EARDEC_TRACE_SCOPE RAII macro into
// per-thread lock-free ring buffers: the recording thread is the only
// writer of its buffer, a push is one slot store plus one release store of
// the event count, and no claim path ever takes a lock. Timestamps come
// from one process-wide steady-clock epoch so spans from different threads
// line up on a shared timeline. Buffers of exited threads are recycled
// through a free list, so repeated scheduler drains (which spawn fresh
// jthreads per drain) reuse the same worker lanes instead of growing the
// registry without bound.
//
// Recording is double-gated:
//   * compile time — building with -DEARDEC_ENABLE_TRACING=OFF defines
//     EARDEC_TRACING_ENABLED=0 and EARDEC_TRACE_SCOPE expands to an empty
//     NullSpan (statically checked to be an empty type);
//   * run time — even when compiled in, spans cost one relaxed atomic load
//     until Tracer::set_enabled(true) (what `eardec_cli --trace` and the
//     EARDEC_TRACE env var of the benches flip).
//
// Exports use the Chrome trace-event JSON format, loadable in Perfetto
// (https://ui.perfetto.dev) or chrome://tracing. Exporting and clear() are
// meant for quiescent moments (after worker threads joined); recording and
// exporting concurrently is not a data-race-free combination.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#ifndef EARDEC_TRACING_ENABLED
#define EARDEC_TRACING_ENABLED 1
#endif

namespace eardec::obs {

/// Compile-time tracing switch (CMake option EARDEC_ENABLE_TRACING).
inline constexpr bool kTracingEnabled = EARDEC_TRACING_ENABLED != 0;

/// One completed span. `name`/`arg_name` must be static-lifetime strings
/// (string literals): the ring buffer stores only the pointers.
struct TraceEvent {
  const char* name = nullptr;
  const char* arg_name = nullptr;  ///< optional argument label (may be null)
  std::uint64_t start_ns = 0;      ///< steady-clock ns since tracer epoch
  std::uint64_t dur_ns = 0;
  std::uint64_t arg = 0;  ///< argument value (meaningful iff arg_name set)
};
// A lane holds kRingCapacity events: 8192 x 40 B = 320 KiB per thread.
static_assert(sizeof(TraceEvent) == 40,
              "TraceEvent size sets every ring lane's footprint");

/// A span paired with the lane it was recorded on, for snapshot()/tests.
struct SnapshotEvent {
  TraceEvent event;
  std::uint32_t tid = 0;    ///< stable lane id (registration order)
  std::string thread_name;  ///< last name set on that lane ("" if unnamed)
};

class Tracer {
 public:
  /// Events retained per thread lane; older events are overwritten
  /// (counted by dropped_events()).
  static constexpr std::size_t kRingCapacity = std::size_t{1} << 13;

  /// The process-wide tracer. Never destroyed (safe to use from
  /// static/thread-local destructors).
  static Tracer& instance();

  void set_enabled(bool enabled) noexcept;
  [[nodiscard]] bool enabled() const noexcept;

  /// Nanoseconds since the tracer epoch (process start, steady clock).
  /// Available regardless of the compile-time tracing switch — the obs
  /// layer's one clock, also used for phase timings and worker busy time.
  [[nodiscard]] static std::uint64_t now_ns() noexcept;

  /// Records one completed span on the calling thread's lane. No-op when
  /// disabled (either gate).
  void record_span(const char* name, std::uint64_t start_ns,
                   std::uint64_t dur_ns, const char* arg_name = nullptr,
                   std::uint64_t arg = 0);

  /// Labels the calling thread's lane in exports ("cpu-worker-3"). No-op
  /// while disabled.
  void set_current_thread_name(std::string name);

  /// Drops every recorded span (lane labels survive). Quiescent use only.
  void clear();

  /// Events currently held across all lanes.
  [[nodiscard]] std::size_t recorded_events() const;

  /// Events lost to ring wraparound since the last clear().
  [[nodiscard]] std::uint64_t dropped_events() const;

  /// All retained events, sorted by start time. Quiescent use only.
  [[nodiscard]] std::vector<SnapshotEvent> snapshot() const;

  /// Chrome trace-event JSON ("X" spans + thread_name metadata).
  void write_chrome_trace(std::ostream& out) const;

  /// Convenience file variant; returns false if the file cannot be opened.
  bool write_chrome_trace_file(const std::string& path) const;

  struct Impl;  ///< opaque; defined in trace.cpp

 private:
  Tracer();
  ~Tracer() = delete;  // leaked singleton

  Impl* impl_;
};

/// RAII span: captures the start time at construction and records the span
/// when the scope exits. Prefer the EARDEC_TRACE_SCOPE macro, which
/// compiles out entirely under EARDEC_ENABLE_TRACING=OFF.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) : ScopedSpan(name, nullptr, 0) {}
  ScopedSpan(const char* name, const char* arg_name, std::uint64_t arg)
      : name_(Tracer::instance().enabled() ? name : nullptr),
        arg_name_(arg_name),
        arg_(arg),
        start_ns_(name_ != nullptr ? Tracer::now_ns() : 0) {}
  ~ScopedSpan() {
    if (name_ != nullptr) {
      Tracer::instance().record_span(name_, start_ns_,
                                     Tracer::now_ns() - start_ns_, arg_name_,
                                     arg_);
    }
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;      // null while the tracer is disabled
  const char* arg_name_;
  std::uint64_t arg_;
  std::uint64_t start_ns_;
};

/// What EARDEC_TRACE_SCOPE degrades to when tracing is compiled out: an
/// empty type whose construction evaluates nothing. The static_assert is
/// the contract the disabled-build test relies on.
struct NullSpan {
  constexpr NullSpan() noexcept = default;
};
static_assert(std::is_empty_v<NullSpan>,
              "NullSpan must compile to a no-op object");

}  // namespace eardec::obs

#define EARDEC_OBS_CONCAT_INNER(a, b) a##b
#define EARDEC_OBS_CONCAT(a, b) EARDEC_OBS_CONCAT_INNER(a, b)

/// EARDEC_TRACE_SCOPE("name") or EARDEC_TRACE_SCOPE("name", "arg", value):
/// traces the enclosing scope. Arguments are not evaluated when tracing is
/// compiled out.
#if EARDEC_TRACING_ENABLED
#define EARDEC_TRACE_SCOPE(...)                               \
  const ::eardec::obs::ScopedSpan EARDEC_OBS_CONCAT(          \
      eardec_obs_span_, __LINE__) {                           \
    __VA_ARGS__                                               \
  }
#else
#define EARDEC_TRACE_SCOPE(...)                   \
  [[maybe_unused]] const ::eardec::obs::NullSpan  \
      EARDEC_OBS_CONCAT(eardec_obs_span_, __LINE__) {}
#endif
