#include "obs/trace.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <ostream>

#ifdef __unix__
#include <unistd.h>
#endif

namespace eardec::obs {
namespace {

using Clock = std::chrono::steady_clock;

/// One thread lane. The owning thread is the only writer; `count` is the
/// publication point (slot store first, then a release store of count+1).
struct ThreadBuffer {
  std::array<TraceEvent, Tracer::kRingCapacity> events;
  std::atomic<std::uint64_t> count{0};  ///< total events ever pushed
  std::uint32_t tid = 0;                ///< registration order, stable
  std::string name;                     ///< guarded by the tracer mutex
};

/// Escapes a string for embedding in a JSON string literal. Only names we
/// control flow through here (span literals, lane labels), but keep the
/// output well-formed for anything.
void write_json_escaped(std::ostream& out, const std::string& s) {
  for (const char c : s) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\t': out << "\\t"; break;
      case '\r': out << "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          const char* hex = "0123456789abcdef";
          out << "\\u00" << hex[(c >> 4) & 0xf] << hex[c & 0xf];
        } else {
          out << c;
        }
    }
  }
}

/// Trace-event timestamps are microseconds. Writes `ns` as an exact
/// decimal with three fractional digits: streaming the double ns / 1000
/// would keep only six significant digits, i.e. whole microseconds after
/// the first second of a run.
void write_us(std::ostream& out, std::uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%llu.%03llu",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned long long>(ns % 1000));
  out << buf;
}

}  // namespace

struct Tracer::Impl {
  Clock::time_point epoch = Clock::now();
  std::atomic<bool> enabled{false};
  mutable std::mutex mutex;  ///< guards buffers/free_list/lane names
  std::vector<std::unique_ptr<ThreadBuffer>> buffers;
  std::vector<ThreadBuffer*> free_list;  ///< lanes of exited threads

  /// Lock-free lane registry for the flight recorder: ThreadBuffer
  /// allocations are stable (owned by `buffers`, never freed — exited
  /// threads only return lanes to the free list), so publishing the raw
  /// pointers into a fixed atomic array lets a signal handler walk every
  /// lane without touching the mutex. Slot i mirrors buffers[i]; the count
  /// is release-published after the slot store.
  static constexpr std::size_t kMaxFlightLanes = 64;
  std::atomic<ThreadBuffer*> flight_lanes[kMaxFlightLanes] = {};
  std::atomic<std::uint32_t> flight_lane_count{0};

  ThreadBuffer* acquire() {
    const std::lock_guard lock(mutex);
    if (!free_list.empty()) {
      ThreadBuffer* buf = free_list.back();
      free_list.pop_back();
      return buf;
    }
    buffers.push_back(std::make_unique<ThreadBuffer>());
    buffers.back()->tid = static_cast<std::uint32_t>(buffers.size() - 1);
    ThreadBuffer* buf = buffers.back().get();
    if (buf->tid < kMaxFlightLanes) {
      flight_lanes[buf->tid].store(buf, std::memory_order_release);
      flight_lane_count.store(static_cast<std::uint32_t>(
                                  std::min(buffers.size(), kMaxFlightLanes)),
                              std::memory_order_release);
    }
    return buf;
  }

  void release(ThreadBuffer* buf) {
    const std::lock_guard lock(mutex);
    free_list.push_back(buf);
  }
};

namespace {

/// Thread-local lane handle: lazily acquired on the first recorded event,
/// returned to the free list when the thread exits so later threads reuse
/// the lane (and its tid) instead of growing the registry.
struct ThreadHandle {
  Tracer::Impl* impl = nullptr;
  ThreadBuffer* buf = nullptr;
  ~ThreadHandle() {
    if (buf != nullptr) impl->release(buf);
  }
};

thread_local ThreadHandle t_lane;

ThreadBuffer& current_buffer(Tracer::Impl& impl) {
  if (t_lane.buf == nullptr) {
    t_lane.impl = &impl;
    t_lane.buf = impl.acquire();
  }
  return *t_lane.buf;
}

}  // namespace

Tracer::Tracer() : impl_(new Impl) {}

Tracer& Tracer::instance() {
  // Intentionally leaked: worker threads and static destructors may record
  // or release lanes arbitrarily late in shutdown.
  static Tracer* tracer = new Tracer();
  return *tracer;
}

void Tracer::set_enabled(bool enabled) noexcept {
  if constexpr (!kTracingEnabled) return;
  impl_->enabled.store(enabled, std::memory_order_relaxed);
}

bool Tracer::enabled() const noexcept {
  if constexpr (!kTracingEnabled) return false;
  return impl_->enabled.load(std::memory_order_relaxed);
}

std::uint64_t Tracer::now_ns() noexcept {
  const auto& epoch = instance().impl_->epoch;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           epoch)
          .count());
}

void Tracer::record_span(const char* name, std::uint64_t start_ns,
                         std::uint64_t dur_ns, const char* arg_name,
                         std::uint64_t arg) {
  if (!enabled()) return;
  ThreadBuffer& buf = current_buffer(*impl_);
  const std::uint64_t c = buf.count.load(std::memory_order_relaxed);
  buf.events[c % kRingCapacity] = {name, arg_name, start_ns, dur_ns, arg};
  buf.count.store(c + 1, std::memory_order_release);
}

void Tracer::set_current_thread_name(std::string name) {
  if (!enabled()) return;
  ThreadBuffer& buf = current_buffer(*impl_);
  const std::lock_guard lock(impl_->mutex);
  buf.name = std::move(name);
}

void Tracer::clear() {
  const std::lock_guard lock(impl_->mutex);
  for (const auto& buf : impl_->buffers) {
    buf->count.store(0, std::memory_order_relaxed);
  }
}

std::size_t Tracer::recorded_events() const {
  const std::lock_guard lock(impl_->mutex);
  std::size_t total = 0;
  for (const auto& buf : impl_->buffers) {
    total += static_cast<std::size_t>(std::min<std::uint64_t>(
        buf->count.load(std::memory_order_acquire), kRingCapacity));
  }
  return total;
}

std::uint64_t Tracer::dropped_events() const {
  const std::lock_guard lock(impl_->mutex);
  std::uint64_t dropped = 0;
  for (const auto& buf : impl_->buffers) {
    const std::uint64_t c = buf->count.load(std::memory_order_acquire);
    if (c > kRingCapacity) dropped += c - kRingCapacity;
  }
  return dropped;
}

std::vector<SnapshotEvent> Tracer::snapshot() const {
  std::vector<SnapshotEvent> out;
  {
    const std::lock_guard lock(impl_->mutex);
    for (const auto& buf : impl_->buffers) {
      const std::uint64_t c = buf->count.load(std::memory_order_acquire);
      const std::uint64_t n = std::min<std::uint64_t>(c, kRingCapacity);
      for (std::uint64_t i = c - n; i < c; ++i) {
        out.push_back({buf->events[i % kRingCapacity], buf->tid, buf->name});
      }
    }
  }
  std::sort(out.begin(), out.end(),
            [](const SnapshotEvent& a, const SnapshotEvent& b) {
              return a.event.start_ns < b.event.start_ns;
            });
  return out;
}

void Tracer::write_chrome_trace(std::ostream& out) const {
  const std::lock_guard lock(impl_->mutex);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  const auto comma = [&] {
    if (!first) out << ",\n";
    first = false;
  };
  comma();
  out << R"({"ph":"M","pid":1,"tid":0,"name":"process_name",)"
      << R"("args":{"name":"eardec"}})";
  for (const auto& buf : impl_->buffers) {
    if (!buf->name.empty()) {
      comma();
      out << R"({"ph":"M","pid":1,"tid":)" << buf->tid
          << R"(,"name":"thread_name","args":{"name":")";
      write_json_escaped(out, buf->name);
      out << "\"}}";
    }
    const std::uint64_t c = buf->count.load(std::memory_order_acquire);
    const std::uint64_t n = std::min<std::uint64_t>(c, kRingCapacity);
    for (std::uint64_t i = c - n; i < c; ++i) {
      const TraceEvent& e = buf->events[i % kRingCapacity];
      comma();
      out << R"({"ph":"X","pid":1,"tid":)" << buf->tid << R"(,"name":")";
      write_json_escaped(out, e.name);
      out << R"(","ts":)";
      write_us(out, e.start_ns);
      out << ",\"dur\":";
      write_us(out, e.dur_ns);
      if (e.arg_name != nullptr) {
        out << ",\"args\":{\"";
        write_json_escaped(out, e.arg_name);
        out << "\":" << e.arg << "}";
      }
      out << "}";
    }
  }
  out << "\n]}\n";
}

bool Tracer::write_chrome_trace_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  write_chrome_trace(out);
  return static_cast<bool>(out);
}

// ---------------------------------------------------------------------------
// Flight dump: the async-signal-safe export path. Everything below uses only
// write(2) plus hand-rolled formatting — no locks, no allocation, no stdio —
// so obs/flight_recorder.hpp can call it from SIGSEGV/SIGABRT handlers.
// Events a thread is writing concurrently are tolerated: the newest slot of
// a lane may be torn, so names are copied through a sanitizer that keeps the
// JSON well-formed no matter what bytes are found.
// ---------------------------------------------------------------------------

namespace {

#ifdef __unix__

/// Buffered signal-safe writer: batches small appends into a fixed buffer
/// and flushes with write(2), retrying on EINTR.
struct FlightWriter {
  int fd;
  char buf[1024];
  std::size_t len = 0;
  bool ok = true;

  explicit FlightWriter(int fd_in) : fd(fd_in) {}

  void flush() noexcept {
    std::size_t off = 0;
    while (ok && off < len) {
      const ssize_t n = ::write(fd, buf + off, len - off);
      if (n > 0) {
        off += static_cast<std::size_t>(n);
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else {
        ok = false;
      }
    }
    len = 0;
  }

  void put(char c) noexcept {
    if (len == sizeof(buf)) flush();
    buf[len++] = c;
  }

  void raw(const char* s) noexcept {
    for (; *s != '\0'; ++s) put(*s);
  }

  void u64(std::uint64_t v) noexcept {
    char digits[20];
    std::size_t n = 0;
    do {
      digits[n++] = static_cast<char>('0' + v % 10);
      v /= 10;
    } while (v != 0);
    while (n > 0) put(digits[--n]);
  }

  /// Emits a quoted JSON string from possibly-torn memory: copies at most
  /// `cap` bytes, stops at NUL, and replaces anything that could break the
  /// JSON (quotes, backslashes, control or non-ASCII bytes) with '_'.
  void sanitized(const char* s, std::size_t cap) noexcept {
    put('"');
    for (std::size_t i = 0; s != nullptr && i < cap && s[i] != '\0'; ++i) {
      const unsigned char c = static_cast<unsigned char>(s[i]);
      put(c >= 0x20 && c < 0x7f && c != '"' && c != '\\'
              ? static_cast<char>(c)
              : '_');
    }
    put('"');
  }
};

#endif  // __unix__

}  // namespace

bool Tracer::write_flight_dump(int fd, const char* reason) const noexcept {
#if !defined(__unix__)
  (void)fd;
  (void)reason;
  return false;
#else
  if constexpr (!kTracingEnabled) return false;
  if (fd < 0) return false;
  // Cap the per-lane event walk so the dump stays small and fast even with
  // full rings (a crash handler should not spend seconds formatting 8k
  // events x 64 lanes).
  constexpr std::uint64_t kEventsPerLane = 256;
  FlightWriter w(fd);
  w.raw("{\"flight\":1,\"reason\":");
  w.sanitized(reason != nullptr ? reason : "unknown", 64);
  w.raw(",\"now_ns\":");
  w.u64(now_ns());
  w.raw(",\"lanes\":[");
  const std::uint32_t lanes =
      impl_->flight_lane_count.load(std::memory_order_acquire);
  bool first_lane = true;
  for (std::uint32_t l = 0; l < lanes && l < Impl::kMaxFlightLanes; ++l) {
    const ThreadBuffer* buf =
        impl_->flight_lanes[l].load(std::memory_order_acquire);
    if (buf == nullptr) continue;
    if (!first_lane) w.put(',');
    first_lane = false;
    w.raw("{\"tid\":");
    w.u64(buf->tid);
    w.raw(",\"events\":[");
    const std::uint64_t c = buf->count.load(std::memory_order_acquire);
    const std::uint64_t n =
        std::min<std::uint64_t>({c, kRingCapacity, kEventsPerLane});
    for (std::uint64_t i = c - n; i < c; ++i) {
      const TraceEvent& e = buf->events[i % kRingCapacity];
      if (i != c - n) w.put(',');
      w.raw("{\"name\":");
      w.sanitized(e.name, 64);
      w.raw(",\"start_ns\":");
      w.u64(e.start_ns);
      w.raw(",\"dur_ns\":");
      w.u64(e.dur_ns);
      if (e.arg_name != nullptr) {
        w.raw(",\"arg_name\":");
        w.sanitized(e.arg_name, 64);
        w.raw(",\"arg\":");
        w.u64(e.arg);
      }
      w.put('}');
    }
    w.raw("]}");
  }
  w.raw("]}\n");
  w.flush();
  return w.ok;
#endif
}

}  // namespace eardec::obs
