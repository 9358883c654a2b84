#include "obs/trace.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <ostream>

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

  ThreadBuffer* acquire() {
    const std::lock_guard lock(mutex);
    if (!free_list.empty()) {
      ThreadBuffer* buf = free_list.back();
      free_list.pop_back();
      return buf;
    }
    buffers.push_back(std::make_unique<ThreadBuffer>());
    buffers.back()->tid = static_cast<std::uint32_t>(buffers.size() - 1);
    return buffers.back().get();
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

}  // namespace eardec::obs
