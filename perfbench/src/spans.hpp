// Benchmark-side span recorder. Spans are taken only around the calls the
// benchmark makes into the library's public functions; nothing inside the
// library is instrumented. Each thread records into its own lane, the lanes
// are kept in memory, and they are written out once, at exit, as Chrome
// trace-event JSON (the format tools/trace_summary.py reads).
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Nanoseconds on the steady clock since the first call in this process.
[[nodiscard]] std::uint64_t now_ns();

struct Span {
  const char* name;  ///< static-lifetime string
  std::uint64_t start_ns;
  std::uint64_t dur_ns;
};

/// Per-name rollup: calls, total duration, and self time (duration minus
/// the part of it covered by direct child spans on the same lane).
struct LayerStat {
  std::uint64_t calls = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
  std::uint64_t child_ns = 0;
};

/// Process-wide span log. record() is safe from any thread; lanes(),
/// layer_table() and write_chrome_json() must run after every recording
/// thread has been joined.
class SpanLog {
 public:
  static SpanLog& instance();

  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Labels the calling thread's lane in the exported trace (no-op while
  /// disabled: untraced threads get no lane).
  void name_thread(const std::string& name);
  void record(const char* name, std::uint64_t start_ns, std::uint64_t dur_ns);

  [[nodiscard]] std::size_t span_count() const;
  [[nodiscard]] std::map<std::string, LayerStat> layer_table() const;
  void write_chrome_json(const std::filesystem::path& path) const;

 private:
  SpanLog() = default;
  bool enabled_ = false;  // flipped only while no worker thread runs
};

/// Runs f() and returns its wall time in ns; records it as span `name`
/// (a static-lifetime string) when the log is enabled.
template <class F>
std::uint64_t timed(const char* name, F&& f) {
  const std::uint64_t t0 = now_ns();
  f();
  const std::uint64_t dur = now_ns() - t0;
  if (SpanLog::instance().enabled()) SpanLog::instance().record(name, t0, dur);
  return dur;
}

}  // namespace perfbench
