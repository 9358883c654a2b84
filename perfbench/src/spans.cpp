#include "spans.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <stdexcept>

namespace perfbench {
namespace {

struct Lane {
  std::uint32_t tid = 0;
  std::string name;
  std::vector<Span> spans;
};

struct Registry {
  mutable std::mutex mu;  // guards lanes (registration only)
  std::vector<std::unique_ptr<Lane>> lanes;
};

Registry& registry() {
  static Registry* r = new Registry;  // leaked: outlives thread_local users
  return *r;
}

Lane& this_lane() {
  thread_local Lane* lane = [] {
    Registry& r = registry();
    const std::lock_guard lock(r.mu);
    r.lanes.push_back(std::make_unique<Lane>());
    r.lanes.back()->tid = static_cast<std::uint32_t>(r.lanes.size());
    return r.lanes.back().get();
  }();
  return *lane;
}

// Direct-child coverage of every span on one lane: spans nest strictly on a
// lane (they are RAII scopes), so a stack over start-sorted spans finds each
// span's parent.
void rollup_lane(std::vector<Span> spans, std::map<std::string, LayerStat>& out) {
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    return a.start_ns != b.start_ns ? a.start_ns < b.start_ns : a.dur_ns > b.dur_ns;
  });
  std::vector<std::uint64_t> child(spans.size(), 0);
  std::vector<std::size_t> stack;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    while (!stack.empty()) {
      const Span& top = spans[stack.back()];
      if (top.start_ns + top.dur_ns > spans[i].start_ns) break;
      stack.pop_back();
    }
    if (!stack.empty()) child[stack.back()] += spans[i].dur_ns;
    stack.push_back(i);
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    LayerStat& s = out[spans[i].name];
    s.calls += 1;
    s.total_ns += spans[i].dur_ns;
    s.child_ns += std::min(child[i], spans[i].dur_ns);
    s.self_ns += spans[i].dur_ns - std::min(child[i], spans[i].dur_ns);
  }
}

}  // namespace

std::uint64_t now_ns() {
  static const auto epoch = std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch)
          .count());
}

SpanLog& SpanLog::instance() {
  static SpanLog* log = new SpanLog;
  return *log;
}

void SpanLog::name_thread(const std::string& name) {
  if (enabled_) this_lane().name = name;  // untraced threads get no lane
}

void SpanLog::record(const char* name, std::uint64_t start_ns,
                     std::uint64_t dur_ns) {
  std::vector<Span>& spans = this_lane().spans;
  if (spans.capacity() == 0) spans.reserve(std::size_t{1} << 16);  // no regrowth mid-phase
  spans.push_back(Span{name, start_ns, dur_ns});
}

std::size_t SpanLog::span_count() const {
  const Registry& r = registry();
  const std::lock_guard lock(r.mu);
  std::size_t n = 0;
  for (const auto& lane : r.lanes) n += lane->spans.size();
  return n;
}

std::map<std::string, LayerStat> SpanLog::layer_table() const {
  const Registry& r = registry();
  const std::lock_guard lock(r.mu);
  std::map<std::string, LayerStat> out;
  for (const auto& lane : r.lanes) rollup_lane(lane->spans, out);
  return out;
}

void SpanLog::write_chrome_json(const std::filesystem::path& path) const {
  const Registry& r = registry();
  const std::lock_guard lock(r.mu);
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace " + path.string());
  out << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n";
  bool first = true;
  auto sep = [&] {
    if (!first) out << ",\n";
    first = false;
  };
  char buf[256];
  for (const auto& lane : r.lanes) {
    if (!lane->name.empty()) {
      sep();
      out << "{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": 1, \"tid\": "
          << lane->tid << ", \"args\": {\"name\": \"" << lane->name << "\"}}";
    }
    for (const Span& s : lane->spans) {
      sep();
      std::snprintf(buf, sizeof buf,
                    "{\"ph\": \"X\", \"name\": \"%s\", \"pid\": 1, \"tid\": %u, "
                    "\"ts\": %.3f, \"dur\": %.3f}",
                    s.name, lane->tid, static_cast<double>(s.start_ns) / 1e3,
                    static_cast<double>(s.dur_ns) / 1e3);
      out << buf;
    }
  }
  out << "\n]}\n";
}

}  // namespace perfbench
