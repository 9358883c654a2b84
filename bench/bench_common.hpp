// Shared support for the table/figure harnesses: wall-clock timing, fixed
// execution configurations matching the paper's four implementations, and
// a CSV cache so figure binaries derived from the same sweep (Table 2 /
// Figure 5 / Figure 6) measure once and render thrice.
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/ear_apsp.hpp"
#include "obs/metrics.hpp"
#include "obs/stats_server.hpp"
#include "obs/trace.hpp"

namespace eardec::bench {

/// Bumped whenever the shape of a bench_results/*.json file changes, so the
/// plotting/diffing scripts can reject snapshots they don't understand.
/// v3: the v2 "pmu" provenance block is gone (the PMU engine was removed).
/// v4: mcb_gf2.json cells lose their two device-sweep keys, the offload
/// threshold and the offloaded row count (the device witness sweep was
/// removed); every other file is shaped as in v3.
inline constexpr int kBenchSchemaVersion = 4;

/// Git revision the binary was built from (baked in by bench/CMakeLists.txt;
/// "unknown" outside a git checkout).
inline const char* build_git_sha() {
#ifdef EARDEC_GIT_SHA
  return EARDEC_GIT_SHA;
#else
  return "unknown";
#endif
}

/// Writes the provenance header fields of a bench_results/*.json object.
/// Call immediately after printing the opening `{`.
inline void json_stamp(std::FILE* out) {
  std::fprintf(out, "  \"schema_version\": %d,\n  \"git_sha\": \"%s\",\n",
               kBenchSchemaVersion, build_git_sha());
}

/// Opt-in observability for every bench binary: set EARDEC_TRACE and/or
/// EARDEC_METRICS to file paths and the session records a Chrome trace /
/// metrics dump of the whole run, written on destruction (i.e. at the end
/// of main). EARDEC_STATS_PORT serves the registry live over HTTP for the
/// duration of the run. No env vars -> zero behavior change.
class ObservabilitySession {
 public:
  ObservabilitySession() {
    const char* trace = std::getenv("EARDEC_TRACE");
    const char* metrics = std::getenv("EARDEC_METRICS");
    if (trace != nullptr) trace_path_ = trace;
    if (metrics != nullptr) metrics_path_ = metrics;
    if (!trace_path_.empty()) obs::Tracer::instance().set_enabled(true);
    obs::StatsServer::instance().configure_from_env();
  }

  ~ObservabilitySession() {
    obs::StatsServer::instance().stop();
    if (!trace_path_.empty() &&
        !obs::Tracer::instance().write_chrome_trace_file(trace_path_)) {
      std::fprintf(stderr, "bench: cannot write trace %s\n",
                   trace_path_.c_str());
    }
    if (!metrics_path_.empty() &&
        !obs::MetricsRegistry::instance().write_file(metrics_path_)) {
      std::fprintf(stderr, "bench: cannot write metrics %s\n",
                   metrics_path_.c_str());
    }
  }

  ObservabilitySession(const ObservabilitySession&) = delete;
  ObservabilitySession& operator=(const ObservabilitySession&) = delete;

 private:
  std::string trace_path_;
  std::string metrics_path_;
};

inline double time_seconds(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// The paper's four implementations (Table 2 / Figures 5-6 columns).
struct NamedMode {
  const char* name;
  core::ExecutionMode mode;
};

inline const std::vector<NamedMode>& implementation_modes() {
  static const std::vector<NamedMode> modes = {
      {"Sequential", core::ExecutionMode::Sequential},
      {"Multi-Core", core::ExecutionMode::Multicore},
      {"GPU", core::ExecutionMode::DeviceOnly},
      {"CPU+GPU", core::ExecutionMode::Heterogeneous},
  };
  return modes;
}

/// Execution options used by every bench (one physical core in this
/// container: thread counts model the paper's structure, not its scale).
inline core::ApspOptions bench_apsp_options(core::ExecutionMode mode) {
  return {.mode = mode,
          .cpu_threads = 3,
          .device = {.workers = 2, .warp_size = 32},
          .sources_per_unit = 16};
}

/// Flat key -> value cache of measured seconds, persisted as CSV so the
/// sibling figure binaries reuse one sweep.
class SweepCache {
 public:
  explicit SweepCache(std::string path) : path_(std::move(path)) {
    std::ifstream in(path_);
    std::string line;
    while (std::getline(in, line)) {
      const auto comma = line.rfind(',');
      if (comma == std::string::npos) continue;
      values_[line.substr(0, comma)] = std::stod(line.substr(comma + 1));
    }
  }

  /// Returns the cached value or measures it (and schedules a save).
  double get_or_measure(const std::string& key,
                        const std::function<double()>& measure) {
    const auto it = values_.find(key);
    if (it != values_.end()) return it->second;
    const double v = measure();
    values_[key] = v;
    dirty_ = true;
    return v;
  }

  void save() {
    if (!dirty_) return;
    std::ofstream out(path_);
    for (const auto& [k, v] : values_) {
      out << k << ',' << v << '\n';
    }
    dirty_ = false;
  }

  ~SweepCache() { save(); }

 private:
  std::string path_;
  std::map<std::string, double> values_;
  bool dirty_ = false;
};

/// Directory for cached sweeps, created on demand next to the binaries.
inline std::string sweep_path(const std::string& file) {
  std::filesystem::create_directories("bench_results");
  return "bench_results/" + file;
}

inline void print_rule(int width) {
  for (int i = 0; i < width; ++i) std::fputc('-', stdout);
  std::fputc('\n', stdout);
}

}  // namespace eardec::bench

/// Drop-in replacement for BENCHMARK_MAIN(): identical run loop, but the
/// whole run sits inside an ObservabilitySession so EARDEC_TRACE /
/// EARDEC_METRICS work for every bench binary. Only valid in files that
/// include <benchmark/benchmark.h>.
#define EARDEC_BENCH_MAIN()                                               \
  int main(int argc, char** argv) {                                       \
    const ::eardec::bench::ObservabilitySession eardec_bench_obs;         \
    ::benchmark::Initialize(&argc, argv);                                 \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;   \
    ::benchmark::RunSpecifiedBenchmarks();                                \
    ::benchmark::Shutdown();                                              \
    return 0;                                                             \
  }                                                                       \
  int main(int, char**)
