// The MCB sweep behind Table 2, Figure 5, and Figure 6: wall time of the
// four implementations (sequential, multicore, device, heterogeneous),
// each with and without ear decomposition, on the first seven Table-1
// datasets (the subset the paper's MCB experiments use). Measured once,
// cached in bench_results/mcb_sweep.csv. Smoke mode (CI) restricts the
// sweep to the two chain-rich datasets, bypasses the cache, and keeps the
// best of two repetitions so the JSON snapshot reflects the binary under
// test rather than a stale checkout.
#pragma once

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "graph/datasets.hpp"
#include "mcb/ear_mcb.hpp"

namespace eardec::bench {

struct McbRow {
  std::string graph;
  std::uint32_t n = 0;
  std::uint32_t m = 0;
  /// seconds[mode][0] = with ears, seconds[mode][1] = without.
  double seconds[4][2] = {};
};

inline mcb::McbOptions bench_mcb_options(core::ExecutionMode mode,
                                         bool with_ears) {
  return {.mode = mode,
          .cpu_threads = 3,
          .device = {.workers = 2, .warp_size = 32},
          .batch_size = 128,
          .use_ear_decomposition = with_ears};
}

/// Chain-rich subset used by smoke mode: high degree-2 fraction, so the
/// ear-contraction path lights up, and small
/// enough that two repetitions finish in CI seconds.
inline bool smoke_dataset(const std::string& name) {
  return name == "as-22july06" || name == "c-50";
}

inline std::vector<McbRow> run_mcb_sweep(bool smoke = false) {
  SweepCache cache(sweep_path("mcb_sweep.csv"));
  const int reps = smoke ? 2 : 3;
  std::vector<McbRow> rows;
  for (const auto& d : graph::datasets::mcb_seven()) {
    if (smoke && !smoke_dataset(d.name)) continue;
    const graph::Graph g = d.make_small();
    McbRow row;
    row.graph = d.name;
    row.n = g.num_vertices();
    row.m = g.num_edges();
    const auto& modes = implementation_modes();
    for (std::size_t m = 0; m < modes.size(); ++m) {
      for (const bool with_ears : {true, false}) {
        const std::string key = d.name + "/" + modes[m].name +
                                (with_ears ? "/w" : "/wo");
        const auto measure = [&] {
          double best = 1e100;
          for (int rep = 0; rep < reps; ++rep) {
            best = std::min(best, time_seconds([&] {
                     const auto r = mcb::minimum_cycle_basis(
                         g, bench_mcb_options(modes[m].mode, with_ears));
                     (void)r;
                   }));
          }
          return best;
        };
        // Smoke mode must measure the binary under test, never a stale
        // cache entry left behind by a previous revision.
        row.seconds[m][with_ears ? 0 : 1] =
            smoke ? measure() : cache.get_or_measure(key, measure);
      }
    }
    rows.push_back(std::move(row));
  }
  if (!smoke) cache.save();
  return rows;
}

/// Canonical machine-readable snapshot of the Table-2 sweep
/// (bench_results/table2_mcb.json). Mode keys are lowercase stable names;
/// per dataset we record graph size plus with/without-ears seconds so
/// successive PRs can diff both the heterogeneous speedup and the
/// Figure-5 ordering from one file.
inline void write_mcb_sweep_json(const std::vector<McbRow>& rows,
                                 bool smoke, const std::string& path) {
  static const char* kModeKeys[4] = {"sequential", "multicore", "device",
                                     "heterogeneous"};
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(out, "{\n");
  json_stamp(out);
  std::fprintf(out,
               "  \"smoke\": %s,\n  \"hardware_concurrency\": %u,\n"
               "  \"datasets\": {\n",
               smoke ? "true" : "false",
               std::thread::hardware_concurrency());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const McbRow& row = rows[r];
    std::fprintf(out, "    \"%s\": {\"n\": %u, \"m\": %u, \"modes\": {\n",
                 row.graph.c_str(), row.n, row.m);
    for (std::size_t m = 0; m < 4; ++m) {
      std::fprintf(out,
                   "      \"%s\": {\"with_ears_s\": %.6f, "
                   "\"without_ears_s\": %.6f}%s\n",
                   kModeKeys[m], row.seconds[m][0], row.seconds[m][1],
                   m + 1 < 4 ? "," : "");
    }
    std::fprintf(out, "    }}%s\n", r + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  }\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace eardec::bench
