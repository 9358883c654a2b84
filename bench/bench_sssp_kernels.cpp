// SSSP/APSP kernel comparison on the kind of reduced graphs phase II
// actually processes: binary-heap Dijkstra (the paper's CPU kernel), the
// batched multi-source kernel, delta-stepping (workspace form, fanned out
// over a shared pool) and the device frontier kernel (Harish–Narayanan).
//
// Besides the google-benchmark timings, the binary always emits a
// machine-readable ablation into bench_results/sssp_kernels.json: full
// source sweeps per (graph, kernel, batch width k) cell, with per-source
// throughput and the multi-source frontier-round counts. This is the
// evidence behind phase II's per-unit kernel thresholds (docs/sssp_perf.md)
// — the batched kernel must beat per-source Dijkstra from k >= 4 on the
// large reduced components. The snapshot's cells are too coarse for the
// small components those thresholds sit at, so the BM_Crossover* pairs time
// single units there (`--benchmark_filter=Crossover`). One more cell times
// the block that dominates Phase II: the largest reduced block of
// table1_scale(20000, 1) at the default unit width k = 16, stored as
// TriangleMatrix heads like Phase II stores S^r (table1_scale(2000, 1)
// under --smoke). `--smoke` shrinks the sweep for the CI gate
// (tools/check_bench_smoke.py validates the snapshot's shape) and runs no
// google-benchmark timings.
#include <algorithm>
#include <cstring>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_common.hpp"

#include "core/ear_apsp.hpp"
#include "graph/datasets.hpp"
#include "graph/generators.hpp"
#include "reduce/reduced_graph.hpp"
#include "sssp/delta_stepping.hpp"
#include "sssp/distance_matrix.hpp"
#include "sssp/dijkstra.hpp"
#include "sssp/frontier_sssp.hpp"
#include "sssp/multi_source.hpp"

namespace {

using namespace eardec;

/// The reduced graph of the c-50 stand-in — the exact workload the
/// processing phase hands to the kernels.
const graph::Graph& reduced_graph() {
  static const graph::Graph g = [] {
    const graph::Graph full = graph::datasets::by_name("c-50").make();
    return reduce::ReducedGraph(full, reduce::ReduceMode::ForApsp).graph();
  }();
  return g;
}

/// Shared pool for the parallel kernel paths (sized like the phase-II
/// drain: bench_apsp_options' cpu_threads).
hetero::ThreadPool& shared_pool() {
  static hetero::ThreadPool pool(3);
  return pool;
}

void BM_DijkstraSweep(benchmark::State& state) {
  const auto& g = reduced_graph();
  sssp::DijkstraWorkspace ws(g.num_vertices());
  std::vector<graph::Weight> dist(g.num_vertices());
  for (auto _ : state) {
    for (graph::VertexId s = 0; s < g.num_vertices(); s += 8) {
      ws.distances(g, s, dist);
    }
    benchmark::DoNotOptimize(dist.data());
  }
}

void BM_MultiSourceSweep(benchmark::State& state) {
  const auto& g = reduced_graph();
  const auto k = static_cast<std::uint32_t>(state.range(0));
  sssp::MultiSourceWorkspace ws(g.num_vertices(), k);
  sssp::DistanceMatrix out(g.num_vertices());
  for (auto _ : state) {
    for (graph::VertexId s = 0; s < g.num_vertices(); s += k) {
      ws.distances(g, s, std::min<graph::VertexId>(s + k, g.num_vertices()),
                   out);
    }
    benchmark::DoNotOptimize(out.row(0).data());
  }
}

void BM_FrontierSweep(benchmark::State& state) {
  const auto& g = reduced_graph();
  hetero::Device dev({.workers = 2, .warp_size = 32});
  sssp::FrontierWorkspace ws(g.num_vertices());
  std::vector<graph::Weight> dist(g.num_vertices());
  for (auto _ : state) {
    for (graph::VertexId s = 0; s < g.num_vertices(); s += 8) {
      ws.distances(g, s, dev, dist);
    }
    benchmark::DoNotOptimize(dist.data());
  }
}

void BM_DeltaSteppingSweep(benchmark::State& state) {
  const auto& g = reduced_graph();
  // Workspace + shared pool: the per-call atomics allocation of the old
  // free-function form is gone and the light-edge rounds exercise the
  // per-slot request buffers (the path the phase-II device driver uses).
  hetero::ThreadPool* pool = state.range(0) != 0 ? &shared_pool() : nullptr;
  sssp::DeltaSteppingWorkspace ws(g.num_vertices());
  std::vector<graph::Weight> dist(g.num_vertices());
  for (auto _ : state) {
    for (graph::VertexId s = 0; s < g.num_vertices(); s += 8) {
      ws.distances(g, s, dist, 0, pool);
    }
    benchmark::DoNotOptimize(dist.data());
  }
}

// Crossover of phase II's per-unit kernel rule (docs/sssp_perf.md): one
// unit of k sources on a component of n vertices, each source's row kept as
// its TriangleMatrix head, as phase II stores it. Compare items_per_second
// (sources per second) of the two kernels cell by cell.
graph::Graph crossover_graph(const benchmark::State& state) {
  const auto n = static_cast<graph::VertexId>(state.range(0));
  return graph::generators::random_biconnected(n, n * 2 + n / 2, 9);
}

void BM_CrossoverDijkstra(benchmark::State& state) {
  const graph::Graph g = crossover_graph(state);
  const graph::VertexId n = g.num_vertices();
  const auto k = static_cast<graph::VertexId>(state.range(1));
  sssp::DijkstraWorkspace ws(n);
  std::vector<graph::Weight> row(n);
  sssp::TriangleMatrix out(n);
  for (auto _ : state) {
    for (graph::VertexId s = 0; s < k; ++s) {
      ws.distances(g, s, row);
      const std::span<graph::Weight> head = out.head(s);
      std::copy_n(row.begin(), head.size(), head.begin());
    }
    benchmark::DoNotOptimize(out.head(0).data());
  }
  state.SetItemsProcessed(state.iterations() * k);
}

void BM_CrossoverMultiSource(benchmark::State& state) {
  const graph::Graph g = crossover_graph(state);
  const graph::VertexId n = g.num_vertices();
  const auto k = static_cast<graph::VertexId>(state.range(1));
  sssp::MultiSourceWorkspace ws(n, k);
  sssp::TriangleMatrix out(n);
  for (auto _ : state) {
    ws.distances(g, 0, k, out);
    benchmark::DoNotOptimize(out.head(0).data());
  }
  state.SetItemsProcessed(state.iterations() * k);
}

void crossover_cells(benchmark::internal::Benchmark* b) {
  for (const int n : {8, 12, 16, 24, 32, 48, 96, 330}) {
    for (const int k : {1, 2, 3, 4, 8, 16}) {
      if (k <= n) b->Args({n, k});
    }
  }
}

BENCHMARK(BM_DijkstraSweep)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_MultiSourceSweep)->Arg(4)->Arg(16)->Arg(32)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FrontierSweep)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DeltaSteppingSweep)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CrossoverDijkstra)->Apply(crossover_cells);
BENCHMARK(BM_CrossoverMultiSource)->Apply(crossover_cells);

// ---------------------------------------------------------------------------
// JSON ablation: kernel x batch width x reduced-component size.

struct Cell {
  std::string graph;
  graph::VertexId n = 0;
  graph::EdgeId m = 0;
  const char* kernel = "";
  std::uint32_t k = 1;
  double seconds = 0;        ///< best-of-reps full source sweep
  double sources_per_s = 0;
  std::uint32_t rounds = 0;  ///< multi-source frontier rounds (last batch)
};

/// Best-of-`reps` wall clock of `sweep` (which must cover all n sources).
double best_seconds(int reps, const std::function<void()>& sweep) {
  double best = 1e100;
  for (int r = 0; r < reps; ++r) {
    best = std::min(best, eardec::bench::time_seconds(sweep));
  }
  return best;
}

void measure_graph(const std::string& name, const graph::Graph& g, bool smoke,
                   std::vector<Cell>& cells) {
  const graph::VertexId n = g.num_vertices();
  if (n == 0) return;
  const int reps = smoke ? 2 : 3;
  const auto add = [&](const char* kernel, std::uint32_t k, double seconds,
                       std::uint32_t rounds) {
    cells.push_back({name, n, g.num_edges(), kernel, k, seconds,
                     seconds > 0 ? static_cast<double>(n) / seconds : 0.0,
                     rounds});
  };

  {
    EARDEC_TRACE_SCOPE("apsp.sssp_block");
    sssp::DijkstraWorkspace ws(n);
    std::vector<graph::Weight> dist(n);
    add("dijkstra", 1, best_seconds(reps, [&] {
          for (graph::VertexId s = 0; s < n; ++s) ws.distances(g, s, dist);
        }),
        0);
  }
  {
    EARDEC_TRACE_SCOPE("apsp.sssp_block");
    sssp::DeltaSteppingWorkspace ws(n);
    std::vector<graph::Weight> dist(n);
    add("delta", 1, best_seconds(reps, [&] {
          for (graph::VertexId s = 0; s < n; ++s) {
            ws.distances(g, s, dist, 0, &shared_pool());
          }
        }),
        0);
  }
  sssp::MultiSourceWorkspace ws;
  sssp::DistanceMatrix out(n);
  const std::vector<std::uint32_t> widths =
      smoke ? std::vector<std::uint32_t>{1, 4, 8}
            : std::vector<std::uint32_t>{1, 4, 8, 16, 32};
  for (const std::uint32_t k : widths) {
    EARDEC_TRACE_SCOPE("apsp.sssp_block");
    ws.ensure(n, k);
    // Sequence the measurement before reading last_rounds(): function
    // argument evaluation order would otherwise be free to read it first.
    const double seconds = best_seconds(reps, [&] {
      for (graph::VertexId s = 0; s < n; s += k) {
        ws.distances(g, s, std::min<graph::VertexId>(s + k, n), out);
      }
    });
    add("multi_source", k, seconds, ws.last_rounds());
  }
}

/// The largest reduced block of table1_scale(n, 1), as the engine's Phase I
/// hands it to Phase II.
graph::Graph largest_reduced_block(graph::VertexId n) {
  const core::EarApspEngine engine(graph::generators::table1_scale(n, 1),
                                   {.mode = core::ExecutionMode::Multicore});
  std::uint32_t largest = 0;
  for (std::uint32_t c = 1; c < engine.num_components(); ++c) {
    if (engine.reduced(c).graph().num_vertices() >
        engine.reduced(largest).graph().num_vertices()) {
      largest = c;
    }
  }
  return engine.reduced(largest).graph();
}

/// The Phase II cell: every source of the largest reduced block of
/// table1_scale(scale, 1), in units of 16 as Phase II cuts them, each row
/// kept as its TriangleMatrix head. `rounds` is the last unit's.
void measure_largest_block(graph::VertexId scale, std::vector<Cell>& cells) {
  constexpr std::uint32_t k = 16;
  const graph::Graph g = largest_reduced_block(scale);
  const graph::VertexId n = g.num_vertices();
  sssp::MultiSourceWorkspace ws(n, k);
  sssp::TriangleMatrix out(n);
  EARDEC_TRACE_SCOPE("apsp.sssp_block");
  const double seconds = best_seconds(3, [&] {
    for (graph::VertexId s = 0; s < n; s += k) {
      ws.distances(g, s, std::min<graph::VertexId>(s + k, n), out);
    }
  });
  const std::string name =
      "table1_scale" + std::to_string(scale) + "_largest_reduced";
  cells.push_back({name, n, g.num_edges(), "multi_source", k, seconds,
                   static_cast<double>(n) / seconds, ws.last_rounds()});
  std::printf("%s: n=%u m=%u k=%u: %.1f us per source, %u rounds\n",
              name.c_str(), n, g.num_edges(), k, seconds * 1e6 / n,
              ws.last_rounds());
}

void emit_json(bool smoke) {
  std::vector<Cell> cells;
  measure_graph("c50_reduced", reduced_graph(), smoke, cells);
  {
    // Dense-chain synthetic: a subdivided biconnected graph reduced for
    // APSP — the dominant-component shape where phase II's per-unit rule
    // must pick the batched kernel.
    const graph::Graph base = graph::generators::random_biconnected(
        smoke ? 160 : 700, smoke ? 400 : 1800, 5);
    const graph::Graph full =
        graph::generators::subdivide(base, smoke ? 300 : 1400, 6);
    const graph::Graph g =
        reduce::ReducedGraph(full, reduce::ReduceMode::ForApsp).graph();
    measure_graph("biconnected_reduced", g, smoke, cells);
  }
  measure_largest_block(smoke ? 2000 : 20000, cells);
  if (!smoke) {
    // Small-component regime: where per-source Dijkstra should stay ahead
    // and the selector's floor (kAutoMultiSourceMinVertices) comes from.
    const graph::Graph g = graph::generators::random_biconnected(16, 32, 9);
    measure_graph("small_component", g, smoke, cells);
  }

  std::filesystem::create_directories("bench_results");
  std::FILE* out = std::fopen("bench_results/sssp_kernels.json", "w");
  if (out == nullptr) return;
  std::fprintf(out, "{\n");
  eardec::bench::json_stamp(out);
  std::fprintf(out, "  \"smoke\": %s,\n  \"cells\": [\n",
               smoke ? "true" : "false");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    std::fprintf(out,
                 "    {\"graph\": \"%s\", \"n\": %u, \"m\": %u, "
                 "\"kernel\": \"%s\", \"k\": %u, \"seconds\": %.6f, "
                 "\"sources_per_s\": %.1f, \"rounds\": %u}%s\n",
                 c.graph.c_str(), c.n, c.m, c.kernel, c.k, c.seconds,
                 c.sources_per_s, c.rounds, i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote bench_results/sssp_kernels.json (%zu cells)\n",
              cells.size());
}

}  // namespace

int main(int argc, char** argv) {
  const eardec::bench::ObservabilitySession obs;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
      // Consume the flag so google-benchmark doesn't reject it.
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
      break;
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  if (!smoke) benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  emit_json(smoke);
  return 0;
}
