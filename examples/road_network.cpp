// Road-network routing: planar graphs are full of degree-two vertices
// (road polylines between junctions), exactly the structure ear
// decomposition contracts. This example builds a synthetic road network
// (planar grid backbone + subdivided "roads"), preprocesses a distance
// oracle, answers routing queries, and reports how much smaller the
// reduced problem was.
//
// Usage: road_network [rows cols subdivisions]
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "core/ear_apsp.hpp"
#include "graph/generators.hpp"
#include "graph/stats.hpp"
#include "sssp/dijkstra.hpp"

int main(int argc, char** argv) {
  using namespace eardec;
  using Clock = std::chrono::steady_clock;

  const auto rows = static_cast<graph::VertexId>(argc > 1 ? std::atoi(argv[1]) : 14);
  const auto cols = static_cast<graph::VertexId>(argc > 2 ? std::atoi(argv[2]) : 16);
  const auto extra = static_cast<graph::VertexId>(argc > 3 ? std::atoi(argv[3]) : 400);

  // Junction backbone: a planar grid with diagonals and some dropped roads;
  // then every road gains intermediate waypoints (degree-two vertices).
  graph::Graph backbone =
      graph::generators::random_planar(rows, cols, 0.5, 0.15, /*seed=*/7);
  const graph::Graph roads = graph::generators::subdivide(backbone, extra, 8);

  const graph::GraphStats stats = graph::compute_stats(roads);
  std::printf("road network: %s\n", graph::to_string(stats).c_str());

  const auto t0 = Clock::now();
  const core::EarApspEngine oracle(
      roads,
      {.mode = core::ExecutionMode::Multicore, .cpu_threads = 4});
  const double build_s =
      std::chrono::duration<double>(Clock::now() - t0).count();

  std::printf("preprocessing: %.3fs; reduced SSSP runs %llu / %u vertices "
              "(%.1f%% of the work removed by ear contraction)\n",
              build_s, static_cast<unsigned long long>(oracle.sssp_runs()),
              roads.num_vertices(),
              100.0 * (1.0 - static_cast<double>(oracle.sssp_runs()) /
                                 roads.num_vertices()));
  std::printf("oracle memory: %.2f MB (paper layout %.2f MB, dense n^2 "
              "table %.2f MB)\n",
              oracle.memory().compact_mb(), oracle.memory().ours_mb(),
              oracle.memory().full_mb());

  // Routing queries, spot-validated against on-line Dijkstra.
  const graph::VertexId n = roads.num_vertices();
  for (const auto& [s, t] : {std::pair<graph::VertexId, graph::VertexId>{0, n - 1},
                            {n / 3, 2 * n / 3},
                            {1, n / 2}}) {
    const graph::Weight fast = oracle.query(s, t);
    const graph::Weight ref = sssp::dijkstra(roads, s).dist[t];
    std::printf("route %u -> %u: %.1f (check: %.1f)\n", s, t, fast, ref);
  }
  return 0;
}
