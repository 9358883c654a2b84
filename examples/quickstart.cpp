// Quickstart: the two flagship APIs in ~60 lines.
//
//   1. core::EarApspEngine — exact all-pairs shortest-path queries after
//      an ear-decomposition preprocessing pass.
//   2. mcb::minimum_cycle_basis — minimum-weight cycle basis through the
//      same reduction.
//
// Build & run:  cmake --build build && ./build/examples/quickstart
#include <cstdio>

#include "core/ear_apsp.hpp"
#include "graph/builder.hpp"
#include "mcb/ear_mcb.hpp"

int main() {
  using namespace eardec;

  // A small weighted graph: two cycles sharing an articulation point (3),
  // with degree-two chain vertices (1, 2 and 5) the library contracts away.
  //
  //   0 --1-- 1 --1-- 2 --1-- 3 --2-- 4 --2-- 5 --2-- 3,  0 --5-- 3
  graph::Builder b(6);
  b.add_edge(0, 1, 1.0);
  b.add_edge(1, 2, 1.0);
  b.add_edge(2, 3, 1.0);
  b.add_edge(0, 3, 5.0);
  b.add_edge(3, 4, 2.0);
  b.add_edge(4, 5, 2.0);
  b.add_edge(5, 3, 2.0);
  const graph::Graph g = std::move(b).build();

  // --- All-pairs shortest paths ------------------------------------------
  const core::EarApspEngine oracle(
      g, {.mode = core::ExecutionMode::Sequential});
  std::printf("distance(0, 4) = %.1f  (0-1-2-3-4)\n", oracle.query(0, 4));
  std::printf("distance(1, 5) = %.1f\n", oracle.query(1, 5));

  std::printf("biconnected components: %u, SSSP runs after reduction: %llu "
              "(of %u vertices)\n",
              oracle.num_components(),
              static_cast<unsigned long long>(oracle.sssp_runs()),
              g.num_vertices());

  // --- Minimum cycle basis ------------------------------------------------
  const mcb::McbResult basis = mcb::minimum_cycle_basis(
      g, {.mode = core::ExecutionMode::Sequential});
  std::printf("cycle basis: %zu cycles, total weight %.1f\n",
              basis.basis.size(), basis.total_weight);
  for (std::size_t i = 0; i < basis.basis.size(); ++i) {
    std::printf("  cycle %zu: %zu edges, weight %.1f\n", i,
                basis.basis[i].edges.size(), basis.basis[i].weight);
  }
  return 0;
}
