#include "testing/horton.hpp"

#include <algorithm>
#include <numeric>

#include "connectivity/dfs.hpp"
#include "sssp/dijkstra.hpp"

namespace eardec::testing {

using graph::EdgeId;
using graph::VertexId;
using graph::Weight;

namespace {

/// Edge set of the shortest path from the tree root to u (tree parents).
void append_path_edges(const sssp::ShortestPathTree& t, VertexId u,
                       std::vector<EdgeId>& out) {
  while (t.parent[u] != graph::kNullVertex) {
    out.push_back(t.parent_edge[u]);
    u = t.parent[u];
  }
}

/// XOR-reduces an edge multiset: edges appearing an odd number of times.
std::vector<EdgeId> xor_support(std::vector<EdgeId> edges) {
  std::sort(edges.begin(), edges.end());
  std::vector<EdgeId> out;
  for (std::size_t i = 0; i < edges.size();) {
    std::size_t j = i;
    while (j < edges.size() && edges[j] == edges[i]) ++j;
    if ((j - i) % 2 == 1) out.push_back(edges[i]);
    i = j;
  }
  return out;
}

}  // namespace

HortonResult horton_mcb(const graph::Graph& g) {
  HortonResult result;
  const mcb::SpanningTree tree = mcb::build_spanning_tree(g);
  const std::size_t f = tree.dimension();
  if (f == 0) return result;

  // Enumerate candidates.
  struct Candidate {
    Weight weight;
    std::vector<EdgeId> edges;
  };
  std::vector<Candidate> cands;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto sp = sssp::dijkstra(g, v);
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      const auto [x, y] = g.endpoints(e);
      if (sp.dist[x] == graph::kInfWeight || sp.dist[y] == graph::kInfWeight) {
        continue;
      }
      if (sp.parent_edge[x] == e || sp.parent_edge[y] == e) continue;
      ++result.candidates;
      std::vector<EdgeId> edges{e};
      append_path_edges(sp, x, edges);
      append_path_edges(sp, y, edges);
      auto support = xor_support(std::move(edges));
      if (support.empty()) continue;
      if (!mcb::is_simple_cycle(g, support)) continue;  // degenerate overlap
      const Weight w = mcb::cycle_weight(g, support);
      cands.push_back({w, std::move(support)});
    }
  }
  std::sort(cands.begin(), cands.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.weight < b.weight;
            });

  // Greedy independence via incremental Gaussian elimination: keep reduced
  // basis rows; a candidate is independent iff it reduces to non-zero.
  std::vector<mcb::BitVector> reduced_rows;
  std::vector<std::size_t> pivot_of;  // pivot bit of each reduced row
  for (const Candidate& cand : cands) {
    if (result.basis.size() == f) break;
    mcb::Cycle c{cand.edges, cand.weight};
    mcb::BitVector v = mcb::restricted_vector(c, tree);
    for (std::size_t r = 0; r < reduced_rows.size(); ++r) {
      if (v.get(pivot_of[r])) v.xor_assign(reduced_rows[r]);
    }
    if (!v.any()) continue;  // dependent
    std::size_t pivot = 0;
    while (!v.get(pivot)) ++pivot;
    reduced_rows.push_back(v);
    pivot_of.push_back(pivot);
    result.total_weight += cand.weight;
    result.basis.push_back(std::move(c));
  }
  return result;
}

}  // namespace eardec::testing
