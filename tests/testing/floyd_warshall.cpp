#include "testing/floyd_warshall.hpp"

namespace eardec::testing {

using graph::Graph;
using graph::VertexId;
using graph::Weight;
using sssp::DistanceMatrix;

DistanceMatrix adjacency_matrix(const Graph& g) {
  DistanceMatrix d(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) d.at(v, v) = 0;
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto [u, v] = g.endpoints(e);
    const Weight w = g.weight(e);
    if (w < d.at(u, v)) {
      d.at(u, v) = w;
      d.at(v, u) = w;
    }
  }
  return d;
}

DistanceMatrix floyd_warshall(const Graph& g) {
  DistanceMatrix d = adjacency_matrix(g);
  const VertexId n = d.size();
  for (VertexId k = 0; k < n; ++k) {
    for (VertexId i = 0; i < n; ++i) {
      const Weight dik = d.at(i, k);
      if (dik == graph::kInfWeight) continue;
      const auto row_k = d.row(k);
      const auto row_i = d.row(i);
      for (VertexId j = 0; j < n; ++j) {
        const Weight cand = dik + row_k[j];
        if (cand < row_i[j]) row_i[j] = cand;
      }
    }
  }
  return d;
}

}  // namespace eardec::testing
