// Textbook Floyd–Warshall, the classical dense baseline the APSP
// literature (Buluc, Matsumoto, Katz — see the paper's related work) builds
// on. Here it is the independent oracle the APSP tests compare against.
#pragma once

#include "graph/graph.hpp"
#include "sssp/distance_matrix.hpp"

namespace eardec::testing {

/// Adjacency-seeded matrix: 0 diagonal, min parallel-edge weight elsewhere.
[[nodiscard]] sssp::DistanceMatrix adjacency_matrix(const graph::Graph& g);

/// Textbook O(n^3) Floyd–Warshall.
[[nodiscard]] sssp::DistanceMatrix floyd_warshall(const graph::Graph& g);

}  // namespace eardec::testing
