// Metamorphic invariants: relations between the outputs on an input graph
// and on a structure-preserving transformation of it. Unlike the
// differential oracles these need no reference implementation — the
// pipeline is compared against itself across vertex relabeling, uniform
// weight scaling, and edge subdivision, so they stay cheap enough to run
// on every family at every seed.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "testing/oracles.hpp"  // CheckResult

namespace eardec::testing {

using graph::EdgeId;
using graph::Graph;
using graph::VertexId;
using graph::Weight;

// ------------------------------------------------------------- transforms

/// Relabels vertex v as to_new[v], keeping edge ids and weights. Throws
/// std::invalid_argument unless to_new is a permutation of [0, n).
[[nodiscard]] Graph reorder_with(const Graph& g,
                                 const std::vector<VertexId>& to_new);

/// Relabels vertices by a seed-derived random permutation.
[[nodiscard]] Graph relabel_vertices(const Graph& g, std::uint64_t seed);

/// Multiplies every edge weight by `factor` (factor > 0).
[[nodiscard]] Graph scale_weights(const Graph& g, Weight factor);

/// Replaces edge e = {u, v} of weight w by {u, x} and {x, v} with weights
/// w * t and w * (1 - t) through a fresh vertex x = n. Subdividing a
/// self-loop yields a parallel pair, which is the correct cycle-space
/// picture. `t` in [0, 1].
[[nodiscard]] Graph subdivide_edge(const Graph& g, EdgeId e, double t);

// ------------------------------------------------------------- invariants

/// Relabeling invariance: distances map through the permutation; MCB
/// weight and dimension are unchanged. The MCB half is skipped when the
/// cycle space dimension exceeds `mcb_dim_limit` (0 = never skip).
[[nodiscard]] CheckResult check_relabel_invariance(const Graph& g,
                                                   std::uint64_t seed,
                                                   std::size_t mcb_dim_limit);

/// Uniform scaling: every distance and the MCB total weight scale by the
/// same factor; MCB dimension is unchanged. The factor is seed-derived
/// from {0.5, 2, 3.25, 10}.
[[nodiscard]] CheckResult check_scale_linearity(const Graph& g,
                                                std::uint64_t seed,
                                                std::size_t mcb_dim_limit);

/// Edge subdivision: all original-pair distances and the MCB total weight
/// and dimension are unchanged (the subdivided edge's cycle gains length
/// but not weight). The edge and split fraction are seed-derived.
[[nodiscard]] CheckResult check_subdivision_invariance(
    const Graph& g, std::uint64_t seed, std::size_t mcb_dim_limit);

}  // namespace eardec::testing
