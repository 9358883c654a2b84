// Differential oracles: run the ear-decomposition pipeline against an
// independent reference implementation on the same input and report the
// first discrepancy. A check returns std::nullopt on success or a
// human-readable failure message; messages carry the offending pair /
// quantity so shrunken counterexamples stay diagnosable.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "core/ear_apsp.hpp"
#include "graph/graph.hpp"

namespace eardec::testing {

using graph::Graph;

/// std::nullopt = property holds; otherwise the failure description.
using CheckResult = std::optional<std::string>;

/// Absolute comparison slack for distances computed on g. The pipeline's
/// chain bookkeeping derives one chain direction by subtracting prefix sums
/// from the chain total, so on graphs mixing weight magnitudes (1e-9 next
/// to 1e12) a distance can lose up to ~m ulps of the heaviest path weight
/// to catastrophic cancellation. (64 + m) * eps * sum(w) bounds that while
/// staying far below any genuine algorithmic error, which is at least the
/// weight of some mis-handled edge.
[[nodiscard]] graph::Weight distance_tolerance(const Graph& g);

/// a ~ b under a 1e-9 relative band plus the abs_tol absolute band.
/// Exact equality short-circuits, covering +inf == +inf (both unreachable).
[[nodiscard]] bool weights_close(graph::Weight a, graph::Weight b,
                                 graph::Weight abs_tol);

/// DistanceOracle (compact queries) and EarApspEngine::distances_from rows
/// against a per-source reference Dijkstra, every source. Uses the options'
/// execution mode (Sequential unless fault injection overrides it).
[[nodiscard]] CheckResult check_apsp_vs_dijkstra(
    const Graph& g, const core::ApspOptions& options);

/// ear_apsp_matrix (the paper-faithful materialized product) against plain
/// Floyd-Warshall, all n^2 entries.
[[nodiscard]] CheckResult check_apsp_vs_floyd_warshall(const Graph& g);

/// Ear-contracted MCB (weight, dimension, basis validity) against Horton's
/// baseline. Horton's candidate-set argument assumes generic weights, so
/// the runner skips degenerate-weight families for this check.
[[nodiscard]] CheckResult check_mcb_vs_horton(const Graph& g);

/// Ear-contracted MCB against De Pina's witness algorithm, plus the
/// Lemma 3.1 invariance: with/without ear contraction must agree.
[[nodiscard]] CheckResult check_mcb_vs_depina(const Graph& g);

/// The GF(2)-overhaul differential: the optimized bit-sliced De Pina
/// (WitnessMatrix, sparse supports, range early-exit) must be bit-for-bit
/// identical — dimension, total weight, and every cycle's edge set — to
/// the preserved pre-overhaul scalar loop (depina_mcb_reference). Also
/// pins the Mehlhorn–Michail driver's dimension and weight to the same
/// reference. Runs on every family, multigraph and degenerate weights
/// included (the kernels are weight-agnostic).
[[nodiscard]] CheckResult check_depina_vs_scalar_reference(const Graph& g);

/// The serving layer's differential: every (s, t) pair answered through
/// OracleServer's scalar path and its batched path on a Sequential-built
/// and a Multicore-built snapshot. Scalar answers are compared against
/// per-source Dijkstra under the tolerance; the three serve paths are
/// compared against *each other* bit for bit — the serving determinism
/// contract. `seed` shuffles the batch order, so batch composition is
/// exercised as irrelevant.
[[nodiscard]] CheckResult check_served_queries_vs_dijkstra(const Graph& g,
                                                           std::uint64_t seed);

/// Intentionally broken differential check used to validate the harness
/// end-to-end (acceptance: the bug must be caught and shrunk to <= 10
/// vertices). The "implementation under test" is a Dijkstra variant that
/// relaxes only the first adjacency entry per distinct neighbour — i.e. it
/// ignores all but the first-added parallel edge, the classic bug the
/// Builder KeepMinWeight policy exists to prevent. It disagrees with the
/// real Dijkstra exactly when a later-added parallel edge is lighter and
/// lies on some shortest path.
[[nodiscard]] CheckResult check_injected_parallel_bug(const Graph& g);

}  // namespace eardec::testing
