// De Pina's witness algorithm [11] (paper Algorithm 2), sequential
// reference implementation. Each of the f phases finds the minimum-weight
// cycle non-orthogonal to the current witness via the signed-graph search,
// then restores orthogonality of the remaining witnesses. Exact for any
// non-negative weighting; the test oracle the faster Mehlhorn–Michail
// pipeline is validated against. (Table 2's "Sequential" column runs
// minimum_cycle_basis in Sequential mode, not this.)
//
// Two drivers share the phase structure:
//   * depina_mcb           — the bit-sliced WitnessMatrix path (blocked
//     orthogonalization, word-range early-exit, sparse supports);
//   * depina_mcb_reference — the pre-overhaul one-BitVector-at-a-time
//     scalar loop, kept verbatim as the differential-fuzz oracle for the
//     optimized kernels (tests/testing/oracles.cpp).
// Both are exact and must produce bit-for-bit identical bases.
#pragma once

#include <vector>

#include "graph/graph.hpp"
#include "mcb/cycle.hpp"

namespace eardec::testing {

struct DePinaResult {
  std::vector<mcb::Cycle> basis;
  graph::Weight total_weight = 0;
};

/// Exact MCB by De Pina's method. Throws std::logic_error if a phase finds
/// no odd cycle (impossible for a well-formed input; guards corruption).
[[nodiscard]] DePinaResult depina_mcb(const graph::Graph& g);

/// The pre-overhaul scalar loop (std::vector<BitVector> witnesses,
/// per-vector dot/xor). Slow; exists only as the differential oracle.
[[nodiscard]] DePinaResult depina_mcb_reference(const graph::Graph& g);

}  // namespace eardec::testing
