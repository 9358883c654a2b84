// De Pina's witness algorithm [11] (paper Algorithm 2), sequential
// reference implementation. Each of the f phases finds the minimum-weight
// cycle non-orthogonal to the current witness via the signed-graph search,
// then restores orthogonality of the remaining witnesses. Exact for any
// non-negative weighting; used to validate the faster Mehlhorn–Michail
// pipeline and as the "Sequential" column of Table 2.
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

namespace eardec::mcb {

struct DePinaResult {
  std::vector<Cycle> basis;
  Weight total_weight = 0;
};

/// Exact MCB by De Pina's method. Throws std::logic_error if a phase finds
/// no odd cycle (impossible for a well-formed input; guards corruption).
[[nodiscard]] DePinaResult depina_mcb(const Graph& g);

/// The pre-overhaul scalar loop (std::vector<BitVector> witnesses,
/// per-vector dot/xor). Slow; exists only as the differential oracle.
[[nodiscard]] DePinaResult depina_mcb_reference(const Graph& g);

}  // namespace eardec::mcb
