// Horton's O(m^3 n)-style baseline [18]: enumerate candidate cycles
// C(v, e) = SP(v,u) + e + SP(v,w) over vertices v and edges e = (u, w),
// sort them by weight, and greedily keep the independent ones (Gaussian
// elimination over GF(2)) until the basis is complete. The first
// polynomial-time MCB algorithm, kept here as the reference the faster
// implementations are validated against.
#pragma once

#include <vector>

#include "graph/graph.hpp"
#include "mcb/cycle.hpp"

namespace eardec::testing {

struct HortonResult {
  std::vector<mcb::Cycle> basis;
  graph::Weight total_weight = 0;
  /// Candidates enumerated before filtering (the n*(m-n+1) of the paper).
  std::size_t candidates = 0;
};

/// Exact MCB by Horton's method. Intended for modest graphs; superquadratic
/// time and memory.
[[nodiscard]] HortonResult horton_mcb(const graph::Graph& g);

}  // namespace eardec::testing
