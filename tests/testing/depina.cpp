#include "testing/depina.hpp"

#include <stdexcept>

#include "mcb/signed_graph.hpp"
#include "mcb/witness_matrix.hpp"

namespace eardec::testing {

using graph::Graph;
using mcb::BitVector;
using mcb::Gf2KernelStats;
using mcb::SpanningTree;
using mcb::WitnessMatrix;
using mcb::build_spanning_tree;
using mcb::min_odd_cycle;
using mcb::restricted_vector;

DePinaResult depina_mcb(const Graph& g) {
  DePinaResult result;
  const SpanningTree tree = build_spanning_tree(g);
  const std::size_t f = tree.dimension();
  if (f == 0) return result;

  WitnessMatrix witness(f);
  Gf2KernelStats gf2;

  for (std::size_t i = 0; i < f; ++i) {
    auto cycle = min_odd_cycle(g, tree, witness.view(i));
    if (!cycle) {
      throw std::logic_error("depina_mcb: no odd cycle found for a witness");
    }
    const BitVector ci = restricted_vector(*cycle, tree);
    // Independence test: make later witnesses orthogonal to C_i. The
    // blocked pass skips the self-pair and early-exits when C_i's word
    // range misses every remaining witness.
    gf2.accumulate(witness.orthogonalize(i, ci, i + 1, f));
#ifdef EARDEC_SANITIZE_BUILD
    // Post-loop invariant: every remaining witness is orthogonal to C_i.
    for (std::size_t j = i + 1; j < f; ++j) {
      if (witness.dot(j, ci)) {
        throw std::logic_error(
            "depina_mcb: witness orthogonality invariant violated");
      }
    }
#endif
    result.total_weight += cycle->weight;
    result.basis.push_back(std::move(*cycle));
  }
  gf2.export_to_metrics();
  return result;
}

DePinaResult depina_mcb_reference(const Graph& g) {
  DePinaResult result;
  const SpanningTree tree = build_spanning_tree(g);
  const std::size_t f = tree.dimension();
  if (f == 0) return result;

  std::vector<BitVector> witness;
  witness.reserve(f);
  for (std::size_t i = 0; i < f; ++i) witness.push_back(BitVector::unit(f, i));

  for (std::size_t i = 0; i < f; ++i) {
    auto cycle = min_odd_cycle(g, tree, witness[i]);
    if (!cycle) {
      throw std::logic_error(
          "depina_mcb_reference: no odd cycle found for a witness");
    }
    const BitVector ci = restricted_vector(*cycle, tree);
    // Independence test: make later witnesses orthogonal to C_i.
    for (std::size_t j = i + 1; j < f; ++j) {
      if (ci.dot(witness[j])) witness[j].xor_assign(witness[i]);
    }
    result.total_weight += cycle->weight;
    result.basis.push_back(std::move(*cycle));
  }
  return result;
}

}  // namespace eardec::testing
