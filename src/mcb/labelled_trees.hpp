// Labelled shortest-path trees — the Mehlhorn–Michail machinery [29] the
// paper parallelizes (Algorithm 3). For each FVS vertex z we keep the
// Dijkstra tree T_z. Given the current witness S, two passes per tree
// compute l_z(u) = <path_z(u), S>; then any candidate cycle C_ze can be
// tested for non-orthogonality to S in O(1):
//   <C_ze, S> = l_z(u) ⊕ l_z(v) ⊕ (e ∈ E' ? S(e) : 0).
//
// The relabel pass consumes the witness through its sparse support list
// when one is available: each tree pre-extracts its "crossing slots" (the
// parent edges that are non-tree edges of the global spanning tree, keyed
// by non-tree index), so a witness with k set bits relabels a tree in
// O(k log |slots|) instead of O(n) — and a tree no witness bit touches is
// skipped outright (its labels are identically zero).
#pragma once

#include <vector>

#include "graph/graph.hpp"
#include "mcb/cycle.hpp"
#include "mcb/gf2.hpp"
#include "mcb/spanning_tree.hpp"
#include "mcb/witness_matrix.hpp"

namespace eardec::mcb {

/// One rooted shortest-path tree.
struct LabelledTree {
  VertexId root = 0;
  std::vector<VertexId> parent;
  std::vector<EdgeId> parent_edge;
  std::vector<Weight> dist;
  /// Vertices in parent-before-child order (root first; unreachable
  /// vertices excluded).
  std::vector<VertexId> order;
  /// Parent edges that are non-tree edges of the global spanning tree:
  /// (non-tree index, child vertex), sorted by index. Pass 1 of Algorithm 3
  /// only ever sets c_z at these vertices.
  std::vector<std::pair<std::uint32_t, VertexId>> crossing_slots;
};

/// A candidate cycle C_ze: non-tree edge e of T_z, with z the LCA of e's
/// endpoints in T_z (the Mehlhorn–Michail pruning). Endpoints and the
/// global non-tree index are cached so the batched scan reads one
/// contiguous candidate stream instead of chasing the edge arrays.
struct McbCandidate {
  std::uint32_t tree = 0;  ///< index into LabelledTrees::trees
  EdgeId edge = graph::kNullEdge;
  Weight weight = 0;
  VertexId u = 0;  ///< endpoints of `edge` (cached from the graph)
  VertexId v = 0;
  std::uint32_t sign_index = kNotNonTree;  ///< non-tree index, or sentinel
};

class LabelledTrees {
 public:
  /// Builds the Dijkstra trees from every vertex of `fvs` and enumerates
  /// the candidate set A, sorted by weight.
  LabelledTrees(const Graph& g, const SpanningTree& tree,
                std::vector<VertexId> fvs);

  [[nodiscard]] std::size_t num_trees() const { return trees_.size(); }
  [[nodiscard]] const std::vector<McbCandidate>& candidates() const {
    return candidates_;
  }

  /// Recomputes the labels of tree `t` for witness S (Algorithm 3's two
  /// passes). Each tree is independent — callers parallelize over trees.
  void relabel_tree(std::size_t t, const WitnessView& s);

  /// Batched serial scan: the position in `ids` of the first candidate that
  /// is odd against S (O(1) each: l_z(u) ^ l_z(v) ^ S(e), against the
  /// witness of the last relabel of the candidate's tree), or `count` when
  /// none is. One tight loop with the label base and witness words hoisted
  /// out; the search phase runs it in every mode and exits mid-batch on
  /// the first hit.
  [[nodiscard]] std::size_t first_odd(const std::uint32_t* ids,
                                      std::size_t count,
                                      const WitnessView& s) const;

  /// Materializes the cycle of a candidate: e plus the two tree paths.
  [[nodiscard]] Cycle materialize(const McbCandidate& c) const;

 private:
  const Graph& g_;
  const SpanningTree& tree_;
  std::vector<LabelledTree> trees_;
  std::vector<McbCandidate> candidates_;
  /// l_z(u) for all trees, flattened: labels_[t * n + u]. One allocation,
  /// and per-phase relabels stay in the same hot pages.
  std::vector<std::uint8_t> labels_;
  /// all_zero_[t]: the current witness sets no bit on tree t's crossing
  /// slots, so every label of t is 0 and pass 2 was skipped.
  std::vector<std::uint8_t> all_zero_;
};

}  // namespace eardec::mcb
