#include "mcb/labelled_trees.hpp"

#include <algorithm>
#include <stdexcept>

#include "sssp/dijkstra.hpp"

namespace eardec::mcb {

LabelledTrees::LabelledTrees(const Graph& g, const SpanningTree& tree,
                             std::vector<VertexId> fvs)
    : g_(g), tree_(tree) {
  const VertexId n = g.num_vertices();
  trees_.reserve(fvs.size());
  std::vector<std::uint32_t> depth(n);

  for (const VertexId z : fvs) {
    auto sp = sssp::dijkstra(g, z);
    LabelledTree lt;
    lt.root = z;
    lt.parent = std::move(sp.parent);
    lt.parent_edge = std::move(sp.parent_edge);
    lt.dist = std::move(sp.dist);

    // Parent-before-child order via BFS over the tree's children lists.
    std::vector<std::vector<VertexId>> children(n);
    for (VertexId v = 0; v < n; ++v) {
      if (lt.parent[v] != graph::kNullVertex) {
        children[lt.parent[v]].push_back(v);
      }
    }
    lt.order.reserve(n);
    lt.order.push_back(z);
    depth[z] = 0;
    for (std::size_t i = 0; i < lt.order.size(); ++i) {
      const VertexId v = lt.order[i];
      for (const VertexId c : children[v]) {
        depth[c] = depth[v] + 1;
        lt.order.push_back(c);
      }
    }

    // Crossing slots: the only vertices pass 1 can ever mark. Sorted by
    // non-tree index so a sparse witness can binary-search its support.
    for (const VertexId u : lt.order) {
      const EdgeId pe = lt.parent_edge[u];
      if (pe == graph::kNullEdge) continue;
      const std::uint32_t idx = tree.non_tree_index[pe];
      if (idx != kNotNonTree) lt.crossing_slots.emplace_back(idx, u);
    }
    std::sort(lt.crossing_slots.begin(), lt.crossing_slots.end());

    // Candidates rooted at z: non-tree edges of T_z whose endpoints have z
    // as their least common ancestor in T_z.
    const auto tree_index = static_cast<std::uint32_t>(trees_.size());
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      auto [u, v] = g.endpoints(e);
      if (lt.dist[u] == graph::kInfWeight || lt.dist[v] == graph::kInfWeight) {
        continue;
      }
      if (lt.parent_edge[u] == e || lt.parent_edge[v] == e) continue;
      // LCA by depth climbing.
      VertexId a = u, b = v;
      while (a != b) {
        if (depth[a] < depth[b]) std::swap(a, b);
        a = lt.parent[a];
      }
      if (a != z) continue;
      candidates_.push_back({tree_index, e,
                             lt.dist[u] + g.weight(e) + lt.dist[v], u, v,
                             tree.non_tree_index[e]});
    }
    trees_.push_back(std::move(lt));
  }

  std::stable_sort(candidates_.begin(), candidates_.end(),
                   [](const McbCandidate& a, const McbCandidate& b) {
                     return a.weight < b.weight;
                   });

  labels_.assign(trees_.size() * static_cast<std::size_t>(n), 0);
  all_zero_.assign(trees_.size(), 1);  // every label starts at 0
}

void LabelledTrees::relabel_tree(std::size_t t, const WitnessView& s) {
  LabelledTree& lt = trees_[t];
  const std::size_t n = static_cast<std::size_t>(g_.num_vertices());
  std::uint8_t* label = labels_.data() + t * n;

  // Pass 1 (Algorithm 3, lines 4-8): c_z(u) = S(parent edge) for crossing
  // slots, 0 elsewhere. The scratch is thread_local and cleared via the
  // touched list, so skipped trees pay nothing proportional to n.
  thread_local std::vector<std::uint8_t> c;
  thread_local std::vector<VertexId> touched;
  if (c.size() < n) c.resize(n, 0);
  touched.clear();

  if (s.has_support() && s.support().size() * 8 < lt.crossing_slots.size()) {
    // Sparse witness, big tree: walk the support and binary-search the
    // slots instead of testing every crossing slot against S.
    for (const std::uint32_t idx : s.support()) {
      auto it = std::lower_bound(
          lt.crossing_slots.begin(), lt.crossing_slots.end(), idx,
          [](const auto& slot, std::uint32_t key) { return slot.first < key; });
      for (; it != lt.crossing_slots.end() && it->first == idx; ++it) {
        c[it->second] = 1;
        touched.push_back(it->second);
      }
    }
  } else {
    for (const auto& [idx, u] : lt.crossing_slots) {
      if (s.get(idx)) {
        c[u] = 1;
        touched.push_back(u);
      }
    }
  }

  if (touched.empty()) {
    // No crossing slot is set: every l_z is 0. Skip pass 2; first_odd reads
    // the flag instead of the (stale) label array.
    all_zero_[t] = 1;
    return;
  }
  all_zero_[t] = 0;

  // Pass 2 (lines 9-11): level-order accumulate l_z(u) = l_z(parent) ⊕ c(u).
  for (const VertexId u : lt.order) {
    const VertexId p = lt.parent[u];
    label[u] = p == graph::kNullVertex
                   ? std::uint8_t{0}
                   : static_cast<std::uint8_t>(label[p] ^ c[u]);
  }
  for (const VertexId u : touched) c[u] = 0;
}

std::size_t LabelledTrees::first_odd(const std::uint32_t* ids,
                                     std::size_t count,
                                     const WitnessView& s) const {
  const std::size_t n = static_cast<std::size_t>(g_.num_vertices());
  const std::uint8_t* labels = labels_.data();
  const std::uint8_t* az = all_zero_.data();
  const std::uint64_t* sw = s.words().data();
  for (std::size_t k = 0; k < count; ++k) {
    const McbCandidate& cand = candidates_[ids[k]];
    unsigned parity = 0;
    if (!az[cand.tree]) {
      const std::uint8_t* label = labels + cand.tree * n;
      parity = static_cast<unsigned>(label[cand.u] ^ label[cand.v]);
    }
    if (cand.sign_index != kNotNonTree) {
      parity ^= static_cast<unsigned>(
          (sw[cand.sign_index >> 6] >> (cand.sign_index & 63)) & 1u);
    }
    if ((parity & 1u) != 0) return k;
  }
  return count;
}

Cycle LabelledTrees::materialize(const McbCandidate& cand) const {
  const LabelledTree& lt = trees_[cand.tree];
  Cycle c;
  c.edges.push_back(cand.edge);
  const auto climb = [&](VertexId x) {
    while (x != lt.root) {
      c.edges.push_back(lt.parent_edge[x]);
      x = lt.parent[x];
    }
  };
  climb(cand.u);
  climb(cand.v);
  c.weight = cycle_weight(g_, c.edges);
  return c;
}

}  // namespace eardec::mcb
