// Tests for DFS, biconnected components, block-cut tree, and ear
// decomposition — validated against brute-force oracles on many small
// random graphs.
#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "connectivity/bcc.hpp"
#include "connectivity/block_cut_tree.hpp"
#include "connectivity/dfs.hpp"
#include "connectivity/ear_decomposition.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"

namespace eardec::connectivity {
namespace {

namespace gen = graph::generators;
using graph::Builder;
using graph::Graph;

// ------------------------------------------------------------ brute oracles

/// Number of connected components when `skip_vertex` is removed.
std::uint32_t components_without(const Graph& g, VertexId skip_vertex) {
  std::vector<std::uint32_t> comp(g.num_vertices(), kNoComponent);
  std::uint32_t count = 0;
  std::vector<VertexId> stack;
  for (VertexId r = 0; r < g.num_vertices(); ++r) {
    if (r == skip_vertex || comp[r] != kNoComponent) continue;
    comp[r] = count;
    stack.push_back(r);
    while (!stack.empty()) {
      const VertexId v = stack.back();
      stack.pop_back();
      for (const graph::HalfEdge& he : g.neighbors(v)) {
        if (he.to == skip_vertex) continue;
        if (comp[he.to] == kNoComponent) {
          comp[he.to] = count;
          stack.push_back(he.to);
        }
      }
    }
    ++count;
  }
  return count;
}

std::uint32_t num_components(const Graph& g) {
  return connected_components(g).count;
}

// ------------------------------------------------------------------ DfsTest

TEST(Dfs, ForestCoversAllVerticesWithUniqueDiscTimes) {
  const Graph g = gen::random_connected(60, 150, 5);
  const DfsForest f = dfs_forest(g);
  ASSERT_EQ(f.preorder.size(), 60u);
  ASSERT_EQ(f.roots.size(), 1u);
  std::set<std::uint32_t> times(f.disc.begin(), f.disc.end());
  EXPECT_EQ(times.size(), 60u);
  // Parents are discovered before children.
  for (VertexId v = 0; v < 60; ++v) {
    if (f.parent[v] != graph::kNullVertex) {
      EXPECT_LT(f.disc[f.parent[v]], f.disc[v]);
      const auto [a, b] = g.endpoints(f.parent_edge[v]);
      EXPECT_TRUE((a == v && b == f.parent[v]) || (b == v && a == f.parent[v]));
    }
  }
}

TEST(Dfs, ConnectedComponentsOnForest) {
  Builder b(7);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(3, 4);
  const Graph g = std::move(b).build();  // vertices 5, 6 isolated
  const ConnectedComponents cc = connected_components(g);
  EXPECT_EQ(cc.count, 4u);
  EXPECT_EQ(cc.component[0], cc.component[2]);
  EXPECT_NE(cc.component[0], cc.component[3]);
  EXPECT_FALSE(is_connected(g));
  EXPECT_TRUE(is_connected(gen::cycle(5)));
}

// ------------------------------------------------------------------ BccTest

TEST(Bcc, TriangleIsOneComponent) {
  const auto bcc = biconnected_components(gen::cycle(3));
  EXPECT_EQ(bcc.num_components, 1u);
  EXPECT_EQ(bcc.num_articulation_points(), 0u);
}

TEST(Bcc, TwoTrianglesSharingAVertex) {
  Builder b(5);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 0);
  b.add_edge(2, 3);
  b.add_edge(3, 4);
  b.add_edge(4, 2);
  const Graph g = std::move(b).build();
  const auto bcc = biconnected_components(g);
  EXPECT_EQ(bcc.num_components, 2u);
  EXPECT_EQ(bcc.num_articulation_points(), 1u);
  EXPECT_TRUE(bcc.is_articulation[2]);
}

TEST(Bcc, PathHasOneComponentPerEdge) {
  const auto bcc = biconnected_components(gen::path(5));
  EXPECT_EQ(bcc.num_components, 4u);
  EXPECT_EQ(bcc.num_articulation_points(), 3u);
}

TEST(Bcc, ParallelEdgesFormOneComponent) {
  Builder b(3);
  b.add_edge(0, 1);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  const Graph g = std::move(b).build();
  const auto bcc = biconnected_components(g);
  EXPECT_EQ(bcc.num_components, 2u);
  EXPECT_EQ(bcc.edge_component[0], bcc.edge_component[1]);
  EXPECT_TRUE(bcc.is_articulation[1]);
}

TEST(Bcc, SelfLoopIsOwnComponentAndNotArticulation) {
  Builder b(2);
  b.add_edge(0, 0);
  b.add_edge(0, 1);
  const Graph g = std::move(b).build();
  const auto bcc = biconnected_components(g);
  EXPECT_EQ(bcc.num_components, 2u);
  EXPECT_NE(bcc.edge_component[0], bcc.edge_component[1]);
  EXPECT_EQ(bcc.num_articulation_points(), 0u);
}

TEST(Bcc, EdgesArePartitioned) {
  const Graph g = gen::block_tree({.num_blocks = 12,
                                   .largest_block = 20,
                                   .small_block_min = 3,
                                   .small_block_max = 6,
                                   .intra_degree = 3.0,
                                   .pendants = 5},
                                  17);
  const auto bcc = biconnected_components(g);
  std::vector<std::uint32_t> seen(g.num_edges(), 0);
  EdgeId total = 0;
  for (std::uint32_t c = 0; c < bcc.num_components; ++c) {
    for (const EdgeId e : bcc.component_edges(c)) {
      ++seen[e];
      ++total;
    }
  }
  EXPECT_EQ(total, g.num_edges());
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(),
                          [](std::uint32_t c) { return c == 1; }));
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_NE(bcc.edge_component[e], kNoComponent);
  }
}

// Property: articulation points match the brute-force removal oracle.
class BccRandomTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BccRandomTest, ArticulationPointsMatchBruteForce) {
  const std::uint64_t seed = GetParam();
  const Graph g = gen::random_connected(24, static_cast<graph::EdgeId>(24 + seed % 20), seed);
  const auto bcc = biconnected_components(g);
  const std::uint32_t base = num_components(g);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    // Removing v splits the graph iff v is an articulation point
    // (account for v itself disappearing from the count).
    const std::uint32_t without = components_without(g, v);
    const bool brute = without > base - (g.degree(v) == 0 ? 1 : 0);
    EXPECT_EQ(bcc.is_articulation[v], brute) << "vertex " << v;
  }
}

TEST_P(BccRandomTest, TwoEdgesShareComponentIffOnCommonCycle) {
  const std::uint64_t seed = GetParam();
  const Graph g = gen::random_connected(14, 14 + seed % 8, seed + 200);
  const auto bcc = biconnected_components(g);
  // Two distinct non-bridge edges lie in the same BCC iff the graph minus
  // either one still connects the endpoints of the other through both sides;
  // we use the simpler classical characterization via bridges within the
  // union: e and f are in a common simple cycle iff after removing e, f is
  // still not a bridge of the subgraph containing both... Instead test the
  // contrapositive with the vertex-removal oracle: edges in different BCCs
  // are separated by some articulation point.
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    for (EdgeId f2 = e + 1; f2 < g.num_edges(); ++f2) {
      if (bcc.edge_component[e] == bcc.edge_component[f2]) continue;
      // There must exist an articulation point whose removal separates the
      // two edges (or they are in different connected components).
      bool separated = false;
      for (VertexId v = 0; v < g.num_vertices() && !separated; ++v) {
        if (!bcc.is_articulation[v]) continue;
        // Check endpoints of e and f2 fall apart without v.
        const auto [eu, ev] = g.endpoints(e);
        const auto [fu, fv] = g.endpoints(f2);
        const VertexId a = eu == v ? ev : eu;
        const VertexId c = fu == v ? fv : fu;
        // BFS from a avoiding v; if c unreachable, separated.
        std::vector<bool> vis(g.num_vertices(), false);
        std::vector<VertexId> st{a};
        vis[a] = true;
        while (!st.empty()) {
          const VertexId x = st.back();
          st.pop_back();
          for (const auto& he : g.neighbors(x)) {
            if (he.to == v || vis[he.to]) continue;
            vis[he.to] = true;
            st.push_back(he.to);
          }
        }
        if (!vis[c]) separated = true;
      }
      EXPECT_TRUE(separated) << "edges " << e << "," << f2;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BccRandomTest, ::testing::Range<std::uint64_t>(1, 13));

TEST(Bcc, ExtractComponentRemapsConsistently) {
  const Graph g = gen::block_tree({.num_blocks = 6,
                                   .largest_block = 12,
                                   .small_block_min = 3,
                                   .small_block_max = 5,
                                   .intra_degree = 3.0},
                                  23);
  const auto bcc = biconnected_components(g);
  for (std::uint32_t c = 0; c < bcc.num_components; ++c) {
    const SubgraphView view = extract_component(g, bcc, c);
    EXPECT_EQ(view.graph.num_edges(), bcc.component_edges(c).size());
    EXPECT_EQ(view.graph.num_vertices(), bcc.component_vertices(c).size());
    EXPECT_TRUE(view.graph.num_edges() <= 1 || is_biconnected(view.graph));
    for (EdgeId e = 0; e < view.graph.num_edges(); ++e) {
      const auto [lu, lv] = view.graph.endpoints(e);
      const auto [pu, pv] = g.endpoints(view.edge_to_parent[e]);
      const std::set<VertexId> local_mapped{view.to_parent[lu], view.to_parent[lv]};
      EXPECT_EQ(local_mapped, (std::set<VertexId>{pu, pv}));
      EXPECT_DOUBLE_EQ(view.graph.weight(e), g.weight(view.edge_to_parent[e]));
    }
  }
  EXPECT_THROW(extract_component(g, bcc, bcc.num_components), std::out_of_range);
}

TEST(Bcc, IsBiconnectedConventions) {
  EXPECT_TRUE(is_biconnected(gen::cycle(4)));
  EXPECT_TRUE(is_biconnected(gen::path(2)));  // K2 convention
  EXPECT_FALSE(is_biconnected(gen::path(3)));
  EXPECT_TRUE(is_biconnected(gen::petersen()));
  EXPECT_TRUE(is_biconnected(gen::wheel(8)));
  EXPECT_FALSE(is_biconnected(gen::block_tree({.num_blocks = 3,
                                               .largest_block = 5,
                                               .small_block_min = 3,
                                               .small_block_max = 4,
                                               .intra_degree = 2.5},
                                              3)));
}

// -------------------------------------------------------------- BlockCutTree

TEST(BlockCutTree, TwoTrianglesSharedVertex) {
  Builder b(5);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 0);
  b.add_edge(2, 3);
  b.add_edge(3, 4);
  b.add_edge(4, 2);
  const Graph g = std::move(b).build();
  const auto bcc = biconnected_components(g);
  const BlockCutTree tree(g, bcc);
  EXPECT_EQ(tree.num_blocks(), 2u);
  ASSERT_EQ(tree.cut_vertices().size(), 1u);
  EXPECT_EQ(tree.cut_vertices()[0], 2u);
  EXPECT_EQ(tree.neighbors(tree.cut_node(0)).size(), 2u);
  EXPECT_EQ(tree.blocks_of(2).size(), 2u);
  EXPECT_EQ(tree.blocks_of(0).size(), 1u);
  EXPECT_EQ(tree.cut_index(0), kNoComponent);
  EXPECT_NE(tree.cut_index(2), kNoComponent);
}

TEST(BlockCutTree, IsATree) {
  const Graph g = gen::block_tree({.num_blocks = 15,
                                   .largest_block = 18,
                                   .small_block_min = 3,
                                   .small_block_max = 6,
                                   .intra_degree = 3.0,
                                   .pendants = 7},
                                  31);
  const auto bcc = biconnected_components(g);
  const BlockCutTree tree(g, bcc);
  // A connected block-cut structure is a tree: edges = nodes - 1.
  std::size_t tree_edges = 0;
  for (std::uint32_t node = 0; node < tree.num_nodes(); ++node) {
    tree_edges += tree.neighbors(node).size();
  }
  tree_edges /= 2;
  EXPECT_EQ(tree_edges, tree.num_nodes() - 1);
}

// ----------------------------------------------------------- EarDecomposition

/// Checks the paper's definition: P0 ∪ P1 is a cycle; every later ear meets
/// earlier ears exactly in its endpoints; ears partition E.
void expect_valid_ear_decomposition(const Graph& g,
                                    const EarDecomposition& ed) {
  std::vector<std::uint32_t> edge_seen(g.num_edges(), 0);
  std::vector<bool> vertex_on_earlier(g.num_vertices(), false);
  ASSERT_FALSE(ed.ears.empty());
  ASSERT_TRUE(ed.ears.front().is_cycle());

  for (std::size_t i = 0; i < ed.ears.size(); ++i) {
    const Ear& ear = ed.ears[i];
    ASSERT_EQ(ear.vertices.size(), ear.edges.size() + 1);
    // Consecutive vertices joined by the listed edges.
    for (std::size_t k = 0; k < ear.edges.size(); ++k) {
      const auto [a, b] = g.endpoints(ear.edges[k]);
      const std::set<VertexId> got{ear.vertices[k], ear.vertices[k + 1]};
      EXPECT_EQ(got, (std::set<VertexId>{a, b}));
      ++edge_seen[ear.edges[k]];
      EXPECT_EQ(ed.edge_ear[ear.edges[k]], i);
    }
    if (i > 0 && ed.open) {
      // Endpoints on earlier ears; interior vertices fresh.
      EXPECT_TRUE(vertex_on_earlier[ear.vertices.front()]);
      EXPECT_TRUE(vertex_on_earlier[ear.vertices.back()]);
      for (std::size_t k = 1; k + 1 < ear.vertices.size(); ++k) {
        EXPECT_FALSE(vertex_on_earlier[ear.vertices[k]])
            << "ear " << i << " interior vertex " << ear.vertices[k];
      }
    }
    for (const VertexId v : ear.vertices) vertex_on_earlier[v] = true;
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_EQ(edge_seen[e], 1u) << "edge " << e;
  }
}

TEST(EarDecomposition, CycleIsSingleEar) {
  const Graph g = gen::cycle(6);
  const auto ed = ear_decomposition(g);
  EXPECT_EQ(ed.ears.size(), 1u);
  EXPECT_TRUE(ed.open);
  expect_valid_ear_decomposition(g, ed);
}

TEST(EarDecomposition, ThetaGraphHasTwoEars) {
  // Two vertices joined by three internally disjoint paths.
  Builder b(8);
  b.add_edge(0, 2);
  b.add_edge(2, 1);
  b.add_edge(0, 3);
  b.add_edge(3, 4);
  b.add_edge(4, 1);
  b.add_edge(0, 5);
  b.add_edge(5, 6);
  b.add_edge(6, 7);
  b.add_edge(7, 1);
  const Graph g = std::move(b).build();
  const auto ed = ear_decomposition(g);
  EXPECT_EQ(ed.ears.size(), 2u);  // m - n + 1 ears for 2-edge-connected
  EXPECT_TRUE(ed.open);
  expect_valid_ear_decomposition(g, ed);
}

TEST(EarDecomposition, NumberOfEarsIsCyclomaticNumber) {
  // For any 2-edge-connected graph the number of ears equals m - n + 1.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Graph g = gen::random_biconnected(30, static_cast<graph::EdgeId>(50 + 3 * seed), seed);
    const auto ed = ear_decomposition(g);
    EXPECT_EQ(ed.ears.size(), g.num_edges() - g.num_vertices() + 1);
    expect_valid_ear_decomposition(g, ed);
  }
}

TEST(EarDecomposition, OpenForBiconnectedGraphs) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const Graph g = gen::random_biconnected(25, static_cast<graph::EdgeId>(40 + seed), seed * 7);
    const auto ed = ear_decomposition(g);
    EXPECT_TRUE(ed.open);
    expect_valid_ear_decomposition(g, ed);
  }
}

TEST(EarDecomposition, NotOpenAcrossCutVertex) {
  // Two triangles sharing vertex 2: 2-edge-connected but not 2-connected.
  Builder b(5);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 0);
  b.add_edge(2, 3);
  b.add_edge(3, 4);
  b.add_edge(4, 2);
  const Graph g = std::move(b).build();
  const auto ed = ear_decomposition(g);
  EXPECT_FALSE(ed.open);
  EXPECT_EQ(ed.ears.size(), 2u);
}

TEST(EarDecomposition, SubdividedGraphsKeepValidDecompositions) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Graph core = gen::random_biconnected(15, 25, seed);
    const Graph g = gen::subdivide(core, 40, seed + 50);
    const auto ed = ear_decomposition(g);
    EXPECT_TRUE(ed.open);
    expect_valid_ear_decomposition(g, ed);
    EXPECT_EQ(ed.ears.size(), g.num_edges() - g.num_vertices() + 1);
  }
}

TEST(EarDecomposition, HandlesParallelEdgesAndSelfLoops) {
  Builder b(3);
  b.add_edge(0, 1);
  b.add_edge(0, 1);  // parallel pair: a 2-edge cycle
  b.add_edge(1, 2);
  b.add_edge(2, 0);
  b.add_edge(1, 1);  // self-loop: closed single-edge ear
  const Graph g = std::move(b).build();
  const auto ed = ear_decomposition(g);
  expect_valid_ear_decomposition(g, ed);
  EXPECT_EQ(ed.ears.size(), 3u);
  // All edges covered exactly once, incl. loop and both parallels.
}

TEST(EarDecomposition, RejectsBridgesAndDisconnected) {
  EXPECT_THROW(ear_decomposition(gen::path(4)), std::invalid_argument);
  EXPECT_THROW(ear_decomposition(Graph{}), std::invalid_argument);
  Builder b(6);  // two disjoint triangles
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 0);
  b.add_edge(3, 4);
  b.add_edge(4, 5);
  b.add_edge(5, 3);
  EXPECT_THROW(ear_decomposition(std::move(b).build()), std::invalid_argument);
  // Two triangles joined by a bridge.
  Builder c(6);
  c.add_edge(0, 1);
  c.add_edge(1, 2);
  c.add_edge(2, 0);
  c.add_edge(3, 4);
  c.add_edge(4, 5);
  c.add_edge(5, 3);
  c.add_edge(2, 3);
  EXPECT_THROW(ear_decomposition(std::move(c).build()), std::invalid_argument);
}

}  // namespace
}  // namespace eardec::connectivity
