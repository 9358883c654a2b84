// Tests for vertex reordering: permutation correctness, distance invariance
// under relabeling, and bandwidth reduction. (The EDG2 binary format has its
// own suites: edg2_test and property_format_test.)
#include <algorithm>
#include <numeric>
#include <random>

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "graph/reorder.hpp"
#include "sssp/dijkstra.hpp"

namespace eardec::graph {
namespace {

namespace gen = generators;

/// CSR "bandwidth" proxy: mean |u - v| over the edges.
double mean_edge_span(const Graph& g) {
  if (g.num_edges() == 0) return 0;
  double sum = 0;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto [u, v] = g.endpoints(e);
    sum += u > v ? u - v : v - u;
  }
  return sum / g.num_edges();
}

class ReorderTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReorderTest, PermutationMapsAreInverse) {
  const std::uint64_t seed = GetParam();
  const Graph g = gen::random_connected(
      60, static_cast<EdgeId>(130 + seed * 7), seed);
  for (const auto& r : {reorder_bfs(g), reorder_by_degree(g)}) {
    ASSERT_EQ(r.graph.num_vertices(), g.num_vertices());
    ASSERT_EQ(r.graph.num_edges(), g.num_edges());
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      EXPECT_EQ(r.to_old[r.to_new[v]], v);
      EXPECT_EQ(r.graph.degree(r.to_new[v]), g.degree(v));
    }
  }
}

TEST_P(ReorderTest, DistancesInvariantUnderRelabeling) {
  const std::uint64_t seed = GetParam();
  const Graph g = gen::random_connected(
      40, static_cast<EdgeId>(85 + seed * 3), seed + 31);
  const Reordered r = reorder_bfs(g);
  for (VertexId s = 0; s < g.num_vertices(); s += 9) {
    const auto orig = sssp::dijkstra(g, s);
    const auto relab = sssp::dijkstra(r.graph, r.to_new[s]);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      EXPECT_DOUBLE_EQ(relab.dist[r.to_new[v]], orig.dist[v]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReorderTest,
                         ::testing::Range<std::uint64_t>(1, 7));

TEST(Reorder, BfsReducesSpanOnShuffledGrid) {
  // A grid whose labels were scrambled: BFS reordering must restore most
  // of the locality (grid edges span O(side) after Cuthill–McKee vs O(n)
  // when shuffled).
  const Graph grid = gen::grid(18, 18);
  std::vector<VertexId> shuffle(grid.num_vertices());
  std::iota(shuffle.begin(), shuffle.end(), 0u);
  std::mt19937_64 rng(11);
  std::shuffle(shuffle.begin(), shuffle.end(), rng);
  const Reordered scrambled = reorder_with(grid, std::move(shuffle));
  const Reordered restored = reorder_bfs(scrambled.graph);
  EXPECT_LT(mean_edge_span(restored.graph),
            mean_edge_span(scrambled.graph) / 3.0);
}

TEST(Reorder, DegreeOrderPutsHubsFirst) {
  const Graph g = gen::block_tree({.num_blocks = 6,
                                   .largest_block = 20,
                                   .small_block_min = 3,
                                   .small_block_max = 5,
                                   .intra_degree = 4.0,
                                   .pendants = 10},
                                  5);
  const Reordered r = reorder_by_degree(g);
  for (VertexId v = 0; v + 1 < r.graph.num_vertices(); ++v) {
    EXPECT_GE(r.graph.degree(v), r.graph.degree(v + 1));
  }
}

TEST(Reorder, RejectsBadPermutations) {
  const Graph g = gen::cycle(4);
  EXPECT_THROW((void)reorder_with(g, {0, 1, 2}), std::invalid_argument);
  EXPECT_THROW((void)reorder_with(g, {0, 1, 2, 2}), std::invalid_argument);
  EXPECT_THROW((void)reorder_with(g, {0, 1, 2, 9}), std::invalid_argument);
}

}  // namespace
}  // namespace eardec::graph
