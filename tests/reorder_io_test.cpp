// Tests for vertex relabeling (testing::reorder_with, the transform behind
// the metamorphic relabel check): permutation round trips, distance
// invariance under relabeling, and rejection of non-permutations. (The
// EDG2 binary format has its own suites: edg2_test and
// property_format_test.)
#include <algorithm>
#include <numeric>
#include <random>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "sssp/dijkstra.hpp"
#include "testing/metamorphic.hpp"

namespace eardec::graph {
namespace {

namespace gen = generators;
using eardec::testing::reorder_with;

std::vector<VertexId> shuffled_ids(VertexId n, std::uint64_t seed) {
  std::vector<VertexId> to_new(n);
  std::iota(to_new.begin(), to_new.end(), 0u);
  std::mt19937_64 rng(seed);
  std::shuffle(to_new.begin(), to_new.end(), rng);
  return to_new;
}

class ReorderTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReorderTest, PermutationMapsAreInverse) {
  const std::uint64_t seed = GetParam();
  const Graph g = gen::random_connected(
      60, static_cast<EdgeId>(130 + seed * 7), seed);
  const std::vector<VertexId> to_new = shuffled_ids(g.num_vertices(), seed);
  std::vector<VertexId> to_old(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) to_old[to_new[v]] = v;

  const Graph h = reorder_with(g, to_new);
  ASSERT_EQ(h.num_vertices(), g.num_vertices());
  ASSERT_EQ(h.num_edges(), g.num_edges());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(h.degree(to_new[v]), g.degree(v));
  }
  // Relabeling back by the inverse restores every edge under its own id.
  const Graph back = reorder_with(h, to_old);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_EQ(back.endpoints(e), g.endpoints(e));
    EXPECT_EQ(back.weight(e), g.weight(e));
  }
}

TEST_P(ReorderTest, DistancesInvariantUnderRelabeling) {
  const std::uint64_t seed = GetParam();
  const Graph g = gen::random_connected(
      40, static_cast<EdgeId>(85 + seed * 3), seed + 31);
  const std::vector<VertexId> to_new = shuffled_ids(g.num_vertices(), seed);
  const Graph h = reorder_with(g, to_new);
  for (VertexId s = 0; s < g.num_vertices(); s += 9) {
    const auto orig = sssp::dijkstra(g, s);
    const auto relab = sssp::dijkstra(h, to_new[s]);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      EXPECT_DOUBLE_EQ(relab.dist[to_new[v]], orig.dist[v]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReorderTest,
                         ::testing::Range<std::uint64_t>(1, 7));

TEST(Reorder, RejectsBadPermutations) {
  const Graph g = gen::cycle(4);
  EXPECT_THROW((void)reorder_with(g, {0, 1, 2}), std::invalid_argument);
  EXPECT_THROW((void)reorder_with(g, {0, 1, 2, 2}), std::invalid_argument);
  EXPECT_THROW((void)reorder_with(g, {0, 1, 2, 9}), std::invalid_argument);
}

}  // namespace
}  // namespace eardec::graph
