// Tests for the partitioner and the two baselines (Banerjee, Djidjev).
// Each baseline must agree exactly with Dijkstra — they are comparison
// points in Figures 2-3, so their correctness matters as much as the
// core's.
#include <set>

#include <gtest/gtest.h>

#include "baselines/banerjee_apsp.hpp"
#include "baselines/djidjev_apsp.hpp"
#include "core/ear_apsp.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "partition/bfs_grow.hpp"
#include "sssp/dijkstra.hpp"

namespace eardec::baselines {
namespace {

namespace gen = graph::generators;
using core::ApspOptions;
using core::ExecutionMode;
using graph::Builder;
using graph::Graph;

// ---------------------------------------------------------------- partition

TEST(BfsGrow, EveryVertexAssignedAndPartsNonEmpty) {
  const Graph g = gen::random_planar(8, 9, 0.5, 0.1, 3);
  const auto p = partition::bfs_grow(g, 4, 7);
  ASSERT_EQ(p.num_parts, 4u);
  std::vector<std::uint32_t> sizes(p.num_parts, 0);
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    ASSERT_LT(p.part[v], p.num_parts);
    ++sizes[p.part[v]];
  }
  for (const auto s : sizes) EXPECT_GT(s, 0u);
}

TEST(BfsGrow, BoundaryAndCutConsistent) {
  const Graph g = gen::random_planar(10, 10, 0.6, 0.15, 5);
  const auto p = partition::bfs_grow(g, 5, 11);
  graph::EdgeId cut = 0;
  std::set<graph::VertexId> boundary;
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto [u, v] = g.endpoints(e);
    if (p.part[u] != p.part[v]) {
      ++cut;
      boundary.insert(u);
      boundary.insert(v);
    }
  }
  EXPECT_EQ(p.cut_edges, cut);
  EXPECT_EQ(boundary.size(), p.boundary.size());
  for (const auto v : p.boundary) EXPECT_TRUE(boundary.contains(v));
}

TEST(BfsGrow, SinglePartHasNoBoundary) {
  const Graph g = gen::grid(6, 6);
  const auto p = partition::bfs_grow(g, 1, 1);
  EXPECT_EQ(p.num_parts, 1u);
  EXPECT_TRUE(p.boundary.empty());
  EXPECT_EQ(p.cut_edges, 0u);
}

TEST(BfsGrow, BoundaryIsSmallOnPlanarGrids) {
  // The property Djidjev depends on: boundary << n for planar inputs.
  const Graph g = gen::grid(20, 20);
  const auto p = partition::bfs_grow(g, 4, 9);
  EXPECT_LT(p.boundary.size(), g.num_vertices() / 3);
}

TEST(BfsGrow, KClampedAndValidatesArgs) {
  const Graph g = gen::cycle(4);
  const auto p = partition::bfs_grow(g, 50, 2);
  EXPECT_LE(p.num_parts, 4u);
  EXPECT_THROW(partition::bfs_grow(g, 0, 1), std::invalid_argument);
}

// --------------------------------------------------------------- Banerjee

class BanerjeeRandomTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BanerjeeRandomTest, MatchesDijkstra) {
  const std::uint64_t seed = GetParam();
  Graph g = gen::block_tree({.num_blocks = 7,
                             .largest_block = 12,
                             .small_block_min = 3,
                             .small_block_max = 6,
                             .intra_degree = 3.0,
                             .pendants = 10},
                            seed);
  g = gen::subdivide(g, 15, seed + 3);
  const BanerjeeApsp apsp(g, {.mode = ExecutionMode::Sequential});
  for (graph::VertexId s = 0; s < g.num_vertices(); ++s) {
    const auto ref = sssp::dijkstra(g, s);
    for (graph::VertexId t = 0; t < g.num_vertices(); ++t) {
      if (ref.dist[t] == graph::kInfWeight) {
        ASSERT_EQ(apsp.distance(s, t), graph::kInfWeight) << s << "," << t;
      } else {
        ASSERT_NEAR(apsp.distance(s, t), ref.dist[t], 1e-6) << s << "," << t;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BanerjeeRandomTest,
                         ::testing::Range<std::uint64_t>(1, 9));

TEST(Banerjee, DeepPendantTreesAndTreeGraph) {
  // A bare tree exercises the everything-peeled path.
  const Graph tree = gen::path(9);
  const BanerjeeApsp apsp(tree, {.mode = ExecutionMode::Sequential});
  for (graph::VertexId s = 0; s < 9; ++s) {
    const auto ref = sssp::dijkstra(tree, s);
    for (graph::VertexId t = 0; t < 9; ++t) {
      ASSERT_NEAR(apsp.distance(s, t), ref.dist[t], 1e-9);
    }
  }
  EXPECT_GT(apsp.peel().num_removed(), 0u);
}

TEST(Banerjee, RunsMoreSsspThanEarPipeline) {
  // Structural claim behind Figure 2: without chain contraction the
  // baseline runs one SSSP per (core) vertex, the ear pipeline far fewer.
  Graph g = gen::subdivide(gen::random_biconnected(20, 40, 3), 80, 4);
  const BanerjeeApsp baseline(g, {.mode = ExecutionMode::Sequential});
  const core::EarApspEngine ours(g, {.mode = ExecutionMode::Sequential});
  EXPECT_GT(baseline.sssp_runs(), ours.sssp_runs() * 3);
}

// ---------------------------------------------------------------- Djidjev

class DjidjevRandomTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DjidjevRandomTest, MatchesDijkstraOnPlanar) {
  const std::uint64_t seed = GetParam();
  const Graph g = gen::random_planar(7, 8, 0.5, 0.2, seed);
  const DjidjevApsp apsp(g, 4, {.mode = ExecutionMode::Sequential}, seed);
  for (graph::VertexId s = 0; s < g.num_vertices(); s += 5) {
    const auto ref = sssp::dijkstra(g, s);
    for (graph::VertexId t = 0; t < g.num_vertices(); ++t) {
      if (ref.dist[t] == graph::kInfWeight) {
        ASSERT_EQ(apsp.distance(s, t), graph::kInfWeight) << s << "," << t;
      } else {
        ASSERT_NEAR(apsp.distance(s, t), ref.dist[t], 1e-6) << s << "," << t;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DjidjevRandomTest,
                         ::testing::Range<std::uint64_t>(1, 9));

TEST(Djidjev, GeneralGraphsAlsoExact) {
  // The method is only *efficient* on planar inputs but must stay correct
  // anywhere.
  const Graph g = gen::random_connected(40, 90, 23);
  const DjidjevApsp apsp(g, 5, {.mode = ExecutionMode::Multicore,
                                .cpu_threads = 2});
  for (graph::VertexId s = 0; s < g.num_vertices(); s += 7) {
    const auto ref = sssp::dijkstra(g, s);
    for (graph::VertexId t = 0; t < g.num_vertices(); ++t) {
      ASSERT_NEAR(apsp.distance(s, t), ref.dist[t], 1e-6);
    }
  }
}

TEST(Djidjev, SinglePartitionDegeneratesToPlainApsp) {
  const Graph g = gen::grid(5, 5);
  const DjidjevApsp apsp(g, 1, {.mode = ExecutionMode::Sequential});
  EXPECT_EQ(apsp.boundary_size(), 0u);
  const auto ref = sssp::dijkstra(g, 0);
  for (graph::VertexId t = 0; t < g.num_vertices(); ++t) {
    ASSERT_NEAR(apsp.distance(0, t), ref.dist[t], 1e-9);
  }
}

TEST(Djidjev, DisconnectedGraph) {
  Builder b(6);
  b.add_edge(0, 1, 1.0);
  b.add_edge(1, 2, 1.0);
  b.add_edge(2, 0, 1.0);
  b.add_edge(3, 4, 2.0);
  b.add_edge(4, 5, 2.0);
  b.add_edge(5, 3, 2.0);
  const Graph g = std::move(b).build();
  const DjidjevApsp apsp(g, 2, {.mode = ExecutionMode::Sequential});
  EXPECT_EQ(apsp.distance(0, 3), graph::kInfWeight);
  EXPECT_NEAR(apsp.distance(0, 2), 1.0, 1e-9);
  EXPECT_NEAR(apsp.distance(3, 5), 2.0, 1e-9);
}

}  // namespace
}  // namespace eardec::baselines
namespace eardec::baselines {
namespace {

TEST(Djidjev, MaterializedMatrixMatchesQueries) {
  const Graph g = gen::random_planar(6, 6, 0.5, 0.2, 31);
  const DjidjevApsp apsp(g, 3, {.mode = ExecutionMode::Sequential}, 4);
  const auto full = apsp.materialize();
  for (graph::VertexId u = 0; u < g.num_vertices(); ++u) {
    const auto ref = sssp::dijkstra(g, u);
    for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
      if (ref.dist[v] == graph::kInfWeight) {
        ASSERT_EQ(full.at(u, v), graph::kInfWeight);
      } else {
        ASSERT_NEAR(full.at(u, v), ref.dist[v], 1e-6) << u << "," << v;
      }
    }
  }
}

}  // namespace
}  // namespace eardec::baselines
