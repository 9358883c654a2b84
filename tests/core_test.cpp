// Tests for the ear-decomposition APSP core: TreeLca, EarApspEngine
// (compact queries), EarApsp (full tables), the memory model, and
// exact agreement with brute-force Dijkstra APSP across graph families,
// execution modes, and seeds.
#include <gtest/gtest.h>

#include <array>
#include <random>
#include <string>
#include <string_view>

#include "connectivity/block_cut_tree.hpp"
#include "connectivity/tree_lca.hpp"
#include "core/ear_apsp.hpp"
#include "graph/builder.hpp"
#include "graph/datasets.hpp"
#include "graph/generators.hpp"
#include "sssp/dijkstra.hpp"
#include "testing/families.hpp"

namespace eardec::core {
namespace {

namespace gen = graph::generators;
using graph::Builder;
using graph::Graph;

#define ASSERT_NEAR_OR_BOTH_INF(got, want, s, t)                           \
  do {                                                                     \
    if ((want) == graph::kInfWeight) {                                     \
      ASSERT_EQ((got), graph::kInfWeight) << "pair " << (s) << "," << (t); \
    } else {                                                               \
      ASSERT_NEAR((got), (want), 1e-6) << "pair " << (s) << "," << (t);    \
    }                                                                      \
  } while (0)

void expect_matches_dijkstra(const Graph& g, const ApspOptions& opts,
                             bool check_full_tables = true) {
  const EarApspEngine oracle(g, opts);
  std::optional<EarApsp> full;
  if (check_full_tables) full.emplace(g, opts);
  for (graph::VertexId s = 0; s < g.num_vertices(); ++s) {
    const auto ref = sssp::dijkstra(g, s);
    for (graph::VertexId t = 0; t < g.num_vertices(); ++t) {
      ASSERT_NEAR_OR_BOTH_INF(oracle.query(s, t), ref.dist[t], s, t);
      if (full) {
        ASSERT_NEAR_OR_BOTH_INF(full->distance(s, t), ref.dist[t], s, t);
      }
    }
  }
}

// ------------------------------------------------------------------ TreeLca

TEST(TreeLca, PathTree) {
  // 0-1-2-3-4 as a path.
  std::vector<std::vector<std::uint32_t>> adj{{1}, {0, 2}, {1, 3}, {2, 4}, {3}};
  const connectivity::TreeLca lca(adj);
  EXPECT_EQ(lca.lca(0, 4), 0u);
  EXPECT_EQ(lca.lca(3, 4), 3u);
  EXPECT_EQ(lca.lca(2, 2), 2u);
  EXPECT_EQ(lca.next_on_path(0, 4), 1u);
  EXPECT_EQ(lca.next_on_path(4, 0), 3u);
  EXPECT_EQ(lca.depth(4), 4u);
  EXPECT_EQ(lca.ancestor_at_depth(4, 1), 1u);
}

TEST(TreeLca, BranchingTreeAndForest) {
  // Tree: root 0 with children 1, 2; vertex 1 has children 3, 4.
  // Nodes 5-6 form a second component.
  std::vector<std::vector<std::uint32_t>> adj{{1, 2}, {0, 3, 4}, {0},
                                              {1},    {1},       {6}, {5}};
  const connectivity::TreeLca lca(adj);
  EXPECT_EQ(lca.lca(3, 4), 1u);
  EXPECT_EQ(lca.lca(3, 2), 0u);
  EXPECT_EQ(lca.next_on_path(3, 2), 1u);
  EXPECT_EQ(lca.next_on_path(2, 3), 0u);
  EXPECT_EQ(lca.component(0), lca.component(4));
  EXPECT_NE(lca.component(0), lca.component(5));
  EXPECT_THROW((void)lca.lca(0, 5), std::invalid_argument);
  EXPECT_THROW((void)lca.next_on_path(2, 2), std::invalid_argument);
}

// ------------------------------------------------------- small exact cases

TEST(EarApsp, BiconnectedSubdividedCore) {
  const Graph core = gen::random_biconnected(10, 18, 3);
  const Graph g = gen::subdivide(core, 30, 4);
  expect_matches_dijkstra(g, {.mode = ExecutionMode::Sequential});
}

TEST(EarApsp, PureCycle) {
  expect_matches_dijkstra(gen::cycle(12),
                          {.mode = ExecutionMode::Sequential});
}

TEST(EarApsp, PathGraph) {
  expect_matches_dijkstra(gen::path(10), {.mode = ExecutionMode::Sequential});
}

TEST(EarApsp, SingleEdgeAndSingleVertex) {
  expect_matches_dijkstra(gen::path(2), {.mode = ExecutionMode::Sequential});
  Builder b(1);
  expect_matches_dijkstra(std::move(b).build(),
                          {.mode = ExecutionMode::Sequential});
}

TEST(EarApsp, DisconnectedGraph) {
  Builder b(7);  // triangle + path + isolated vertex
  b.add_edge(0, 1, 1.0);
  b.add_edge(1, 2, 2.0);
  b.add_edge(2, 0, 3.0);
  b.add_edge(3, 4, 1.0);
  b.add_edge(4, 5, 1.0);
  const Graph g = std::move(b).build();
  expect_matches_dijkstra(g, {.mode = ExecutionMode::Sequential});
}

TEST(EarApsp, TwoBlocksSharedCutVertex) {
  Builder b(5);
  b.add_edge(0, 1, 1.0);
  b.add_edge(1, 2, 2.0);
  b.add_edge(2, 0, 4.0);
  b.add_edge(2, 3, 1.0);
  b.add_edge(3, 4, 2.0);
  b.add_edge(4, 2, 3.0);
  expect_matches_dijkstra(std::move(b).build(),
                          {.mode = ExecutionMode::Sequential});
}

// Three triangles glued in a path: B1={0,1,2}, B2={2,3,4}, B3={4,5,6} with
// articulation points a1=2 and a2=4. Weights are chosen so each per-block
// distance is unambiguous: d(0,2)=1.5, d(2,4)=4, d(4,5)=1.
Graph three_block_path() {
  Builder b(7);
  b.add_edge(0, 1, 1.0);
  b.add_edge(1, 2, 1.0);
  b.add_edge(0, 2, 1.5);
  b.add_edge(2, 3, 2.0);
  b.add_edge(3, 4, 2.0);
  b.add_edge(2, 4, 5.0);
  b.add_edge(4, 5, 1.0);
  b.add_edge(5, 6, 1.0);
  b.add_edge(4, 6, 3.0);
  return std::move(b).build();
}

TEST(EarApsp, CrossBlockFormulaBoundaries) {
  // Cross-component routing is d(n1,a1) + A[a1][a2] + d(a2,n2); pin each
  // term, including the boundary cases where an endpoint IS one of the
  // articulation points (the corresponding term must vanish).
  const Graph g = three_block_path();
  const EarApspEngine oracle(g, {.mode = ExecutionMode::Sequential});
  EXPECT_DOUBLE_EQ(oracle.query(0, 5), 6.5);  // 1.5 + 4 + 1
  EXPECT_DOUBLE_EQ(oracle.query(0, 6), 7.5);  // 1.5 + 4 + 2
  EXPECT_DOUBLE_EQ(oracle.query(2, 5), 5.0);  // n1 == a1: first term 0
  EXPECT_DOUBLE_EQ(oracle.query(1, 4), 5.0);  // n2 == a2: last term 0
  EXPECT_DOUBLE_EQ(oracle.query(2, 4), 4.0);  // both endpoints cuts
  EXPECT_DOUBLE_EQ(oracle.query(3, 1), 3.0);  // adjacent blocks only
  expect_matches_dijkstra(g, {.mode = ExecutionMode::Sequential});
}

TEST(EarApsp, QueryEndpointIsArticulationPoint) {
  // Every pair with an articulation endpoint, against Dijkstra, in both
  // directions — the routing code takes a distinct branch for these.
  const Graph g = three_block_path();
  const EarApspEngine oracle(g, {.mode = ExecutionMode::Sequential});
  for (const graph::VertexId a : {2u, 4u}) {
    const auto ref = sssp::dijkstra(g, a);
    for (graph::VertexId t = 0; t < g.num_vertices(); ++t) {
      EXPECT_DOUBLE_EQ(oracle.query(a, t), ref.dist[t]);
      EXPECT_DOUBLE_EQ(oracle.query(t, a), ref.dist[t]);
    }
  }
}

TEST(EarApsp, BridgeOnlyTreeGraphs) {
  // Trees are the all-bridges extreme of the block-cut tree: every edge is
  // its own block and every internal vertex is an articulation point.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    std::mt19937_64 rng(seed);
    Builder b(16);
    for (graph::VertexId v = 1; v < 16; ++v) {
      const auto parent = static_cast<graph::VertexId>(rng() % v);
      b.add_edge(parent, v, 1.0 + static_cast<double>(rng() % 9));
    }
    expect_matches_dijkstra(std::move(b).build(),
                            {.mode = ExecutionMode::Sequential});
  }
}

TEST(EarApsp, SingleBiconnectedBlockGraphs) {
  // The no-articulation extreme: the whole graph is one block and the
  // block-cut tree is a single node, so routing never leaves phase I.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const Graph g = gen::random_biconnected(10, 18, seed);
    expect_matches_dijkstra(g, {.mode = ExecutionMode::Sequential});
  }
}

TEST(EarApsp, SelfLoopPseudoBlockDoesNotBreakRouting) {
  // Regression (found by eardec_fuzz, family=parallel_multi): a self-loop
  // forms a single-vertex pseudo-block whose vertex need not be an
  // articulation point. block_of used to point at the pseudo-block, and
  // cross-block routing then asked TreeLca about two tree nodes with no
  // connecting cut node.
  Builder b(3);
  b.add_edge(0, 0, 5.0);  // loop at the lowest id used to steal block_of
  b.add_edge(0, 1, 1.0);
  b.add_edge(1, 2, 2.0);
  b.add_edge(1, 1, 7.0);  // loop at a true articulation point: still fine
  expect_matches_dijkstra(std::move(b).build(),
                          {.mode = ExecutionMode::Sequential});
}

TEST(EarApsp, ArticulationPointWithLocalDegreeTwoIsKept) {
  // Vertex 2 has degree 2 inside each triangle but global degree 4: it must
  // be pinned in both components' reduced graphs or cross-block routing
  // breaks. Chains around it still contract.
  Builder b(8);
  // Triangle-ish block A with a chain: 0 - 5 - 1 - 2, 2 - 0.
  b.add_edge(0, 5, 1.0);
  b.add_edge(5, 1, 1.0);
  b.add_edge(1, 2, 1.0);
  b.add_edge(2, 0, 5.0);
  // Block B: 2 - 6 - 3 - 4, 4 - 2.
  b.add_edge(2, 6, 1.0);
  b.add_edge(6, 3, 1.0);
  b.add_edge(3, 4, 1.0);
  b.add_edge(4, 2, 5.0);
  // Pendant at 7 for good measure.
  b.add_edge(0, 7, 2.0);
  const Graph g = std::move(b).build();
  const EarApspEngine oracle(g, {.mode = ExecutionMode::Sequential});
  // Sanity on the structural claim: 2 is an AP kept in the reduced graphs.
  EXPECT_TRUE(oracle.bcc().is_articulation[2]);
  expect_matches_dijkstra(g, {.mode = ExecutionMode::Sequential});
}

// ---------------------------------------------------- randomized agreement

struct RandomCase {
  std::uint64_t seed;
  const char* family;
};

class EarApspRandomTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EarApspRandomTest, BlockTreeGraphsMatchDijkstra) {
  const std::uint64_t seed = GetParam();
  Graph g = gen::block_tree({.num_blocks = 8,
                             .largest_block = 14,
                             .small_block_min = 3,
                             .small_block_max = 6,
                             .intra_degree = 3.0,
                             .pendants = 6},
                            seed);
  g = gen::subdivide(g, 25, seed + 77);
  expect_matches_dijkstra(g, {.mode = ExecutionMode::Sequential});
}

TEST_P(EarApspRandomTest, PlanarGraphsMatchDijkstra) {
  const std::uint64_t seed = GetParam();
  const Graph g = gen::random_planar(6, 7, 0.5, 0.25, seed);
  expect_matches_dijkstra(g, {.mode = ExecutionMode::Sequential});
}

TEST_P(EarApspRandomTest, ConnectedRandomGraphsMatchDijkstra) {
  const std::uint64_t seed = GetParam();
  const Graph g = gen::random_connected(
      45, static_cast<graph::EdgeId>(55 + seed % 25), seed * 31 + 5);
  expect_matches_dijkstra(g, {.mode = ExecutionMode::Sequential},
                          /*check_full_tables=*/false);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EarApspRandomTest,
                         ::testing::Range<std::uint64_t>(1, 11));

// ------------------------------------------------------- execution modes

class ExecutionModeTest : public ::testing::TestWithParam<ExecutionMode> {};

TEST_P(ExecutionModeTest, AllModesAgreeWithDijkstra) {
  Graph g = gen::block_tree({.num_blocks = 6,
                             .largest_block = 16,
                             .small_block_min = 3,
                             .small_block_max = 5,
                             .intra_degree = 3.2,
                             .pendants = 4},
                            99);
  g = gen::subdivide(g, 30, 100);
  const ApspOptions opts{.mode = GetParam(),
                         .cpu_threads = 3,
                         .device = {.workers = 2, .warp_size = 8},
                         .sources_per_unit = 4};
  expect_matches_dijkstra(g, opts);
}

INSTANTIATE_TEST_SUITE_P(Modes, ExecutionModeTest,
                         ::testing::Values(ExecutionMode::Sequential,
                                           ExecutionMode::Multicore,
                                           ExecutionMode::DeviceOnly,
                                           ExecutionMode::Heterogeneous),
                         [](const auto& mode_info) {
                           switch (mode_info.param) {
                             case ExecutionMode::Sequential: return "Sequential";
                             case ExecutionMode::Multicore: return "Multicore";
                             case ExecutionMode::DeviceOnly: return "DeviceOnly";
                             case ExecutionMode::Heterogeneous:
                               return "Heterogeneous";
                           }
                           return "Unknown";
                         });

// ------------------------------------------------------------- ear matrix

TEST(EarApsp, MatrixMatchesPerPairQueries) {
  const Graph g = gen::subdivide(gen::random_biconnected(12, 20, 7), 20, 8);
  const DistanceMatrix m =
      ear_apsp_matrix(g, {.mode = ExecutionMode::Sequential});
  const EarApsp apsp(g, {.mode = ExecutionMode::Sequential});
  for (graph::VertexId u = 0; u < g.num_vertices(); ++u) {
    for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
      EXPECT_DOUBLE_EQ(m.at(u, v), apsp.distance(u, v));
    }
  }
}

// -------------------------------------------------------------- telemetry

TEST(EarApsp, TimingsAndStatsPopulated) {
  const Graph g = gen::subdivide(gen::random_biconnected(20, 40, 5), 60, 6);
  const EarApspEngine oracle(g, {.mode = ExecutionMode::Sequential});
  EXPECT_EQ(oracle.num_components(), 1u);
  EXPECT_GT(oracle.sssp_runs(), 0u);
  EXPECT_EQ(oracle.sssp_runs(), oracle.reduced(0).graph().num_vertices());
  EXPECT_LT(oracle.sssp_runs(), g.num_vertices());  // ears actually helped
  EXPECT_GE(oracle.timings().total(), 0.0);
  EXPECT_GT(oracle.scheduler_stats().cpu_units, 0u);
}

TEST(EarApsp, MemoryModelOrdering) {
  // A graph with many blocks and chains must need far less than n^2.
  Graph g = gen::block_tree({.num_blocks = 20,
                             .largest_block = 30,
                             .small_block_min = 3,
                             .small_block_max = 6,
                             .intra_degree = 3.0,
                             .pendants = 10},
                            3);
  g = gen::subdivide(g, 150, 4);
  const EarApspEngine oracle(g, {.mode = ExecutionMode::Sequential});
  const MemoryUsage& mu = oracle.memory();
  EXPECT_LT(mu.ours_bytes(), mu.full_table_bytes);
  EXPECT_LT(mu.compact_tables_bytes, mu.block_tables_bytes);
  EXPECT_GT(mu.ours_mb(), 0.0);
  EXPECT_GT(mu.full_mb(), 0.0);
  EXPECT_GT(mu.compact_mb(), 0.0);
}

TEST(EarApsp, CompactModelCountsTheTablesTheEngineHolds) {
  // The compact model is the packed triangles the engine allocates, to the
  // byte; the paper's column stays square.
  Graph g = gen::block_tree({.num_blocks = 12,
                             .largest_block = 40,
                             .small_block_min = 3,
                             .small_block_max = 8,
                             .pendants = 6},
                            9);
  g = gen::subdivide(g, 80, 10);
  const EarApspEngine oracle(g, {.mode = ExecutionMode::Sequential});
  const MemoryUsage& mu = oracle.memory();
  std::uint64_t table_bytes = 0;
  for (std::uint32_t c = 0; c < oracle.num_components(); ++c) {
    table_bytes += oracle.reduced_table(c).bytes();
  }
  EXPECT_EQ(mu.compact_tables_bytes, table_bytes);
  EXPECT_EQ(mu.compact_ap_table_bytes, oracle.ap_table().bytes());
  EXPECT_DOUBLE_EQ(
      mu.compact_mb() * 1024 * 1024,
      static_cast<double>(table_bytes + oracle.ap_table().bytes()));
  const std::uint64_t a = oracle.block_cut_tree().cut_vertices().size();
  ASSERT_GT(a, 1u);
  EXPECT_EQ(mu.ap_table_bytes, a * a * sizeof(graph::Weight));
}

TEST(EarApsp, QueriesValidateArguments) {
  const Graph g = gen::cycle(4);
  const EarApspEngine oracle(g, {.mode = ExecutionMode::Sequential});
  EXPECT_THROW((void)oracle.query(0, 4), std::out_of_range);
  const EarApsp full(g, {.mode = ExecutionMode::Sequential});
  EXPECT_THROW((void)full.distance(4, 0), std::out_of_range);
}

// ------------------------------------------------------ route classification

TEST(EarApsp, RouteKindMatchesBlockCutTreeOnAllPairs) {
  // route(u, v).kind must agree with a classification read straight off
  // the block-cut tree and query(): Trivial iff u == v, Disconnected iff
  // the distance is infinite, SameBlock iff two non-AP endpoints share a
  // block, CrossBlock otherwise.
  using Kind = QueryRoute::Kind;
  for (const char* name :
       {"block_cut", "bridge_tree", "lollipop", "sparse_connected",
        "disconnected"}) {
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      SCOPED_TRACE(std::string(name) + " seed " + std::to_string(seed));
      const Graph g = eardec::testing::family(name).make(seed, 24);
      const EarApspEngine eng(g, {.mode = ExecutionMode::Sequential});
      const connectivity::BlockCutTree& bct = eng.block_cut_tree();
      const auto is_ap = [&](graph::VertexId x) {
        return bct.cut_index(x) != connectivity::kNoComponent;
      };
      std::array<std::size_t, 4> seen{};
      const graph::VertexId n = g.num_vertices();
      for (graph::VertexId u = 0; u < n; ++u) {
        for (graph::VertexId v = 0; v < n; ++v) {
          Kind want = Kind::CrossBlock;
          if (u == v) {
            want = Kind::Trivial;
          } else if (eng.query(u, v) == graph::kInfWeight) {
            want = Kind::Disconnected;
          } else if (!is_ap(u) && !is_ap(v) &&
                     bct.block_of(u) == bct.block_of(v)) {
            want = Kind::SameBlock;
          }
          const Kind got = eng.route(u, v).kind;
          ASSERT_EQ(got, want) << "pair " << u << "," << v;
          ++seen[static_cast<std::size_t>(got)];
        }
      }
      EXPECT_EQ(seen[static_cast<std::size_t>(Kind::Trivial)], n);
      if (std::string_view(name) == "disconnected") {
        EXPECT_GT(seen[static_cast<std::size_t>(Kind::Disconnected)], 0u);
      }
      if (std::string_view(name) == "block_cut") {
        EXPECT_GT(seen[static_cast<std::size_t>(Kind::SameBlock)], 0u);
        EXPECT_GT(seen[static_cast<std::size_t>(Kind::CrossBlock)], 0u);
      }
      EXPECT_THROW((void)eng.route(n, 0), std::out_of_range);
      EXPECT_THROW((void)eng.route(0, n), std::out_of_range);
    }
  }
}

// -------------------------------------------------- dataset-scale smoke

TEST(EarApsp, DatasetSmallGraphsExact) {
  // Full-APSP agreement on the small MCB-scale variants of three datasets
  // with very different structure.
  for (const char* name : {"as-22july06", "c-50", "Planar_2"}) {
    SCOPED_TRACE(name);
    const Graph g = graph::datasets::by_name(name).make_small();
    const EarApspEngine oracle(
        g, {.mode = ExecutionMode::Multicore, .cpu_threads = 2});
    // Spot-check sources (full check would be slow at this size).
    for (graph::VertexId s = 0; s < g.num_vertices();
         s += std::max<graph::VertexId>(1, g.num_vertices() / 17)) {
      const auto ref = sssp::dijkstra(g, s);
      for (graph::VertexId t = 0; t < g.num_vertices(); ++t) {
        if (ref.dist[t] == graph::kInfWeight) {
          ASSERT_EQ(oracle.query(s, t), graph::kInfWeight);
        } else {
          ASSERT_NEAR(oracle.query(s, t), ref.dist[t], 1e-6)
              << s << "->" << t;
        }
      }
    }
  }
}

}  // namespace
}  // namespace eardec::core
namespace eardec::core {
namespace {

namespace genr = graph::generators;

class RowQueryTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RowQueryTest, DistancesFromMatchesDijkstraRow) {
  const std::uint64_t seed = GetParam();
  graph::Graph g = genr::block_tree({.num_blocks = 7,
                                     .largest_block = 14,
                                     .small_block_min = 3,
                                     .small_block_max = 6,
                                     .intra_degree = 3.0,
                                     .pendants = 5},
                                    seed + 400);
  g = genr::subdivide(g, 25, seed + 401);
  const EarApspEngine oracle(g, {.mode = ExecutionMode::Sequential});
  for (graph::VertexId u = 0; u < g.num_vertices(); u += 6) {
    const auto row = oracle.distances_from(u);
    const auto ref = sssp::dijkstra(g, u);
    ASSERT_EQ(row.size(), g.num_vertices());
    for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
      if (ref.dist[v] == graph::kInfWeight) {
        ASSERT_EQ(row[v], graph::kInfWeight) << u << "->" << v;
      } else {
        ASSERT_NEAR(row[v], ref.dist[v], 1e-6) << u << "->" << v;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RowQueryTest,
                         ::testing::Range<std::uint64_t>(1, 7));

TEST(RowQuery, IsolatedAndDisconnected) {
  graph::Builder b(5);
  b.add_edge(0, 1, 2.0);
  b.add_edge(1, 2, 3.0);
  const graph::Graph g = std::move(b).build();  // 3, 4 isolated
  const EarApspEngine oracle(g, {.mode = ExecutionMode::Sequential});
  const auto row = oracle.distances_from(3);
  EXPECT_DOUBLE_EQ(row[3], 0.0);
  EXPECT_EQ(row[0], graph::kInfWeight);
  const auto row0 = oracle.distances_from(0);
  EXPECT_DOUBLE_EQ(row0[2], 5.0);
  EXPECT_EQ(row0[4], graph::kInfWeight);
  EXPECT_THROW((void)oracle.distances_from(5), std::out_of_range);
}

}  // namespace
}  // namespace eardec::core
