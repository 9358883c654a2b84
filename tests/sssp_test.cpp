// Tests for the SSSP/APSP kernels: Dijkstra (tree + workspace), the
// device frontier kernel, and Floyd–Warshall. The three must agree exactly
// with one another on every graph. Also the page-backed table allocator.
#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "sssp/dijkstra.hpp"
#include "sssp/distance_matrix.hpp"
#include "sssp/frontier_sssp.hpp"
#include "sssp/page_allocator.hpp"
#include "testing/floyd_warshall.hpp"

namespace eardec::sssp {
namespace {

namespace gen = graph::generators;
using graph::Builder;
using graph::Graph;
using eardec::testing::adjacency_matrix;
using eardec::testing::floyd_warshall;

TEST(Dijkstra, HandComputedPath) {
  Builder b(5);
  b.add_edge(0, 1, 2.0);
  b.add_edge(1, 2, 3.0);
  b.add_edge(0, 3, 10.0);
  b.add_edge(2, 3, 1.0);
  const Graph g = std::move(b).build();  // vertex 4 isolated
  const ShortestPathTree t = dijkstra(g, 0);
  EXPECT_DOUBLE_EQ(t.dist[0], 0.0);
  EXPECT_DOUBLE_EQ(t.dist[1], 2.0);
  EXPECT_DOUBLE_EQ(t.dist[2], 5.0);
  EXPECT_DOUBLE_EQ(t.dist[3], 6.0);  // via 0-1-2-3, not the direct edge
  EXPECT_EQ(t.dist[4], graph::kInfWeight);
  EXPECT_EQ(t.parent[3], 2u);
  EXPECT_EQ(t.parent[0], graph::kNullVertex);
  EXPECT_EQ(t.parent[4], graph::kNullVertex);
}

TEST(Dijkstra, TreeIsConsistentWithDistances) {
  const Graph g = gen::random_connected(120, 360, 21);
  const ShortestPathTree t = dijkstra(g, 7);
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    if (v == 7) continue;
    ASSERT_NE(t.parent[v], graph::kNullVertex);
    EXPECT_NEAR(t.dist[v],
                t.dist[t.parent[v]] + g.weight(t.parent_edge[v]), 1e-9);
    // Triangle inequality across every edge.
  }
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto [u, v] = g.endpoints(e);
    EXPECT_LE(t.dist[u], t.dist[v] + g.weight(e) + 1e-9);
    EXPECT_LE(t.dist[v], t.dist[u] + g.weight(e) + 1e-9);
  }
}

TEST(Dijkstra, WorkspaceMatchesPlainDijkstra) {
  const Graph g = gen::random_connected(80, 200, 33);
  DijkstraWorkspace ws(g.num_vertices());
  std::vector<Weight> dist(g.num_vertices());
  for (VertexId s = 0; s < g.num_vertices(); s += 7) {
    ws.distances(g, s, dist);
    const auto ref = dijkstra(g, s);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      EXPECT_DOUBLE_EQ(dist[v], ref.dist[v]);
    }
  }
}

TEST(Dijkstra, SelfLoopsAndParallelEdgesIgnoredCorrectly) {
  Builder b(3);
  b.add_edge(0, 0, 1.0);   // self-loop never shortens anything
  b.add_edge(0, 1, 5.0);
  b.add_edge(0, 1, 2.0);   // lighter parallel edge wins
  b.add_edge(1, 2, 1.0);
  const Graph g = std::move(b).build();
  const auto t = dijkstra(g, 0);
  EXPECT_DOUBLE_EQ(t.dist[1], 2.0);
  EXPECT_DOUBLE_EQ(t.dist[2], 3.0);
}

TEST(Dijkstra, ZeroWeightEdges) {
  Builder b(3);
  b.add_edge(0, 1, 0.0);
  b.add_edge(1, 2, 0.0);
  const Graph g = std::move(b).build();
  const auto t = dijkstra(g, 0);
  EXPECT_DOUBLE_EQ(t.dist[2], 0.0);
}

TEST(Dijkstra, BadSourceThrows) {
  EXPECT_THROW(dijkstra(gen::cycle(3), 3), std::out_of_range);
}

// --------------------------------------------------------------- frontier

class KernelAgreementTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KernelAgreementTest, FrontierMatchesDijkstra) {
  const std::uint64_t seed = GetParam();
  const Graph g = gen::random_connected(
      60, static_cast<graph::EdgeId>(100 + seed * 11), seed);
  hetero::Device dev({.workers = 2, .warp_size = 16});
  for (VertexId s = 0; s < g.num_vertices(); s += 13) {
    const auto ref = dijkstra(g, s);
    const auto got = frontier_sssp(g, s, dev);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      EXPECT_DOUBLE_EQ(got[v], ref.dist[v]) << "source " << s << " v " << v;
    }
  }
}

TEST_P(KernelAgreementTest, FloydWarshallMatchesDijkstra) {
  const std::uint64_t seed = GetParam();
  const Graph g = gen::random_connected(
      40, static_cast<graph::EdgeId>(70 + seed * 5), seed + 500);
  const DistanceMatrix fw = floyd_warshall(g);
  for (VertexId s = 0; s < g.num_vertices(); s += 9) {
    const auto ref = dijkstra(g, s);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      EXPECT_NEAR(fw.at(s, v), ref.dist[v], 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelAgreementTest,
                         ::testing::Range<std::uint64_t>(1, 7));

TEST(Frontier, DisconnectedVerticesStayInfinite) {
  Builder b(4);
  b.add_edge(0, 1, 1.0);
  const Graph g = std::move(b).build();
  hetero::Device dev;
  const auto d = frontier_sssp(g, 0, dev);
  EXPECT_DOUBLE_EQ(d[1], 1.0);
  EXPECT_EQ(d[2], graph::kInfWeight);
  EXPECT_EQ(d[3], graph::kInfWeight);
}

TEST(Frontier, WorkspaceReusableAndCountsIterations) {
  const Graph g = gen::path(30);
  hetero::Device dev({.workers = 1});
  FrontierWorkspace ws(g.num_vertices());
  std::vector<Weight> dist(g.num_vertices());
  ws.distances(g, 0, dev, dist);
  // A path needs one frontier wave per hop (+1 to detect quiescence).
  EXPECT_GE(ws.last_iterations(), 29u);
  const auto ref = dijkstra(g, 0);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_DOUBLE_EQ(dist[v], ref.dist[v]);
  }
  ws.distances(g, 29, dev, dist);  // reuse from the other end
  EXPECT_DOUBLE_EQ(dist[0], ref.dist[29]);
}

TEST(FloydWarshall, MatrixHelpers) {
  const Graph g = gen::cycle(4);
  const DistanceMatrix a = adjacency_matrix(g);
  EXPECT_EQ(a.size(), 4u);
  EXPECT_DOUBLE_EQ(a.at(0, 0), 0.0);
  EXPECT_EQ(a.at(0, 2), graph::kInfWeight);  // not adjacent on C4
  EXPECT_EQ(a.bytes(), 16u * sizeof(Weight));
  EXPECT_EQ(a.row(1).size(), 4u);
}

TEST(FloydWarshall, EmptyGraph) {
  const DistanceMatrix d = floyd_warshall(Graph{});
  EXPECT_EQ(d.size(), 0u);
}

TEST(TriangleMatrix, PacksTheLowerTriangle) {
  for (const VertexId n : {0u, 1u, 7u}) {
    TriangleMatrix t(n);
    const std::size_t cells = static_cast<std::size_t>(n) * (n + 1) / 2;
    EXPECT_EQ(t.size(), n);
    EXPECT_EQ(t.bytes(), cells * sizeof(Weight));
    // Number every cell through its row head, then read each back both
    // ways round.
    Weight next = 0;
    for (VertexId i = 0; i < n; ++i) {
      ASSERT_EQ(t.head(i).size(), static_cast<std::size_t>(i) + 1);
      for (Weight& w : t.head(i)) w = next++;
    }
    EXPECT_EQ(next, static_cast<Weight>(cells));
    for (VertexId i = 0; i < n; ++i) {
      for (VertexId j = 0; j <= i; ++j) {
        EXPECT_EQ(t.at(i, j), t.head(i)[j]) << i << "," << j;
        EXPECT_EQ(&t.at(j, i), &t.at(i, j)) << i << "," << j;
      }
    }
  }
  const TriangleMatrix fresh(3);
  EXPECT_EQ(fresh.at(0, 2), graph::kInfWeight);
}

TEST(PageAllocator, RetiredTableServesTheNextOfItsSize) {
  if (!kPageBackedTables) GTEST_SKIP() << "tables come from operator new here";
  constexpr std::size_t kN = kMapBytes / sizeof(Weight) + 3;
  const Weight* first = nullptr;
  {
    PageVector<Weight> a(kN, 1.0);
    first = a.data();
  }
  // The next table of that size reuses the retired mapping, fully
  // constructed with its own values.
  const PageVector<Weight> b(kN, 2.0);
  EXPECT_EQ(b.data(), first);
  EXPECT_EQ(std::count(b.begin(), b.end(), 2.0), static_cast<long>(kN));
  // Small tables never touch the mappings.
  const PageVector<Weight> small(16, 3.0);
  EXPECT_EQ(small[15], 3.0);
}

TEST(PageAllocator, KeepsTheNewestRetiredMappings) {
  if (!kPageBackedTables) GTEST_SKIP() << "tables come from operator new here";
  // More retired sizes than slots: the oldest are unmapped to make room and
  // the newest stay kept for reuse.
  std::vector<PageVector<Weight>> tables;
  std::vector<const Weight*> data;
  for (std::size_t i = 0; i < kRetiredMappings + 2; ++i) {
    tables.emplace_back((kMapBytes << i) / sizeof(Weight), static_cast<Weight>(i));
    data.push_back(tables.back().data());
  }
  for (PageVector<Weight>& t : tables) t = PageVector<Weight>();  // oldest first
  const PageVector<Weight> newest((kMapBytes << (kRetiredMappings + 1)) / sizeof(Weight),
                                  7.0);
  EXPECT_EQ(newest.data(), data.back());
  EXPECT_EQ(newest.back(), 7.0);
}

}  // namespace
}  // namespace eardec::sssp
