// Tests for the alternative SSSP kernels: delta-stepping and the batched
// multi-source kernel. Both must agree exactly — bit for bit — with
// Dijkstra.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cfloat>
#include <numeric>
#include <string>
#include <tuple>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "sssp/delta_stepping.hpp"
#include "sssp/dijkstra.hpp"
#include "sssp/multi_source.hpp"
#include "testing/families.hpp"

namespace eardec::sssp {
namespace {

namespace gen = graph::generators;
using graph::Builder;
using graph::Graph;

class DeltaSteppingTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DeltaSteppingTest, MatchesDijkstraAcrossDeltas) {
  const std::uint64_t seed = GetParam();
  const Graph g = gen::random_connected(
      70, static_cast<graph::EdgeId>(150 + 13 * seed), seed);
  for (const graph::Weight delta : {0.0, 1.0, 10.0, 50.0, 1e9}) {
    for (graph::VertexId s = 0; s < g.num_vertices(); s += 23) {
      const auto got = delta_stepping(g, s, delta);
      const auto ref = dijkstra(g, s);
      for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
        ASSERT_DOUBLE_EQ(got[v], ref.dist[v])
            << "delta " << delta << " source " << s << " vertex " << v;
      }
    }
  }
}

TEST_P(DeltaSteppingTest, ParallelMatchesSerial) {
  const std::uint64_t seed = GetParam();
  const Graph g = gen::random_connected(
      200, static_cast<graph::EdgeId>(600 + 17 * seed), seed + 77);
  hetero::ThreadPool pool(3);
  const auto serial = delta_stepping(g, 0, 0);
  const auto parallel = delta_stepping(g, 0, 0, &pool);
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    ASSERT_DOUBLE_EQ(parallel[v], serial[v]) << "vertex " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeltaSteppingTest,
                         ::testing::Range<std::uint64_t>(1, 6));

TEST(DeltaStepping, DisconnectedAndEdgeCases) {
  Builder b(4);
  b.add_edge(0, 1, 3.0);
  const Graph g = std::move(b).build();
  const auto d = delta_stepping(g, 0);
  EXPECT_DOUBLE_EQ(d[1], 3.0);
  EXPECT_EQ(d[2], graph::kInfWeight);
  EXPECT_THROW((void)delta_stepping(g, 4), std::out_of_range);
}

TEST(DeltaStepping, ZeroWeightEdgesTerminate) {
  Builder b(4);
  b.add_edge(0, 1, 0.0);
  b.add_edge(1, 2, 0.0);
  b.add_edge(2, 3, 5.0);
  const Graph g = std::move(b).build();
  const auto d = delta_stepping(g, 0, 2.0);
  EXPECT_DOUBLE_EQ(d[2], 0.0);
  EXPECT_DOUBLE_EQ(d[3], 5.0);
}

// ---------------------------------------------------------------------------
// Differential suites: every property family (including multigraph,
// disconnected and degenerate-weight ones) must yield bit-identical
// distances from every alternative kernel. EXPECT_EQ, not EXPECT_NEAR —
// the fixpoint argument (docs/sssp_perf.md) promises exact agreement.

class KernelFamilyTest
    : public ::testing::TestWithParam<
          std::tuple<std::size_t, std::uint64_t>> {
 protected:
  [[nodiscard]] Graph make_graph() const {
    const auto& fam = eardec::testing::families()[std::get<0>(GetParam())];
    return fam.make(std::get<1>(GetParam()), 48);
  }
  [[nodiscard]] std::string family_name() const {
    return eardec::testing::families()[std::get<0>(GetParam())].name;
  }
};

TEST_P(KernelFamilyTest, MultiSourceBitMatchesDijkstra) {
  const Graph g = make_graph();
  const graph::VertexId n = g.num_vertices();
  if (n == 0) GTEST_SKIP() << "empty instance";
  // One workspace reused across batch widths: also exercises ensure()
  // growth and proves stale lane data never leaks between runs.
  MultiSourceWorkspace ws;
  for (const std::uint32_t k : {1u, 3u, 8u, kMaxSourceLanes}) {
    DistanceMatrix out(n);
    ws.ensure(n, k);
    for (graph::VertexId s = 0; s < n; s += k) {
      ws.distances(g, s, std::min<graph::VertexId>(s + k, n), out);
    }
    for (graph::VertexId s = 0; s < n; ++s) {
      const auto ref = dijkstra(g, s);
      for (graph::VertexId v = 0; v < n; ++v) {
        ASSERT_EQ(out.at(s, v), ref.dist[v])
            << family_name() << " k=" << k << " source " << s << " vertex "
            << v;
      }
    }
  }
}

TEST_P(KernelFamilyTest, DeltaSteppingWorkspaceBitMatchesDijkstra) {
  const Graph g = make_graph();
  const graph::VertexId n = g.num_vertices();
  if (n == 0) GTEST_SKIP() << "empty instance";
  hetero::ThreadPool pool(3);
  DeltaSteppingWorkspace serial_ws(n);
  DeltaSteppingWorkspace pool_ws(n);
  std::vector<graph::Weight> serial(n);
  std::vector<graph::Weight> parallel(n);
  for (graph::VertexId s = 0; s < n; ++s) {
    const auto ref = dijkstra(g, s);
    // delta = 0 -> heuristic width; degenerate-weight families rely on it
    // to keep the bucket count bounded by the edge count.
    serial_ws.distances(g, s, serial);
    pool_ws.distances(g, s, parallel, 0, &pool);
    for (graph::VertexId v = 0; v < n; ++v) {
      ASSERT_EQ(serial[v], ref.dist[v])
          << family_name() << " serial source " << s << " vertex " << v;
      ASSERT_EQ(parallel[v], ref.dist[v])
          << family_name() << " pooled source " << s << " vertex " << v;
    }
  }
}

std::string kernel_family_test_name(
    const ::testing::TestParamInfo<KernelFamilyTest::ParamType>& info) {
  std::string name = eardec::testing::families()[std::get<0>(info.param)].name;
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name + "_seed" + std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    Families, KernelFamilyTest,
    ::testing::Combine(
        ::testing::Range<std::size_t>(0, eardec::testing::families().size()),
        ::testing::Values<std::uint64_t>(1, 2)),
    kernel_family_test_name);

TEST(MultiSource, RejectsBadBatches) {
  const Graph g = gen::cycle(6);
  MultiSourceWorkspace ws(g.num_vertices(), 4);
  DistanceMatrix out(g.num_vertices());
  EXPECT_THROW(ws.distances(g, 2, 1, out), std::out_of_range);  // empty
  EXPECT_THROW(ws.distances(g, 0, 5, out), std::invalid_argument);  // > lanes
  EXPECT_THROW(ws.distances(g, 4, 8, out), std::out_of_range);
}

TEST(MultiSource, RejectsANarrowBatchOnAGraphLargerThanEnsured) {
  // ensure(10, 64) leaves room for 640 lane cells but only 10 vertices; a
  // 2-lane batch on 300 vertices needs 600 cells, which fit, yet its
  // per-vertex flags would run past the 10 that were sized.
  MultiSourceWorkspace ws(10, 64);
  const Graph g = gen::cycle(300);
  DistanceMatrix matrix(g.num_vertices());
  TriangleMatrix triangle(g.num_vertices());
  const std::vector<graph::VertexId> sources{0, 299};
  EXPECT_THROW(ws.distances(g, sources, matrix), std::invalid_argument);
  EXPECT_THROW(ws.distances(g, 0, 2, matrix), std::invalid_argument);
  EXPECT_THROW(ws.distances(g, 0, 2, triangle), std::invalid_argument);
  ws.ensure(g.num_vertices(), 2);
  ws.distances(g, sources, matrix);
  EXPECT_EQ(matrix.at(299, 0), dijkstra(g, 299).dist[0]);
}

TEST(MultiSource, TriangleOutputIsTheLowerTriangleOfTheMatrix) {
  const Graph g = gen::random_connected(90, 260, 7);
  const graph::VertexId n = g.num_vertices();
  MultiSourceWorkspace ws;
  for (const std::uint32_t k : {1u, 4u, 16u, kMaxSourceLanes}) {
    ws.ensure(n, k);
    DistanceMatrix full(n);
    TriangleMatrix tri(n);
    for (graph::VertexId s = 0; s < n; s += k) {
      const graph::VertexId end = std::min<graph::VertexId>(s + k, n);
      ws.distances(g, s, end, full);
      ws.distances(g, s, end, tri);
    }
    for (graph::VertexId s = 0; s < n; ++s) {
      for (graph::VertexId v = 0; v <= s; ++v) {
        ASSERT_EQ(tri.head(s)[v], full.at(s, v))
            << "k=" << k << " source " << s << " vertex " << v;
      }
    }
  }
}

TEST(MultiSource, RejectsAnOutputOfTheWrongSize) {
  const Graph g = gen::cycle(6);
  MultiSourceWorkspace ws(g.num_vertices(), 4);
  DistanceMatrix matrix(g.num_vertices() + 1);
  TriangleMatrix triangle(g.num_vertices() - 1);
  EXPECT_THROW(ws.distances(g, 0, 4, matrix), std::invalid_argument);
  EXPECT_THROW(ws.distances(g, 0, 4, triangle), std::invalid_argument);
}

TEST(MultiSource, ReportsFrontierRounds) {
  // A path graph forces one frontier round per hop.
  Builder b(5);
  for (graph::VertexId v = 0; v + 1 < 5; ++v) b.add_edge(v, v + 1, 1.0);
  const Graph g = std::move(b).build();
  MultiSourceWorkspace ws(g.num_vertices(), 1);
  DistanceMatrix out(g.num_vertices());
  ws.distances(g, 0, 1, out);
  EXPECT_GE(ws.last_rounds(), 4u);
  EXPECT_DOUBLE_EQ(out.at(0, 4), 4.0);
}

// Odd batch widths leave a padding lane in the lane block. This graph mixes
// zero-weight edges with weights near DBL_MAX whose sums overflow to +inf,
// and has an isolated vertex, so every row holds 0, finite and +inf cells.
// A random core carries zero and huge edges; a tail hangs off vertex 0:
// 0 -(0.6 DBL_MAX)- t -(0.6 DBL_MAX)- t+1 -(0)- t+2, so from the core t is
// finite but huge and t+1, t+2 are +inf (the sum overflows).
Graph extreme_weight_graph() {
  const Graph base = gen::random_connected(70, 180, 11);
  const graph::VertexId t = base.num_vertices();
  Builder b(t + 4);
  b.add_edge(0, t, DBL_MAX * 0.6);
  b.add_edge(t, t + 1, DBL_MAX * 0.6);
  b.add_edge(t + 1, t + 2, 0.0);
  for (graph::EdgeId e = 0; e < base.num_edges(); ++e) {
    const auto [u, v] = base.endpoints(e);
    graph::Weight w = base.weight(e);
    if (e % 5 == 0) {
      w = 0.0;
    } else if (e % 7 == 0) {
      w = DBL_MAX * 0.6;
    } else if (e % 11 == 0) {
      w = DBL_MAX;
    }
    b.add_edge(u, v, w);
  }
  return std::move(b).build();
}

constexpr std::uint32_t kEdgeWidths[] = {2, 5, 15, 17, 63};

TEST(MultiSource, OddWidthsWithDuplicateSourcesMatchDijkstra) {
  const Graph g = extreme_weight_graph();
  const graph::VertexId n = g.num_vertices();
  MultiSourceWorkspace ws;
  for (const std::uint32_t k : kEdgeWidths) {
    ws.ensure(n, k);
    DistanceMatrix out(n);
    // Lanes [0, k - 1) cover the next sources; the last lane repeats lane 0.
    for (graph::VertexId s = 0; s < n; s += k - 1) {
      std::vector<graph::VertexId> sources;
      for (std::uint32_t lane = 0; lane + 1 < k; ++lane) {
        sources.push_back((s + lane) % n);
      }
      sources.push_back(s);
      ws.distances(g, sources, out);
    }
    std::size_t huge = 0;
    std::size_t overflowed = 0;
    for (graph::VertexId s = 0; s < n; ++s) {
      const auto ref = dijkstra(g, s);
      for (graph::VertexId v = 0; v < n; ++v) {
        ASSERT_EQ(out.at(s, v), ref.dist[v])
            << "k=" << k << " source " << s << " vertex " << v;
        if (s + 1 < n && v + 1 < n) {
          huge += ref.dist[v] >= DBL_MAX * 0.5 && ref.dist[v] <= DBL_MAX;
          overflowed += ref.dist[v] == graph::kInfWeight;
        }
      }
    }
    // The graph really has near-DBL_MAX labels and paths that overflowed.
    EXPECT_GT(huge, 0u);
    EXPECT_GT(overflowed, 0u);
    EXPECT_EQ(out.at(0, n - 1), graph::kInfWeight);
  }
}

TEST(MultiSource, OddWidthTrianglesMatchDijkstra) {
  const Graph g = extreme_weight_graph();
  const graph::VertexId n = g.num_vertices();
  MultiSourceWorkspace ws;
  for (const std::uint32_t k : kEdgeWidths) {
    ws.ensure(n, k);
    TriangleMatrix tri(n);
    for (graph::VertexId s = 0; s < n; s += k) {
      ws.distances(g, s, std::min<graph::VertexId>(s + k, n), tri);
    }
    for (graph::VertexId s = 0; s < n; ++s) {
      const auto ref = dijkstra(g, s);
      for (graph::VertexId v = 0; v <= s; ++v) {
        ASSERT_EQ(tri.head(s)[v], ref.dist[v])
            << "k=" << k << " source " << s << " vertex " << v;
      }
    }
  }
}

TEST(MultiSource, PaddingLaneNeverExtendsTheFrontier) {
  // A batch of odd width k and the same batch with lane 0 repeated (width
  // k + 1) relax identical labels, so they must take the same rounds.
  const Graph g = extreme_weight_graph();
  const graph::VertexId n = g.num_vertices();
  MultiSourceWorkspace ws(n, kMaxSourceLanes);
  DistanceMatrix out(n);
  for (const std::uint32_t k : {5u, 15u, 17u, 63u}) {
    std::vector<graph::VertexId> sources;
    for (std::uint32_t lane = 0; lane < k; ++lane) {
      sources.push_back((3 * lane + 1) % n);
    }
    ws.distances(g, sources, out);
    const std::uint32_t odd_rounds = ws.last_rounds();
    sources.push_back(sources.front());
    ws.distances(g, sources, out);
    EXPECT_EQ(ws.last_rounds(), odd_rounds) << "k=" << k;
  }
}

TEST(MultiSource, FrontierRoundsOnAFixedGraph) {
  // Values recorded from the scalar per-lane loop this kernel replaced;
  // the vector loop must visit the same frontiers.
  const Graph g = gen::random_connected(60, 150, 5);
  MultiSourceWorkspace ws(g.num_vertices(), 17);
  DistanceMatrix out(g.num_vertices());
  ws.distances(g, 0, 1, out);
  EXPECT_EQ(ws.last_rounds(), 10u);
  ws.distances(g, 10, 17, out);
  EXPECT_EQ(ws.last_rounds(), 10u);
  ws.distances(g, 40, 57, out);
  EXPECT_EQ(ws.last_rounds(), 10u);
  const Graph x = extreme_weight_graph();
  MultiSourceWorkspace wx(x.num_vertices(), 15);
  DistanceMatrix xout(x.num_vertices());
  wx.distances(x, 20, 35, xout);
  EXPECT_EQ(wx.last_rounds(), 15u);
}

TEST(MultiSource, EveryWidthMatchesDijkstraInBothForms) {
  // The round loop is compiled once per padded stride (2, 4, ..., 64), so
  // every width from 1 to 64 crosses each power-of-two boundary on both
  // sides. Each batch is exactly k wide: the arbitrary-source form takes k
  // consecutive entries of a scrambled source order (wrapping around), the
  // triangle form the range [min(s, n - k), +k).
  const Graph g = extreme_weight_graph();
  const graph::VertexId n = g.num_vertices();
  ASSERT_GT(n, kMaxSourceLanes);
  std::vector<std::vector<graph::Weight>> ref;
  for (graph::VertexId s = 0; s < n; ++s) ref.push_back(dijkstra(g, s).dist);
  graph::VertexId step = 29;
  while (std::gcd(step, n) != 1) ++step;
  MultiSourceWorkspace ws;
  for (std::uint32_t k = 1; k <= kMaxSourceLanes; ++k) {
    ws.ensure(n, k);
    DistanceMatrix out(n);
    TriangleMatrix tri(n);
    for (graph::VertexId s = 0; s < n; s += k) {
      std::vector<graph::VertexId> sources;
      for (std::uint32_t lane = 0; lane < k; ++lane) {
        sources.push_back(static_cast<graph::VertexId>(
            (static_cast<std::uint64_t>(s + lane) % n) * step % n));
      }
      ws.distances(g, sources, out);
      const graph::VertexId begin = std::min<graph::VertexId>(s, n - k);
      ws.distances(g, begin, begin + k, tri);
    }
    for (graph::VertexId s = 0; s < n; ++s) {
      for (graph::VertexId v = 0; v < n; ++v) {
        ASSERT_EQ(out.at(s, v), ref[s][v])
            << "k=" << k << " source " << s << " vertex " << v;
        if (v <= s) {
          ASSERT_EQ(tri.head(s)[v], ref[s][v])
              << "triangle k=" << k << " source " << s << " vertex " << v;
        }
      }
    }
  }
}

TEST(MultiSource, ARoundThatQueuesEveryOtherVertexStaysInBounds) {
  // The round loop stores each scanned vertex one slot past the next
  // frontier's end before deciding whether to count it. A round can queue
  // every vertex but the last one it expands (only that vertex's own scan
  // could improve it, and weights are non-negative), so the store reaches
  // index n - 1. Here the center of a star is the only frontier vertex and
  // every leaf hangs on two parallel edges: the center's last scan revisits
  // a leaf after all n - 1 leaves are queued. The workspace is ensured to
  // exactly this graph, so its queues are as short as ensure() makes them
  // and a store past them leaves the allocation (the asan preset reports
  // it).
  const graph::VertexId n = 40;
  Builder b(n);
  for (graph::VertexId leaf = 1; leaf < n; ++leaf) {
    b.add_edge(0, leaf, 2.0 + leaf);
    b.add_edge(leaf, 0, 1.0 + leaf);
  }
  const Graph g = std::move(b).build();
  for (const std::uint32_t k : {1u, 2u, 16u, kMaxSourceLanes}) {
    MultiSourceWorkspace ws(n, k);
    DistanceMatrix out(n);
    const std::vector<graph::VertexId> sources(k, 0);
    ws.distances(g, sources, out);
    // Round 1 queues every leaf; round 2 expands them and queues nothing.
    EXPECT_EQ(ws.last_rounds(), 2u) << "k=" << k;
    const auto ref = dijkstra(g, 0);
    for (graph::VertexId v = 0; v < n; ++v) {
      ASSERT_EQ(out.at(0, v), ref.dist[v]) << "k=" << k << " vertex " << v;
    }
  }
}

}  // namespace
}  // namespace eardec::sssp
