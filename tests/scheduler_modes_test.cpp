// Scheduler correctness properties: (1) the four execution modes are
// observationally identical — same distance tables on random graphs, only
// the resource mapping differs; (2) the parallel fill of the AP table gives
// the routed answers, and the same table in every mode; (3) the
// chunk-claiming queue survives heavy contention (many tiny units, more
// workers than cores) with every unit executed exactly once. These are the
// invariants the Phase-II pipeline rests on (DESIGN.md §5, invariant 6).
#include <atomic>
#include <bit>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/ear_apsp.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "hetero/scheduler.hpp"
#include "hetero/work_queue.hpp"
#include "sssp/dijkstra.hpp"

namespace eardec {
namespace {

namespace gen = graph::generators;
using core::ApspOptions;
using core::ExecutionMode;
using graph::Graph;
using graph::VertexId;
using sssp::DistanceMatrix;
using sssp::TriangleMatrix;

ApspOptions mode_options(ExecutionMode mode) {
  return {.mode = mode,
          .cpu_threads = 3,
          .device = {.workers = 2, .warp_size = 16},
          .sources_per_unit = 4};
}

void expect_identical(const DistanceMatrix& want, const DistanceMatrix& got,
                      const char* mode_name) {
  ASSERT_EQ(want.size(), got.size());
  for (VertexId u = 0; u < want.size(); ++u) {
    for (VertexId v = 0; v < want.size(); ++v) {
      // Weights are integer-valued, so every mode must agree bit-for-bit.
      ASSERT_EQ(want.at(u, v), got.at(u, v))
          << mode_name << " differs at (" << u << ", " << v << ")";
    }
  }
}

class SchedulerModesTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SchedulerModesTest, AllModesProduceIdenticalDistanceTables) {
  const std::uint64_t seed = GetParam();
  gen::BlockTreeParams params;
  params.num_blocks = 6;
  params.largest_block = 24;
  params.small_block_min = 3;
  params.small_block_max = 9;
  params.pendants = 5;
  const Graph base = gen::block_tree(params, seed);
  const Graph g = gen::subdivide(base, 40, seed + 17);

  const DistanceMatrix reference =
      core::ear_apsp_matrix(g, mode_options(ExecutionMode::Sequential));
  for (const ExecutionMode mode :
       {ExecutionMode::Multicore, ExecutionMode::DeviceOnly,
        ExecutionMode::Heterogeneous}) {
    const DistanceMatrix got = core::ear_apsp_matrix(g, mode_options(mode));
    expect_identical(reference, got,
                     mode == ExecutionMode::Multicore      ? "Multicore"
                     : mode == ExecutionMode::DeviceOnly   ? "DeviceOnly"
                                                           : "Heterogeneous");
  }
}

TEST_P(SchedulerModesTest, MaterializedTablesMatchAcrossModes) {
  const std::uint64_t seed = GetParam();
  const Graph g =
      gen::subdivide(gen::random_connected(40, 70, seed), 30, seed + 3);
  const core::EarApsp reference(g, mode_options(ExecutionMode::Sequential));
  for (const ExecutionMode mode :
       {ExecutionMode::Multicore, ExecutionMode::Heterogeneous}) {
    const core::EarApsp apsp(g, mode_options(mode));
    for (VertexId u = 0; u < g.num_vertices(); u += 3) {
      for (VertexId v = 0; v < g.num_vertices(); v += 2) {
        ASSERT_EQ(reference.distance(u, v), apsp.distance(u, v))
            << "pair (" << u << ", " << v << ")";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerModesTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u));

// Phase III stage 2 fills the AP triangle in two parallel passes: blocks
// write their same-block cut pairs, then each source AP walks the
// block-cut tree and writes the cross-block cells of its own row. Multicore
// at 3 threads runs both passes across the pool (under TSan in CI).

Graph ap_block_tree(std::uint64_t seed) {
  gen::BlockTreeParams params;
  params.num_blocks = 14;
  params.largest_block = 24;
  params.small_block_min = 3;
  params.small_block_max = 8;
  params.small_intra_degree = 2.0;  // near-cycles: chains to contract
  params.pendants = 6;
  return gen::block_tree(params, seed);  // integer weights
}

/// Two block trees side by side: cut pairs across them have no path.
Graph ap_forest(std::uint64_t seed) {
  const Graph a = ap_block_tree(seed);
  const Graph b = ap_block_tree(seed + 50);
  graph::Builder builder(a.num_vertices() + b.num_vertices());
  for (graph::EdgeId e = 0; e < a.num_edges(); ++e) {
    const auto [u, v] = a.endpoints(e);
    builder.add_edge(u, v, a.weight(e));
  }
  for (graph::EdgeId e = 0; e < b.num_edges(); ++e) {
    const auto [u, v] = b.endpoints(e);
    builder.add_edge(a.num_vertices() + u, a.num_vertices() + v, b.weight(e));
  }
  return std::move(builder).build();
}

void expect_ap_table_consistent(const Graph& g, bool two_trees) {
  const core::EarApspEngine engine(g, mode_options(ExecutionMode::Multicore));
  const auto& bct = engine.block_cut_tree();
  const auto& cuts = bct.cut_vertices();
  ASSERT_GE(cuts.size(), 4u) << "too few articulation points to test";
  // Same-block pairs: one S^r cell, equal to block_distance bit for bit.
  std::size_t same_block = 0;
  for (std::uint32_t b = 0; b < bct.num_blocks(); ++b) {
    for (const std::uint32_t nx : bct.neighbors(b)) {
      for (const std::uint32_t ny : bct.neighbors(b)) {
        const VertexId x = cuts[nx - bct.num_blocks()];
        const VertexId y = cuts[ny - bct.num_blocks()];
        if (x == y) continue;
        ++same_block;
        ASSERT_EQ(engine.ap_distance(x, y),
                  engine.block_distance(b, engine.component_local(b, x),
                                        engine.component_local(b, y)))
            << "block " << b << " cuts " << x << ", " << y;
      }
    }
  }
  EXPECT_GT(same_block, 0u);
  // Every pair: the routed query, and Dijkstra (weights are integers).
  std::size_t cross_tree = 0;
  for (const VertexId x : cuts) {
    const auto ref = sssp::dijkstra(g, x);
    for (const VertexId y : cuts) {
      const graph::Weight d = engine.ap_distance(x, y);
      ASSERT_EQ(d, engine.query(x, y)) << "cuts " << x << ", " << y;
      ASSERT_EQ(d, ref.dist[y]) << "cuts " << x << ", " << y;
      if (engine.route(x, y).kind == core::QueryRoute::Kind::Disconnected) {
        ++cross_tree;
        ASSERT_EQ(d, graph::kInfWeight) << "cuts " << x << ", " << y;
      }
    }
  }
  EXPECT_EQ(cross_tree > 0, two_trees);
}

TEST_P(SchedulerModesTest, ApTableMatchesQueryAndDijkstraOnEveryCutPair) {
  expect_ap_table_consistent(ap_block_tree(GetParam()), false);
}

TEST_P(SchedulerModesTest, ApTableOfAForestKeepsCrossTreePairsInfinite) {
  expect_ap_table_consistent(ap_forest(GetParam()), true);
}

TEST_P(SchedulerModesTest, ApTablesMatchAcrossModes) {
  const Graph g = ap_forest(GetParam());
  const core::EarApspEngine reference(g,
                                      mode_options(ExecutionMode::Sequential));
  const TriangleMatrix& want = reference.ap_table();
  for (const ExecutionMode mode :
       {ExecutionMode::Multicore, ExecutionMode::Heterogeneous}) {
    const core::EarApspEngine engine(g, mode_options(mode));
    const TriangleMatrix& got = engine.ap_table();
    ASSERT_EQ(want.size(), got.size());
    for (VertexId i = 0; i < want.size(); ++i) {
      for (VertexId j = 0; j <= i; ++j) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(want.at(i, j)),
                  std::bit_cast<std::uint64_t>(got.at(i, j)))
            << "mode " << static_cast<int>(mode) << " cell (" << i << ", "
            << j << ")";
      }
    }
  }
}

TEST(SchedulerContention, ManyTinyUnitsEightThreadsExactlyOnce) {
  // Many 1-source units with more workers than this container has cores:
  // the adversarial regime for the chunk-claiming queue. Every unit must
  // run exactly once and the stats must account for all of them.
  constexpr std::uint32_t kUnits = 5000;
  for (int round = 0; round < 3; ++round) {
    hetero::WorkQueue queue([] {
      std::vector<hetero::WorkUnit> units;
      units.reserve(kUnits);
      for (std::uint32_t i = 0; i < kUnits; ++i) units.push_back({i, i % 17});
      return units;
    }());
    std::vector<std::atomic<int>> hits(kUnits);
    const auto work = [&hits](const hetero::WorkUnit& u, unsigned) {
      hits[u.id].fetch_add(1);
    };
    const auto stats = hetero::run_heterogeneous(
        queue, {.cpu_threads = 8, .cpu_batch = 1, .device_batch = 4},
        work, work);
    for (std::uint32_t i = 0; i < kUnits; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "unit " << i << " round " << round;
    }
    EXPECT_EQ(stats.cpu_units + stats.device_units, kUnits);
    EXPECT_TRUE(queue.empty());
    EXPECT_EQ(queue.remaining(), 0u);
    std::uint64_t claimed = 0;
    for (const auto& w : stats.cpu_workers) claimed += w.units;
    claimed += stats.device_worker.units;
    EXPECT_EQ(claimed, kUnits);
  }
}

TEST(SchedulerContention, OneSourceUnitsMatchSequentialPipeline) {
  // End-to-end variant: sources_per_unit == 1 floods phase II with tiny
  // units; 8 CPU threads plus the device drain them. The distance tables
  // must still match the sequential run exactly.
  const Graph g = gen::subdivide(gen::random_connected(60, 110, 42), 60, 7);
  ApspOptions contended;
  contended.mode = ExecutionMode::Heterogeneous;
  contended.cpu_threads = 8;
  contended.device = {.workers = 2, .warp_size = 16};
  contended.sources_per_unit = 1;
  contended.cpu_batch = 1;
  contended.device_batch = 2;
  const DistanceMatrix reference =
      core::ear_apsp_matrix(g, mode_options(ExecutionMode::Sequential));
  const DistanceMatrix got = core::ear_apsp_matrix(g, contended);
  expect_identical(reference, got, "Heterogeneous/1-source-units");
}

}  // namespace
}  // namespace eardec
