// Coverage for the remaining public API surface: engine accessors, the
// paper-faithful full tables, stats/timings structures, option defaults,
// and the smaller helpers the feature tests exercise only incidentally.
#include <gtest/gtest.h>

#include "core/ear_apsp.hpp"
#include "graph/builder.hpp"
#include "graph/datasets.hpp"
#include "graph/generators.hpp"
#include "graph/stats.hpp"
#include "mcb/ear_mcb.hpp"
#include "sssp/dijkstra.hpp"

namespace eardec {
namespace {

namespace gen = graph::generators;
using graph::Builder;
using graph::Graph;
using graph::VertexId;

TEST(ApiEngine, AccessorsAreConsistent) {
  Graph g = gen::block_tree({.num_blocks = 4,
                             .largest_block = 10,
                             .small_block_min = 3,
                             .small_block_max = 5,
                             .intra_degree = 3.0,
                             .pendants = 2},
                            9);
  g = gen::subdivide(g, 12, 10);
  const core::EarApspEngine engine(g, {.mode = core::ExecutionMode::Sequential});
  EXPECT_EQ(engine.original_graph().num_vertices(), g.num_vertices());
  EXPECT_EQ(engine.original_graph().num_edges(), g.num_edges());
  EXPECT_EQ(engine.num_components(), engine.bcc().num_components);
  std::uint64_t sssp = 0;
  for (std::uint32_t c = 0; c < engine.num_components(); ++c) {
    const auto& view = engine.component(c);
    const auto& red = engine.reduced(c);
    EXPECT_EQ(red.graph().num_vertices() + red.num_removed(),
              view.graph.num_vertices());
    EXPECT_EQ(engine.reduced_table(c).size(), red.graph().num_vertices());
    sssp += red.graph().num_vertices();
    // Round-trip the vertex maps.
    for (VertexId r = 0; r < red.graph().num_vertices(); ++r) {
      EXPECT_EQ(red.to_reduced(red.to_original(r)), r);
    }
  }
  EXPECT_EQ(engine.sssp_runs(), sssp);
  // AP distances are symmetric and zero on the diagonal.
  const auto& cuts = engine.block_cut_tree().cut_vertices();
  for (const VertexId a : cuts) {
    EXPECT_DOUBLE_EQ(engine.ap_distance(a, a), 0.0);
    for (const VertexId b : cuts) {
      EXPECT_DOUBLE_EQ(engine.ap_distance(a, b), engine.ap_distance(b, a));
    }
  }
}

TEST(ApiEarApsp, BlockTablesMatchEngineFormulas) {
  Graph g = gen::subdivide(gen::random_biconnected(12, 20, 3), 18, 4);
  const core::EarApsp apsp(g, {.mode = core::ExecutionMode::Sequential});
  const auto& engine = apsp.engine();
  for (std::uint32_t c = 0; c < engine.num_components(); ++c) {
    const auto& table = apsp.block_table(c);
    const VertexId n = engine.component(c).graph.num_vertices();
    ASSERT_EQ(table.size(), n);
    for (VertexId u = 0; u < n; ++u) {
      for (VertexId v = 0; v < n; ++v) {
        EXPECT_DOUBLE_EQ(table.at(u, v), engine.block_distance(c, u, v));
      }
    }
  }
  EXPECT_GE(apsp.timings().postprocess, 0.0);
  EXPECT_GE(apsp.timings().total(), apsp.timings().postprocess);
}

TEST(ApiOptions, DefaultsAreSane) {
  const core::ApspOptions a;
  EXPECT_EQ(a.mode, core::ExecutionMode::Heterogeneous);
  EXPECT_TRUE(a.use_ear_reduction);
  EXPECT_GT(a.sources_per_unit, 0u);
  const mcb::McbOptions m;
  EXPECT_TRUE(m.use_ear_decomposition);
  EXPECT_EQ(m.fvs, mcb::FvsAlgorithm::GreedyPeel);
  EXPECT_GT(m.batch_size, 0u);
  const hetero::DeviceConfig d;
  EXPECT_GT(d.workers, 0u);
  EXPECT_GT(d.warp_size, 0u);
}

TEST(ApiStats, McbStatsTotalsAndAccumulate) {
  mcb::McbStats a;
  a.labels_seconds = 1.0;
  a.search_seconds = 0.5;
  a.update_seconds = 0.25;
  a.reduce_seconds = 0.125;
  a.preprocess_seconds = 0.0625;
  a.dimension = 3;
  mcb::McbStats b = a;
  b.accumulate(a);
  EXPECT_DOUBLE_EQ(b.total_seconds(), 2 * a.total_seconds());
  EXPECT_EQ(b.dimension, 6u);
}

TEST(ApiStats, GraphStatsStringMentionsAnomalies) {
  Builder b(3);
  b.add_edge(0, 0, 1.0);
  b.add_edge(1, 2, 1.0);
  b.add_edge(1, 2, 2.0);
  const auto s = graph::compute_stats(std::move(b).build());
  const std::string str = graph::to_string(s);
  EXPECT_NE(str.find("loops="), std::string::npos);
  EXPECT_NE(str.find("multi"), std::string::npos);
}

TEST(ApiMemory, HelpersAreConsistent) {
  const Graph g = gen::block_tree({.num_blocks = 5,
                                   .largest_block = 12,
                                   .small_block_min = 3,
                                   .small_block_max = 4,
                                   .intra_degree = 3.0},
                                  7);
  const core::EarApspEngine oracle(g, {.mode = core::ExecutionMode::Sequential});
  const auto& mu = oracle.memory();
  EXPECT_EQ(mu.ours_bytes(), mu.block_tables_bytes + mu.ap_table_bytes);
  EXPECT_DOUBLE_EQ(mu.ours_mb() * 1024 * 1024,
                   static_cast<double>(mu.ours_bytes()));
  EXPECT_GT(mu.full_table_bytes, 0u);
}

TEST(ApiDatasets, McbSevenIsTable1Prefix) {
  const auto seven = graph::datasets::mcb_seven();
  const auto& all = graph::datasets::table1();
  ASSERT_EQ(seven.size(), 7u);
  for (std::size_t i = 0; i < seven.size(); ++i) {
    EXPECT_EQ(seven[i].name, all[i].name);
  }
}

TEST(ApiEarMatrix, WholeGraphMatrixOnGeneralGraph) {
  // ear_apsp_matrix is documented for Algorithm 1 but must also be exact
  // on multi-component general graphs (it routes through the oracle).
  Graph g = gen::block_tree({.num_blocks = 3,
                             .largest_block = 8,
                             .small_block_min = 3,
                             .small_block_max = 4,
                             .intra_degree = 2.8,
                             .pendants = 2},
                            13);
  const auto m = core::ear_apsp_matrix(g, {.mode = core::ExecutionMode::Sequential});
  for (VertexId s = 0; s < g.num_vertices(); s += 3) {
    const auto ref = sssp::dijkstra(g, s);
    for (VertexId t = 0; t < g.num_vertices(); ++t) {
      if (ref.dist[t] == graph::kInfWeight) {
        EXPECT_EQ(m.at(s, t), graph::kInfWeight);
      } else {
        EXPECT_NEAR(m.at(s, t), ref.dist[t], 1e-9);
      }
    }
  }
}

}  // namespace
}  // namespace eardec
