// Metamorphic and cross-cutting property tests: relations that must hold
// between transformed inputs and outputs, regardless of the algorithm's
// internals. These catch classes of bugs unit tests with fixed expected
// values cannot.
#include <algorithm>
#include <random>

#include <gtest/gtest.h>

#include "core/ear_apsp.hpp"
#include "graph/builder.hpp"
#include "graph/datasets.hpp"
#include "graph/generators.hpp"
#include "mcb/ear_mcb.hpp"
#include "sssp/dijkstra.hpp"

namespace eardec {
namespace {

namespace gen = graph::generators;
using graph::Builder;
using graph::EdgeId;
using graph::Graph;
using graph::VertexId;
using graph::Weight;

Graph scale_weights(const Graph& g, Weight factor) {
  Builder b(g.num_vertices());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto [u, v] = g.endpoints(e);
    b.add_edge(u, v, g.weight(e) * factor);
  }
  return std::move(b).build();
}

Graph add_edge(const Graph& g, VertexId u, VertexId v, Weight w) {
  Builder b(g.num_vertices());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto [a, c] = g.endpoints(e);
    b.add_edge(a, c, g.weight(e));
  }
  b.add_edge(u, v, w);
  return std::move(b).build();
}

class MetamorphicTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MetamorphicTest, ScalingWeightsScalesDistancesLinearly) {
  const std::uint64_t seed = GetParam();
  Graph g = gen::subdivide(gen::random_biconnected(12, 20, seed), 20, seed + 9);
  const Graph scaled = scale_weights(g, 3.5);
  const core::EarApspEngine o1(g, {.mode = core::ExecutionMode::Sequential});
  const core::EarApspEngine o2(scaled,
                                {.mode = core::ExecutionMode::Sequential});
  for (VertexId s = 0; s < g.num_vertices(); s += 3) {
    for (VertexId t = 0; t < g.num_vertices(); t += 5) {
      EXPECT_NEAR(o2.query(s, t), 3.5 * o1.query(s, t), 1e-6);
    }
  }
}

TEST_P(MetamorphicTest, AddingAnEdgeNeverIncreasesAnyDistance) {
  const std::uint64_t seed = GetParam();
  Graph g = gen::subdivide(gen::random_biconnected(12, 20, seed + 40), 15,
                           seed + 41);
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<VertexId> pick(0, g.num_vertices() - 1);
  const VertexId u = pick(rng);
  VertexId v = pick(rng);
  if (u == v) v = (v + 1) % g.num_vertices();
  const Graph h = add_edge(g, u, v, 2.0);
  const core::EarApspEngine before(g,
                                    {.mode = core::ExecutionMode::Sequential});
  const core::EarApspEngine after(h,
                                   {.mode = core::ExecutionMode::Sequential});
  for (VertexId s = 0; s < g.num_vertices(); s += 2) {
    for (VertexId t = 0; t < g.num_vertices(); t += 3) {
      EXPECT_LE(after.query(s, t), before.query(s, t) + 1e-9);
    }
  }
}

TEST_P(MetamorphicTest, SubdividingPreservesOriginalPairDistances) {
  const std::uint64_t seed = GetParam();
  const Graph g = gen::random_biconnected(
      14, static_cast<graph::EdgeId>(22 + seed % 8), seed + 80);
  const Graph sub = gen::subdivide(g, 30, seed + 81);
  const core::EarApspEngine o1(g, {.mode = core::ExecutionMode::Sequential});
  const core::EarApspEngine o2(sub,
                                {.mode = core::ExecutionMode::Sequential});
  for (VertexId s = 0; s < g.num_vertices(); ++s) {
    for (VertexId t = 0; t < g.num_vertices(); ++t) {
      EXPECT_NEAR(o1.query(s, t), o2.query(s, t), 1e-6);
    }
  }
}

TEST_P(MetamorphicTest, McbWeightScalesLinearlyAndDimensionIsInvariant) {
  const std::uint64_t seed = GetParam();
  Graph g = gen::subdivide(gen::random_biconnected(10, 17, seed + 120), 12,
                           seed + 121);
  const auto r1 = mcb::minimum_cycle_basis(
      g, {.mode = core::ExecutionMode::Sequential});
  const auto r2 = mcb::minimum_cycle_basis(
      scale_weights(g, 2.25), {.mode = core::ExecutionMode::Sequential});
  EXPECT_EQ(r1.basis.size(), r2.basis.size());
  EXPECT_NEAR(r2.total_weight, 2.25 * r1.total_weight, 1e-6);
}

TEST_P(MetamorphicTest, McbNeverHeavierAfterAddingAnEdge) {
  // A new edge adds one dimension; the old basis plus any cycle through
  // the new edge remains feasible, so the minimum weight of the first
  // f cycles can only improve (compare the sorted prefixes).
  const std::uint64_t seed = GetParam();
  Graph g = gen::random_biconnected(10, 16, seed + 200);
  const auto r1 = mcb::minimum_cycle_basis(
      g, {.mode = core::ExecutionMode::Sequential});
  const Graph h = add_edge(g, 0, 5, 1.0);
  const auto r2 = mcb::minimum_cycle_basis(
      h, {.mode = core::ExecutionMode::Sequential});
  ASSERT_EQ(r2.basis.size(), r1.basis.size() + 1);
  // Sorted cycle weights: each of the first f entries must not increase.
  std::vector<Weight> w1, w2;
  for (const auto& c : r1.basis) w1.push_back(c.weight);
  for (const auto& c : r2.basis) w2.push_back(c.weight);
  std::sort(w1.begin(), w1.end());
  std::sort(w2.begin(), w2.end());
  for (std::size_t i = 0; i < w1.size(); ++i) {
    EXPECT_LE(w2[i], w1[i] + 1e-9) << "rank " << i;
  }
}

TEST_P(MetamorphicTest, ParallelRunsAreDeterministic) {
  const std::uint64_t seed = GetParam();
  Graph g = gen::block_tree({.num_blocks = 5,
                             .largest_block = 14,
                             .small_block_min = 3,
                             .small_block_max = 5,
                             .intra_degree = 3.0,
                             .pendants = 3},
                            seed + 300);
  g = gen::subdivide(g, 20, seed + 301);
  const core::ApspOptions opts{.mode = core::ExecutionMode::Heterogeneous,
                               .cpu_threads = 3,
                               .device = {.workers = 2}};
  const core::EarApspEngine a(g, opts);
  const core::EarApspEngine b(g, opts);
  for (VertexId s = 0; s < g.num_vertices(); s += 4) {
    for (VertexId t = 0; t < g.num_vertices(); t += 3) {
      // Bitwise identical: the distances do not depend on scheduling.
      EXPECT_EQ(a.query(s, t), b.query(s, t));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MetamorphicTest,
                         ::testing::Range<std::uint64_t>(1, 9));

// ------------------------------------------------------------- integration

TEST(Integration, AllTable1DatasetsBuildOraclesAndValidate) {
  // End-to-end smoke across every dataset at MCB (small) scale: build the
  // oracle, spot-check distances, and validate the MCB basis.
  for (const auto& d : graph::datasets::table1()) {
    SCOPED_TRACE(d.name);
    const Graph g = d.make_small();
    const core::EarApspEngine oracle(
        g, {.mode = core::ExecutionMode::Multicore, .cpu_threads = 2});
    const auto ref = sssp::dijkstra(g, 0);
    for (VertexId t = 0; t < g.num_vertices();
         t += std::max<VertexId>(1, g.num_vertices() / 23)) {
      if (ref.dist[t] == graph::kInfWeight) {
        ASSERT_EQ(oracle.query(0, t), graph::kInfWeight);
      } else {
        ASSERT_NEAR(oracle.query(0, t), ref.dist[t], 1e-6) << t;
      }
    }
    const auto mcb = mcb::minimum_cycle_basis(
        g, {.mode = core::ExecutionMode::Sequential});
    EXPECT_TRUE(mcb::validate_basis(g, mcb));
  }
}

}  // namespace
}  // namespace eardec
namespace eardec {
namespace {

TEST(Integration, McbEarInvarianceAcrossAllDatasets) {
  // Lemma 3.1 at dataset scale: identical basis weight and dimension with
  // and without the ear contraction, on every Table-1 stand-in.
  for (const auto& d : graph::datasets::table1()) {
    SCOPED_TRACE(d.name);
    const graph::Graph g = d.make_small();
    const auto with_ears = mcb::minimum_cycle_basis(
        g, {.mode = core::ExecutionMode::Sequential,
            .use_ear_decomposition = true});
    const auto without = mcb::minimum_cycle_basis(
        g, {.mode = core::ExecutionMode::Sequential,
            .use_ear_decomposition = false});
    EXPECT_EQ(with_ears.basis.size(), without.basis.size());
    EXPECT_NEAR(with_ears.total_weight, without.total_weight,
                1e-6 * (1 + without.total_weight));
  }
}

}  // namespace
}  // namespace eardec
