// Tests for the MCB subsystem: GF(2) vectors, spanning trees, FVS, the
// cycle helpers, CycleStore, Horton / De Pina / Mehlhorn–Michail solvers,
// and the full ear-decomposition pipeline. Central invariants: every
// algorithm returns a *valid* basis (independent, right dimension) of
// *identical total weight*, with and without ear contraction, under every
// execution mode.
#include <array>
#include <map>

#include <gtest/gtest.h>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "mcb/cycle_store.hpp"
#include "mcb/ear_mcb.hpp"
#include "mcb/fvs.hpp"
#include "mcb/signed_graph.hpp"
#include "obs/metrics.hpp"
#include "reduce/chains.hpp"
#include "testing/depina.hpp"
#include "testing/horton.hpp"

namespace eardec::mcb {
namespace {

namespace gen = graph::generators;
using graph::Builder;
using graph::Graph;
using eardec::testing::depina_mcb;
using eardec::testing::DePinaResult;
using eardec::testing::horton_mcb;
using eardec::testing::HortonResult;

// ------------------------------------------------------------------- GF(2)

TEST(BitVector, SetGetXorDot) {
  BitVector a(130), b(130);
  a.set(0, true);
  a.set(64, true);
  a.set(129, true);
  b.set(64, true);
  b.set(100, true);
  EXPECT_TRUE(a.get(64));
  EXPECT_FALSE(a.get(63));
  EXPECT_TRUE(a.dot(b));  // overlap {64}: odd
  b.set(129, true);
  EXPECT_FALSE(a.dot(b));  // overlap {64,129}: even
  a.xor_assign(b);
  EXPECT_FALSE(a.get(64));
  EXPECT_TRUE(a.get(100));
  EXPECT_FALSE(a.get(129));     // cancelled by the xor
  EXPECT_EQ(a.popcount(), 2u);  // a ^ b = {0, 100}
  EXPECT_TRUE(a.any());
  EXPECT_FALSE(BitVector(10).any());
  EXPECT_THROW((void)a.dot(BitVector(5)), std::invalid_argument);
  EXPECT_THROW(a.xor_assign(BitVector(5)), std::invalid_argument);
}

TEST(BitVector, UnitAndEquality) {
  const BitVector u = BitVector::unit(70, 65);
  EXPECT_TRUE(u.get(65));
  EXPECT_EQ(u.popcount(), 1u);
  EXPECT_EQ(u, BitVector::unit(70, 65));
  EXPECT_NE(u, BitVector::unit(70, 64));
}

TEST(Gf2, RankAndIndependence) {
  std::vector<BitVector> vs;
  vs.push_back(BitVector::unit(4, 0));
  vs.push_back(BitVector::unit(4, 1));
  EXPECT_TRUE(gf2_independent(vs));
  BitVector sum(4);
  sum.set(0, true);
  sum.set(1, true);
  vs.push_back(sum);  // dependent: v0 ^ v1
  EXPECT_FALSE(gf2_independent(vs));
  EXPECT_EQ(gf2_rank(vs), 2u);
  EXPECT_EQ(gf2_rank({}), 0u);
}

// ---------------------------------------------------------- spanning tree

TEST(SpanningTree, DimensionAndStructure) {
  const Graph g = gen::random_connected(30, 50, 5);
  const SpanningTree t = build_spanning_tree(g);
  EXPECT_EQ(t.dimension(), 50u - 30 + 1);
  std::size_t tree_edges = 0;
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    if (t.in_tree[e]) {
      ++tree_edges;
      EXPECT_EQ(t.non_tree_index[e], kNotNonTree);
    } else {
      EXPECT_EQ(t.non_tree_edges[t.non_tree_index[e]], e);
    }
  }
  EXPECT_EQ(tree_edges, 29u);
  // Parent depths decrease toward the root.
  for (graph::VertexId v = 0; v < 30; ++v) {
    if (t.parent[v] != graph::kNullVertex) {
      EXPECT_EQ(t.depth[v], t.depth[t.parent[v]] + 1);
    }
  }
}

TEST(SpanningTree, SelfLoopsAndParallelsAreNonTree) {
  Builder b(3);
  b.add_edge(0, 1);
  b.add_edge(0, 1);
  b.add_edge(1, 1);
  b.add_edge(1, 2);
  const Graph g = std::move(b).build();
  const SpanningTree t = build_spanning_tree(g);
  EXPECT_EQ(t.dimension(), 2u);  // one parallel + one loop
  EXPECT_FALSE(t.in_tree[2]);    // the self-loop can never be a tree edge
}

// -------------------------------------------------------------------- FVS

class FvsRandomTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FvsRandomTest, GreedyFvsIsValid) {
  const std::uint64_t seed = GetParam();
  const Graph g = gen::random_connected(
      40, static_cast<graph::EdgeId>(50 + 5 * seed), seed);
  const auto fvs = feedback_vertex_set(g);
  EXPECT_TRUE(is_feedback_vertex_set(g, fvs));
  EXPECT_FALSE(is_feedback_vertex_set(g, {}));  // graphs above have cycles
}

INSTANTIATE_TEST_SUITE_P(Seeds, FvsRandomTest,
                         ::testing::Range<std::uint64_t>(1, 9));

TEST(Fvs, TreesNeedNoFvs) {
  EXPECT_TRUE(feedback_vertex_set(gen::path(8)).empty());
  EXPECT_TRUE(is_feedback_vertex_set(gen::path(8), {}));
}

TEST(Fvs, SelfLoopEndpointForced) {
  Builder b(2);
  b.add_edge(0, 0);
  b.add_edge(0, 1);
  const Graph g = std::move(b).build();
  const auto fvs = feedback_vertex_set(g);
  ASSERT_EQ(fvs.size(), 1u);
  EXPECT_EQ(fvs[0], 0u);
  EXPECT_TRUE(is_feedback_vertex_set(g, fvs));
}

TEST(Fvs, ParallelPairNeedsAVertex) {
  Builder b(2);
  b.add_edge(0, 1);
  b.add_edge(0, 1);
  const Graph g = std::move(b).build();
  EXPECT_FALSE(is_feedback_vertex_set(g, {}));
  EXPECT_TRUE(is_feedback_vertex_set(g, feedback_vertex_set(g)));
}

// ------------------------------------------------------------------ cycles

TEST(Cycle, FundamentalCycleOfChord) {
  const Graph g = gen::cycle(5, {.lo = 1, .hi = 1});
  const SpanningTree t = build_spanning_tree(g);
  ASSERT_EQ(t.dimension(), 1u);
  const Cycle c = fundamental_cycle(g, t, t.non_tree_edges[0]);
  EXPECT_EQ(c.edges.size(), 5u);
  EXPECT_DOUBLE_EQ(c.weight, 5.0);
  EXPECT_TRUE(is_simple_cycle(g, c.edges));
  EXPECT_TRUE(is_cycle_space_element(g, c.edges));
  const BitVector v = restricted_vector(c, t);
  EXPECT_EQ(v.popcount(), 1u);
  EXPECT_THROW((void)fundamental_cycle(g, t, t.in_tree[0] ? 0 : 1),
               std::invalid_argument);
}

TEST(Cycle, SimplicityChecks) {
  const Graph g = gen::complete(4, {.lo = 1, .hi = 1});
  // Two edge-disjoint triangles of K4 joined: a figure-eight is an element
  // but not simple.
  // K4 edges: (0,1)=0 (0,2)=1 (0,3)=2 (1,2)=3 (1,3)=4 (2,3)=5.
  EXPECT_TRUE(is_simple_cycle(g, {0, 1, 3}));  // triangle 0-1-2
  EXPECT_FALSE(is_simple_cycle(g, {0, 1, 3, 2, 4}));  // vertex 0 degree 3+
  const std::vector<graph::EdgeId> eight{0, 3, 1, 2, 5, 1};  // repeated edge
  EXPECT_FALSE(is_simple_cycle(g, eight));
  EXPECT_FALSE(is_cycle_space_element(g, {}));
  EXPECT_FALSE(is_cycle_space_element(g, {0}));
  EXPECT_TRUE(is_cycle_space_element(g, {0, 1, 3}));
}

// -------------------------------------------------------------- CycleStore

TEST(CycleStore, ScanInOrderAndRemoval) {
  CycleStore store(200);
  EXPECT_EQ(store.live(), 200u);
  // Remove every third id, then scan: survivors in order.
  for (std::uint32_t id = 0; id < 200; id += 3) store.remove(id);
  std::vector<std::uint32_t> seen;
  auto cur = store.begin();
  std::array<std::uint32_t, 7> buf{};
  while (true) {
    const std::size_t got = store.next_batch(cur, buf);
    if (got == 0) break;
    seen.insert(seen.end(), buf.begin(), buf.begin() + got);
  }
  EXPECT_EQ(seen.size(), store.live());
  for (std::size_t i = 1; i < seen.size(); ++i) {
    EXPECT_LT(seen[i - 1], seen[i]);
  }
  for (const std::uint32_t id : seen) EXPECT_NE(id % 3, 0u);
}

TEST(CycleStore, CompactionKeepsOrderAndThrowsOnDoubleRemove) {
  CycleStore store(CycleStore::kNodeCapacity * 2);
  // Kill more than half of the first node to trigger compaction.
  for (std::uint32_t id = 0; id < CycleStore::kNodeCapacity / 2 + 2; ++id) {
    store.remove(id);
  }
  EXPECT_THROW(store.remove(0), std::invalid_argument);
  std::array<std::uint32_t, 256> buf{};
  auto cur = store.begin();
  const std::size_t got = store.next_batch(cur, buf);
  EXPECT_EQ(got, store.live());
  for (std::size_t i = 1; i < got; ++i) EXPECT_LT(buf[i - 1], buf[i]);
}

TEST(CycleStore, EmptyStore) {
  CycleStore store(0);
  EXPECT_EQ(store.live(), 0u);
  auto cur = store.begin();
  std::array<std::uint32_t, 4> buf{};
  EXPECT_EQ(store.next_batch(cur, buf), 0u);
}

// ------------------------------------------------------------ signed graph

TEST(SignedGraph, FindsMinOddCycleOnTheta) {
  // Theta graph: cycles of weight 3+5, 3+9, 5+9 over the three paths.
  Builder b(2);
  b.add_edge(0, 1, 3.0);
  b.add_edge(0, 1, 5.0);
  b.add_edge(0, 1, 9.0);
  const Graph g = std::move(b).build();
  const SpanningTree t = build_spanning_tree(g);
  ASSERT_EQ(t.dimension(), 2u);
  // Witness = unit on the first non-tree edge: minimum odd cycle must use
  // that edge an odd number of times.
  const auto c = min_odd_cycle(g, t, BitVector::unit(2, 0));
  ASSERT_TRUE(c.has_value());
  const BitVector v = restricted_vector(*c, t);
  EXPECT_TRUE(v.dot(BitVector::unit(2, 0)));
  // It is the lightest cycle through that chord.
  EXPECT_LE(c->weight, 3.0 + std::max(5.0, 9.0));
}

TEST(SignedGraph, NoOddCycleForZeroWitness) {
  const Graph g = gen::cycle(4);
  const SpanningTree t = build_spanning_tree(g);
  EXPECT_FALSE(min_odd_cycle(g, t, BitVector(t.dimension())).has_value());
}

// --------------------------------------------------- algorithm agreement

void expect_valid_mcb(const Graph& g, const McbResult& r) {
  EXPECT_TRUE(validate_basis(g, r));
}

class McbAgreementTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(McbAgreementTest, HortonDePinaAndEarPipelinesAgree) {
  const std::uint64_t seed = GetParam();
  Graph g = gen::block_tree({.num_blocks = 4,
                             .largest_block = 8,
                             .small_block_min = 3,
                             .small_block_max = 5,
                             .intra_degree = 3.0,
                             .pendants = 3},
                            seed);
  g = gen::subdivide(g, 12, seed + 5);

  const HortonResult horton = horton_mcb(g);
  const DePinaResult depina = depina_mcb(g);
  const McbResult with_ears = minimum_cycle_basis(
      g, {.mode = ExecutionMode::Sequential, .use_ear_decomposition = true});
  const McbResult without_ears = minimum_cycle_basis(
      g, {.mode = ExecutionMode::Sequential, .use_ear_decomposition = false});

  EXPECT_NEAR(horton.total_weight, depina.total_weight, 1e-6);
  EXPECT_NEAR(horton.total_weight, with_ears.total_weight, 1e-6);
  EXPECT_NEAR(horton.total_weight, without_ears.total_weight, 1e-6);
  EXPECT_EQ(with_ears.basis.size(), without_ears.basis.size());
  expect_valid_mcb(g, with_ears);
  expect_valid_mcb(g, without_ears);
}

INSTANTIATE_TEST_SUITE_P(Seeds, McbAgreementTest,
                         ::testing::Range<std::uint64_t>(1, 11));

class McbModeTest : public ::testing::TestWithParam<ExecutionMode> {};

/// Witness-update work of the solves since process start, read from the
/// mcb.gf2.* registry counters.
std::array<std::uint64_t, 5> witness_update_work() {
  auto& reg = obs::MetricsRegistry::instance();
  return {reg.counter("mcb.gf2.dots").value(),
          reg.counter("mcb.gf2.sparse_dots").value(),
          reg.counter("mcb.gf2.rows_updated").value(),
          reg.counter("mcb.gf2.words_xored").value(),
          reg.counter("mcb.gf2.sparse_promotions").value()};
}

/// Runs one solve and returns its witness-update work (registry delta).
std::array<std::uint64_t, 5> solve_counting_work(const Graph& g,
                                                 const McbOptions& opts,
                                                 McbResult& out) {
  const auto before = witness_update_work();
  out = minimum_cycle_basis(g, opts);
  auto work = witness_update_work();
  for (std::size_t k = 0; k < work.size(); ++k) work[k] -= before[k];
  return work;
}

TEST_P(McbModeTest, AllExecutionModesAgree) {
  // The second input has f = 71 witnesses (two-word rows). Every mode must
  // do the same witness-update work as Sequential, counted by the mcb.gf2.*
  // registry counters, and return the same basis.
  const std::array<Graph, 2> inputs = {
      gen::subdivide(gen::random_biconnected(14, 26, 42), 20, 43),
      gen::random_biconnected(40, 110, 55)};
  for (const Graph& g : inputs) {
    const McbOptions opts{.mode = GetParam(),
                          .cpu_threads = 3,
                          .device = {.workers = 2, .warp_size = 8},
                          .batch_size = 16};
    McbOptions seq_opts = opts;
    seq_opts.mode = ExecutionMode::Sequential;
    McbResult r;
    McbResult seq;
    const auto work = solve_counting_work(g, opts, r);
    const auto seq_work = solve_counting_work(g, seq_opts, seq);
    const DePinaResult ref = depina_mcb(g);
    EXPECT_NEAR(r.total_weight, ref.total_weight, 1e-6);
    expect_valid_mcb(g, r);
    EXPECT_EQ(r.stats.dimension, ref.basis.size());
    EXPECT_EQ(work, seq_work) << "dots, sparse_dots, rows_updated, "
                                 "words_xored, sparse_promotions";
    EXPECT_GT(work[0], 0u);
    ASSERT_EQ(r.basis.size(), seq.basis.size());
    for (std::size_t i = 0; i < r.basis.size(); ++i) {
      EXPECT_EQ(r.basis[i].edges, seq.basis[i].edges) << "cycle " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, McbModeTest,
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

// ----------------------------------------------------- structural cases

TEST(Mcb, SingleCycleGraph) {
  const Graph g = gen::cycle(8);
  const McbResult r = minimum_cycle_basis(g, {.mode = ExecutionMode::Sequential});
  ASSERT_EQ(r.basis.size(), 1u);
  EXPECT_NEAR(r.total_weight, g.total_weight(), 1e-9);
  EXPECT_EQ(r.basis[0].edges.size(), 8u);
  expect_valid_mcb(g, r);
}

TEST(Mcb, TreeHasEmptyBasis) {
  const McbResult r =
      minimum_cycle_basis(gen::path(7), {.mode = ExecutionMode::Sequential});
  EXPECT_TRUE(r.basis.empty());
  EXPECT_DOUBLE_EQ(r.total_weight, 0.0);
}

TEST(Mcb, SelfLoopIsItsOwnBasisCycle) {
  Builder b(3);
  b.add_edge(0, 0, 7.0);
  b.add_edge(0, 1, 1.0);
  b.add_edge(1, 2, 1.0);
  b.add_edge(2, 0, 1.0);
  const Graph g = std::move(b).build();
  const McbResult r =
      minimum_cycle_basis(g, {.mode = ExecutionMode::Sequential});
  ASSERT_EQ(r.basis.size(), 2u);
  EXPECT_NEAR(r.total_weight, 7.0 + 3.0, 1e-9);
  expect_valid_mcb(g, r);
}

TEST(Mcb, ParallelEdgesFormTwoCycles) {
  Builder b(2);
  b.add_edge(0, 1, 1.0);
  b.add_edge(0, 1, 2.0);
  b.add_edge(0, 1, 4.0);
  const Graph g = std::move(b).build();
  const McbResult r =
      minimum_cycle_basis(g, {.mode = ExecutionMode::Sequential});
  ASSERT_EQ(r.basis.size(), 2u);
  // MCB: {1,2} and {1,4} (the lightest edge pairs with each other edge).
  EXPECT_NEAR(r.total_weight, 3.0 + 5.0, 1e-9);
  expect_valid_mcb(g, r);
}

TEST(Mcb, LemmaThreeOne_WeightAndDimensionPreserved) {
  // The heart of the paper's Section 3: contraction changes neither the
  // dimension nor the total weight; expanded cycles contain whole chains.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Graph core = gen::random_biconnected(
        10, static_cast<graph::EdgeId>(16 + seed), seed);
    const Graph g = gen::subdivide(core, 25, seed + 9);
    const McbResult with_ears = minimum_cycle_basis(
        g, {.mode = ExecutionMode::Sequential, .use_ear_decomposition = true});
    const McbResult without = minimum_cycle_basis(
        g, {.mode = ExecutionMode::Sequential, .use_ear_decomposition = false});
    EXPECT_EQ(with_ears.basis.size(), g.num_edges() - g.num_vertices() + 1);
    EXPECT_EQ(with_ears.basis.size(), without.basis.size());
    EXPECT_NEAR(with_ears.total_weight, without.total_weight, 1e-6);
    expect_valid_mcb(g, with_ears);
    // Every basis cycle traverses whole chains: within a cycle, a chain's
    // edges appear either all or not at all.
    const auto cs = reduce::find_chains(g);
    for (const Cycle& c : with_ears.basis) {
      std::map<std::uint32_t, std::size_t> count;
      for (const graph::EdgeId e : c.edges) {
        if (cs.edge_chain[e] != reduce::kNoChain) ++count[cs.edge_chain[e]];
      }
      for (const auto& [chain, cnt] : count) {
        EXPECT_EQ(cnt, cs.chains[chain].edges.size()) << "chain " << chain;
      }
    }
  }
}

TEST(Mcb, StatsAreAccumulated) {
  Graph g = gen::subdivide(gen::random_biconnected(12, 22, 8), 15, 9);
  const McbResult r =
      minimum_cycle_basis(g, {.mode = ExecutionMode::Sequential});
  EXPECT_EQ(r.stats.dimension, r.basis.size());
  EXPECT_GT(r.stats.candidates, 0u);
  EXPECT_GT(r.stats.fvs_size, 0u);
  EXPECT_GE(r.stats.total_seconds(), 0.0);
  // The pruned candidate set should suffice without fallbacks on healthy
  // inputs (the fallback exists as a safety net, not a code path).
  EXPECT_EQ(r.stats.fallback_searches, 0u);
}

TEST(Mcb, WeightedVsUnitWeights) {
  // On unit weights the MCB of the Petersen graph consists of 6 five-cycles
  // (girth 5, dimension 15 - 10 + 1 = 6).
  const Graph g = gen::petersen({.lo = 1, .hi = 1});
  const McbResult r =
      minimum_cycle_basis(g, {.mode = ExecutionMode::Sequential});
  ASSERT_EQ(r.basis.size(), 6u);
  EXPECT_NEAR(r.total_weight, 30.0, 1e-9);
  for (const Cycle& c : r.basis) EXPECT_EQ(c.edges.size(), 5u);
}

}  // namespace
}  // namespace eardec::mcb
namespace eardec::mcb {
namespace {

namespace genx = graph::generators;

class McbOuterScheduleTest
    : public ::testing::TestWithParam<ExecutionMode> {};

TEST_P(McbOuterScheduleTest, ManyComponentsAllModesAgree) {
  // Many biconnected components: exercises the per-BCC work-queue path
  // (units sorted by size, CPU/device from opposite ends).
  graph::Graph g = genx::block_tree({.num_blocks = 9,
                                     .largest_block = 12,
                                     .small_block_min = 3,
                                     .small_block_max = 6,
                                     .intra_degree = 3.0,
                                     .pendants = 4},
                                    77);
  g = genx::subdivide(g, 25, 78);
  const McbOptions opts{.mode = GetParam(),
                        .cpu_threads = 3,
                        .device = {.workers = 2, .warp_size = 8}};
  const McbResult r1 = minimum_cycle_basis(g, opts);
  const McbResult r2 = minimum_cycle_basis(g, opts);  // determinism
  const DePinaResult ref = depina_mcb(g);
  EXPECT_NEAR(r1.total_weight, ref.total_weight, 1e-6);
  EXPECT_DOUBLE_EQ(r1.total_weight, r2.total_weight);
  ASSERT_EQ(r1.basis.size(), r2.basis.size());
  for (std::size_t i = 0; i < r1.basis.size(); ++i) {
    EXPECT_EQ(r1.basis[i].edges, r2.basis[i].edges) << "cycle " << i;
  }
  EXPECT_TRUE(validate_basis(g, r1));
}

INSTANTIATE_TEST_SUITE_P(Modes, McbOuterScheduleTest,
                         ::testing::Values(ExecutionMode::Sequential,
                                           ExecutionMode::Multicore,
                                           ExecutionMode::DeviceOnly,
                                           ExecutionMode::Heterogeneous),
                         [](const auto& info2) {
                           switch (info2.param) {
                             case ExecutionMode::Sequential: return "Seq";
                             case ExecutionMode::Multicore: return "Mc";
                             case ExecutionMode::DeviceOnly: return "Dev";
                             case ExecutionMode::Heterogeneous: return "Het";
                           }
                           return "Unknown";
                         });

}  // namespace
}  // namespace eardec::mcb
namespace eardec::mcb {
namespace {

TEST(Mcb, DeviceBlockWitnessUpdatePathAtLargeDimension) {
  // f = m - n + 1 = 71 witnesses, so every witness row spans two words;
  // DeviceOnly must match Sequential there.
  const graph::Graph g = graph::generators::random_biconnected(40, 110, 55);
  const McbResult dev = minimum_cycle_basis(
      g, {.mode = ExecutionMode::DeviceOnly,
          .device = {.workers = 2, .warp_size = 8}});
  const McbResult seq =
      minimum_cycle_basis(g, {.mode = ExecutionMode::Sequential});
  EXPECT_EQ(dev.stats.dimension, 71u);
  EXPECT_NEAR(dev.total_weight, seq.total_weight, 1e-6);
  EXPECT_TRUE(validate_basis(g, dev));
}

}  // namespace
}  // namespace eardec::mcb
