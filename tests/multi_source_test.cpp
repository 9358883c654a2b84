// Scheduler-path tests for the phase-II kernels (labelled hetero: CI
// re-runs this suite under ThreadSanitizer). Driven through the work
// queue, the CPU workers' per-unit choice between the batched multi-source
// kernel and Dijkstra, and the device's delta-stepping bulk launches, must
// reproduce per-source Dijkstra on the original graph bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <vector>

#include "core/ear_apsp.hpp"
#include "graph/generators.hpp"
#include "hetero/thread_pool.hpp"
#include "sssp/delta_stepping.hpp"
#include "sssp/dijkstra.hpp"

namespace eardec::core {
namespace {

namespace gen = graph::generators;
using graph::Graph;
using graph::VertexId;

Graph blocky_graph(std::uint64_t seed) {
  // Biconnected blocks of very different sizes glued in a tree: the 48-vertex
  // block yields units wide enough for the batched kernel, the small blocks
  // and narrow units fall back to Dijkstra.
  gen::BlockTreeParams params;
  params.num_blocks = 6;
  params.largest_block = 48;
  params.small_block_min = 3;
  params.small_block_max = 10;
  params.pendants = 4;
  return gen::block_tree(params, seed);
}

/// Asserts the phase-II pipeline under `mode` reproduces per-source Dijkstra
/// on every pair.
void expect_matches_dijkstra(const Graph& g, ExecutionMode mode,
                             std::uint32_t sources_per_unit) {
  ApspOptions opts;
  opts.mode = mode;
  opts.cpu_threads = 3;
  opts.device = {.workers = 2, .warp_size = 4};
  opts.sources_per_unit = sources_per_unit;
  const sssp::DistanceMatrix got = ear_apsp_matrix(g, opts);
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    const auto ref = sssp::dijkstra(g, u);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      ASSERT_EQ(got.at(u, v), ref.dist[v])
          << "mode=" << static_cast<int>(mode) << " k=" << sources_per_unit
          << " pair " << u << "," << v;
    }
  }
}

class MultiSourceSchedulerTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MultiSourceSchedulerTest, MulticoreMatchesDijkstraAcrossUnitWidths) {
  // Multicore at k = 1 runs Dijkstra on every unit; k = 4 and 16 run the
  // batched kernel on the 48-vertex block and Dijkstra on the small ones.
  const Graph g = blocky_graph(GetParam());
  const EarApspEngine engine(g, {.mode = ExecutionMode::Sequential});
  VertexId widest = 0;
  for (std::uint32_t c = 0; c < engine.num_components(); ++c) {
    widest = std::max(widest, engine.reduced(c).graph().num_vertices());
  }
  ASSERT_GE(widest, 24u) << "no component large enough to batch";
  for (const std::uint32_t k : {1u, 4u, 16u}) {
    expect_matches_dijkstra(g, ExecutionMode::Multicore, k);
  }
}

TEST_P(MultiSourceSchedulerTest, HeterogeneousAndDeviceMatchDijkstra) {
  // Paper mode (CPU workers and delta-stepping device share the queue) and
  // the device alone.
  const Graph g = blocky_graph(GetParam() + 100);
  expect_matches_dijkstra(g, ExecutionMode::Heterogeneous, 8);
  expect_matches_dijkstra(g, ExecutionMode::DeviceOnly, 8);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MultiSourceSchedulerTest,
                         ::testing::Range<std::uint64_t>(1, 5));

TEST(DeltaSteppingDevice, BulkLaunchBitMatchesDijkstra) {
  const Graph g = gen::random_connected(300, 900, 11);
  hetero::Device dev({.workers = 3, .warp_size = 8});
  sssp::DeltaSteppingWorkspace ws(g.num_vertices());
  std::vector<graph::Weight> got(g.num_vertices());
  for (VertexId s = 0; s < g.num_vertices(); s += 61) {
    ws.distances(g, s, got, 0, nullptr, &dev);
    const auto ref = sssp::dijkstra(g, s);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      ASSERT_EQ(got[v], ref.dist[v]) << "source " << s << " vertex " << v;
    }
  }
  EXPECT_GT(dev.kernels_launched(), 0u);
}

TEST(ParallelForSlots, SlotsAreRaceFreePartition) {
  hetero::ThreadPool pool(3);
  const std::size_t n = 10000;
  // One counter vector per slot: no synchronization inside the body, so
  // TSan proves two slots never alias.
  std::vector<std::vector<std::size_t>> per_slot(pool.max_slots());
  pool.parallel_for_slots(
      0, n,
      [&](std::size_t i, unsigned slot) {
        ASSERT_LT(slot, pool.max_slots());
        per_slot[slot].push_back(i);
      },
      8);
  std::vector<std::size_t> seen;
  for (const auto& bucket : per_slot) {
    seen.insert(seen.end(), bucket.begin(), bucket.end());
  }
  ASSERT_EQ(seen.size(), n);
  std::sort(seen.begin(), seen.end());
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(seen[i], i);
}

}  // namespace
}  // namespace eardec::core
