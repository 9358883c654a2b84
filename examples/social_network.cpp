// Social/collaboration networks: many biconnected communities glued at
// articulation members, a pendant fringe, and long chains — the structure
// of the paper's ca-AstroPh / cond-mat datasets. This example runs the
// full heterogeneous APSP pipeline, prints the decomposition profile and
// the memory the block layout saves over a dense n x n table, and compares
// against the Banerjee-style baseline.
#include <chrono>
#include <cstdio>

#include "baselines/banerjee_apsp.hpp"
#include "core/ear_apsp.hpp"
#include "graph/datasets.hpp"
#include "graph/stats.hpp"
#include "sssp/dijkstra.hpp"

int main() {
  using namespace eardec;
  using Clock = std::chrono::steady_clock;

  const graph::Graph g = graph::datasets::by_name("cond_mat_2003").make();
  std::printf("collaboration network: %s\n",
              graph::to_string(graph::compute_stats(g)).c_str());

  const core::ApspOptions opts{.mode = core::ExecutionMode::Heterogeneous,
                               .cpu_threads = 3,
                               .device = {.workers = 2}};

  auto t0 = Clock::now();
  const core::EarApspEngine ours(g, opts);
  const double ours_s = std::chrono::duration<double>(Clock::now() - t0).count();

  t0 = Clock::now();
  const baselines::BanerjeeApsp baseline(g, opts);
  const double base_s = std::chrono::duration<double>(Clock::now() - t0).count();

  std::printf("decomposition: %u biconnected components, %zu articulation "
              "points\n",
              ours.num_components(), ours.bcc().num_articulation_points());
  std::printf("SSSP runs: ours %llu vs baseline %llu (ear contraction "
              "removed %.1f%% of the sources)\n",
              static_cast<unsigned long long>(ours.sssp_runs()),
              static_cast<unsigned long long>(baseline.sssp_runs()),
              100.0 * (1.0 - static_cast<double>(ours.sssp_runs()) /
                                 static_cast<double>(baseline.sssp_runs())));
  std::printf("preprocess: ours %.3fs, baseline %.3fs (%.2fx)\n", ours_s,
              base_s, base_s / ours_s);
  std::printf("memory: block tables %.2f MB, compact %.2f MB, dense %.2f MB\n",
              ours.memory().ours_mb(), ours.memory().compact_mb(),
              ours.memory().full_mb());
  std::printf("hetero split: %llu units on CPU, %llu on device\n",
              static_cast<unsigned long long>(ours.scheduler_stats().cpu_units),
              static_cast<unsigned long long>(
                  ours.scheduler_stats().device_units));

  // Cross-community queries (routing through articulation members),
  // validated against Dijkstra.
  const graph::VertexId n = g.num_vertices();
  for (const auto& [s, t] : {std::pair<graph::VertexId, graph::VertexId>{0, n - 1},
                            {n / 5, 4 * n / 5}}) {
    const auto ref = sssp::dijkstra(g, s);
    std::printf("separation(%u, %u) = %.1f (check %.1f, baseline %.1f)\n", s,
                t, ours.query(s, t), ref.dist[t], baseline.distance(s, t));
  }
  return 0;
}
