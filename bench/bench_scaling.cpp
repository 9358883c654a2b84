// Million-node ingestion scaling: the end-to-end pipeline the paper's
// memory claim is about, measured per phase at growing n.
//
//   generate   -> build_csr (parallel) -> write_edg2 -> load (mmap)
//   -> phase0 (BCC) -> phase1 (chains) -> phase1 (largest-block ears)
//
// Each phase reports nodes/sec; the run reports sampled RSS against the
// linear core::phase01_memory_model bound (docs/scaling.md describes the
// methodology). The load row doubles as the zero-copy proof: mapping the
// EDG2 file must not materialize the CSR arrays, so the RSS delta across
// the load stays far below the CSR payload size.
//
// Emits bench_results/scaling.json (schema v2); `--smoke` shrinks the size
// axis for the CI gate (tools/check_bench_smoke.py validates the shape and
// re-checks the RSS envelope from the snapshot).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "connectivity/bcc.hpp"
#include "connectivity/ear_decomposition.hpp"
#include "core/memory_model.hpp"
#include "graph/edg2.hpp"
#include "graph/generators.hpp"
#include "hetero/thread_pool.hpp"
#include "obs/rss.hpp"
#include "reduce/chains.hpp"

namespace {

using namespace eardec;

struct PhaseRow {
  const char* name;
  double seconds = 0;
  double nodes_per_s = 0;
};

struct SizeResult {
  graph::VertexId n = 0;
  graph::EdgeId m = 0;
  std::vector<PhaseRow> phases;
  double before_load_mb = 0;  ///< RSS just before the mmap load
  double load_delta_mb = 0;   ///< RSS growth across the load (zero-copy proof)
  double peak_mb = 0;         ///< VmHWM after Phase 0-I
  double model_mb = 0;        ///< core::phase01_memory_model bound
  double model_csr_mb = 0;    ///< the CSR payload portion of the bound
};

SizeResult run_size(graph::VertexId n, hetero::ThreadPool& pool,
                    const std::filesystem::path& tmp) {
  SizeResult r;
  r.n = n;
  const auto phase = [&](const char* name, double seconds) {
    r.phases.push_back(
        {name, seconds, static_cast<double>(n) / seconds});
  };

  {
    graph::generators::ScaleEdges se;
    phase("generate", bench::time_seconds([&] {
            se = graph::generators::table1_scale_edges(n, 42);
          }));
    graph::Graph owned;
    phase("build_csr", bench::time_seconds([&] {
            owned = graph::io::build_csr_parallel(
                se.num_vertices, std::move(se.edges), std::move(se.weights),
                &pool);
          }));
    r.m = owned.num_edges();
    phase("write_edg2", bench::time_seconds([&] {
            graph::io::write_edg2_file(tmp, owned, &pool, "bench_scaling");
          }));
  }  // the owned graph and edge lists are released before the load measure

  r.before_load_mb = obs::read_rss_mb();
  graph::Graph g;
  phase("load_mmap", bench::time_seconds([&] {
          g = graph::io::read_edg2_file(tmp);
        }));
  r.load_delta_mb = obs::read_rss_mb() - r.before_load_mb;

  connectivity::BiconnectedComponents bcc;
  phase("phase0_bcc", bench::time_seconds(
                          [&] { bcc = connectivity::biconnected_components(g); }));
  phase("phase1_chains",
        bench::time_seconds([&] { (void)reduce::find_chains(g); }));
  phase("phase1_ears", bench::time_seconds([&] {
          std::uint32_t largest = 0;
          for (std::uint32_t c = 1; c < bcc.num_components; ++c) {
            if (bcc.component_edges(c).size() >
                bcc.component_edges(largest).size()) {
              largest = c;
            }
          }
          const auto view = connectivity::extract_component(g, bcc, largest);
          (void)connectivity::ear_decomposition(view.graph);
        }));

  r.peak_mb = obs::read_peak_rss_mb();
  const core::Phase01Model model = core::phase01_memory_model(n, r.m);
  r.model_mb = model.total_mb();
  r.model_csr_mb = model.csr_mb();
  return r;
}

void emit_json(const std::vector<SizeResult>& results, bool smoke) {
  std::filesystem::create_directories("bench_results");
  std::FILE* out = std::fopen("bench_results/scaling.json", "w");
  if (out == nullptr) return;
  std::fprintf(out, "{\n");
  eardec::bench::json_stamp(out);
  std::fprintf(out, "  \"smoke\": %s,\n  \"sizes\": [\n",
               smoke ? "true" : "false");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const SizeResult& r = results[i];
    std::fprintf(out, "    {\"n\": %u, \"m\": %u,\n      \"phases\": {",
                 r.n, r.m);
    for (std::size_t p = 0; p < r.phases.size(); ++p) {
      std::fprintf(out,
                   "%s\n        \"%s\": {\"seconds\": %.6f, "
                   "\"nodes_per_s\": %.1f}",
                   p == 0 ? "" : ",", r.phases[p].name, r.phases[p].seconds,
                   r.phases[p].nodes_per_s);
    }
    std::fprintf(out,
                 "\n      },\n      \"rss\": {\"before_load_mb\": %.2f, "
                 "\"load_delta_mb\": %.2f, \"peak_mb\": %.2f, "
                 "\"model_mb\": %.2f, \"model_csr_mb\": %.2f}}%s\n",
                 r.before_load_mb, r.load_delta_mb, r.peak_mb, r.model_mb,
                 r.model_csr_mb, i + 1 < results.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote bench_results/scaling.json (%zu sizes)\n",
              results.size());
}

}  // namespace

int main(int argc, char** argv) {
  const bench::ObservabilitySession obs_session;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const std::vector<graph::VertexId> sizes =
      smoke ? std::vector<graph::VertexId>{20'000, 60'000}
            : std::vector<graph::VertexId>{100'000, 300'000, 1'000'000};
  hetero::ThreadPool pool(3);
  const std::filesystem::path tmp =
      std::filesystem::temp_directory_path() / "eardec_bench_scaling.edg2";

  std::printf("=== Scaling: mmap ingestion + streaming Phase 0-I ===\n");
  std::printf("%9s %9s %12s %11s %11s %11s %9s %9s\n", "n", "m", "phase",
              "seconds", "Mnodes/s", "loadRSS", "peak(MB)", "model(MB)");
  bench::print_rule(90);

  // Min-of-3 per size: single-core scheduler noise moves few-ms phases by
  // ±25%, which is exactly the perf-regression threshold; the minimum is
  // the stable statistic for CPU-bound phases.
  constexpr int kReps = 3;
  std::vector<SizeResult> results;
  for (const graph::VertexId n : sizes) {
    // Ascending sizes: VmHWM is monotone per process, so each size's peak
    // reading is dominated by its own (largest-so-far) run.
    SizeResult best = run_size(n, pool, tmp);
    for (int rep = 1; rep < kReps; ++rep) {
      const SizeResult again = run_size(n, pool, tmp);
      for (std::size_t p = 0; p < best.phases.size(); ++p) {
        if (again.phases[p].seconds < best.phases[p].seconds) {
          best.phases[p] = again.phases[p];
        }
      }
      best.load_delta_mb = std::min(best.load_delta_mb, again.load_delta_mb);
      best.peak_mb = again.peak_mb;  // VmHWM is cumulative: last read = max
    }
    results.push_back(best);
    const SizeResult& r = results.back();
    for (const PhaseRow& p : r.phases) {
      std::printf("%9u %9u %12s %11.3f %11.2f %11s %9s %9s\n", r.n, r.m,
                  p.name, p.seconds, p.nodes_per_s / 1e6, "", "", "");
    }
    std::printf("%9u %9u %12s %11s %11s %+10.1fM %9.1f %9.1f\n", r.n, r.m,
                "(rss)", "", "", r.load_delta_mb, r.peak_mb, r.model_mb);
  }
  bench::print_rule(90);
  std::printf(
      "Zero-copy check: the load-phase RSS delta stays far below the CSR\n"
      "payload (model_csr) because the mmap'd sections fault in lazily;\n"
      "peak RSS must stay inside the linear phase01 model envelope.\n");
  std::error_code ec;
  std::filesystem::remove(tmp, ec);
  emit_json(results, smoke);
  return 0;
}
