// Query-side benchmark of the distance products: the compact oracle
// (formula evaluation per query), the paper-faithful full tables (pure
// lookups), and on-demand Dijkstra (what you would do without any
// preprocessing). Validates the O(1)-ish query claim that justifies
// building the oracle at all.
//
// Queries are stratified by the engine's own route classification into
// three mixes — same_block (one within-block evaluation), cross_block
// (two legs + an AP-table hop) and uniform — because the compact formula's
// cost differs structurally between them: a same-block query is a 2x2 exit
// min, a cross-block query adds the tree route. One cell per method x mix.
//
// Before timing, every pair of every mix is answered by all three methods
// and compared bit for bit (the bench dataset has integer weights, so the
// closed form is exact): a disagreement fails the run. The timed loops
// then record each query individually into a log2 latency histogram, so
// the snapshot reports the tail (p50/p90/p99), not just the mean — for an
// online oracle server the p99 is the claim that matters. The same
// distributions land in the metrics registry
// (oracle.query.{compact,full_table,dijkstra}.latency_ns), so a
// `--stats-port`/EARDEC_STATS_PORT scrape during the run shows them live.
// The snapshot bench_results/oracle_query.json (schema v2, validated by
// tools/check_bench_smoke.py, diffed by tools/compare_bench.py) carries
// qps + mean/p50/p90/p99 nanoseconds per method and mix. `--smoke`
// shrinks the query counts for the CI gate.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench_common.hpp"

#include "core/ear_apsp.hpp"
#include "graph/datasets.hpp"
#include "sssp/dijkstra.hpp"

namespace {

using namespace eardec;

const graph::Graph& bench_graph() {
  static const graph::Graph g =
      graph::datasets::by_name("cond_mat_2003").make();
  return g;
}

/// Distances from s on the original graph, computed once per source.
const std::vector<graph::Weight>& dijkstra_row(graph::VertexId s) {
  static std::unordered_map<graph::VertexId, std::vector<graph::Weight>> cache;
  auto it = cache.find(s);
  if (it == cache.end()) {
    it = cache.emplace(s, sssp::dijkstra(bench_graph(), s).dist).first;
  }
  return it->second;
}

struct Mix {
  const char* name = "";
  std::vector<std::pair<graph::VertexId, graph::VertexId>> pairs;
};

/// Stratified pair pools; same_block / cross_block are rejection-sampled
/// on the engine's route classification, uniform is unconditioned.
std::vector<Mix> build_mixes(const core::EarApspEngine& eng) {
  const auto& g = bench_graph();
  std::mt19937_64 rng(5);
  std::uniform_int_distribution<graph::VertexId> pick(0,
                                                      g.num_vertices() - 1);
  const auto sample = [&](const char* name, auto want) {
    Mix mix{name, {}};
    mix.pairs.reserve(4096);
    std::uint64_t attempts = 0;
    while (mix.pairs.size() < 4096 && ++attempts < 4096ull * 400) {
      const graph::VertexId s = pick(rng);
      const graph::VertexId t = pick(rng);
      if (want(eng.route(s, t).kind)) mix.pairs.emplace_back(s, t);
    }
    if (mix.pairs.empty()) mix.pairs.emplace_back(0, 0);
    return mix;
  };
  std::vector<Mix> mixes;
  mixes.push_back(sample("same_block", [](core::QueryRoute::Kind k) {
    return k == core::QueryRoute::Kind::SameBlock;
  }));
  mixes.push_back(sample("cross_block", [](core::QueryRoute::Kind k) {
    return k == core::QueryRoute::Kind::CrossBlock;
  }));
  mixes.push_back(sample("uniform", [](core::QueryRoute::Kind) {
    return true;
  }));
  return mixes;
}

struct MethodResult {
  const char* method = "";
  const char* mix = "";
  std::uint64_t queries = 0;
  double seconds = 0;   ///< wall clock of the whole query loop
  double qps = 0;
  double mean_ns = 0;
  double p50_ns = 0;
  double p90_ns = 0;
  double p99_ns = 0;
};

/// Runs `queries` timed calls of `query` round-robin over the mix, each
/// recorded into the shared registry histogram for that method (visible on
/// a live /metrics scrape) and summarized from it afterwards. The
/// histogram is reset first so every method x mix cell reports its own
/// distribution.
MethodResult run_method(
    const char* method, std::uint64_t queries, const Mix& mix,
    const std::function<double(graph::VertexId, graph::VertexId)>& query) {
  obs::Histogram& lat = obs::MetricsRegistry::instance().histogram(
      std::string("oracle.query.") + method + ".latency_ns");
  lat.reset();
  volatile double sink = 0;  // keep the distance computation observable
  const auto t0 = obs::Tracer::now_ns();
  for (std::uint64_t i = 0; i < queries; ++i) {
    const auto& [s, t] = mix.pairs[i % mix.pairs.size()];
    const std::uint64_t q0 = obs::Tracer::now_ns();
    sink = query(s, t);
    lat.record(obs::Tracer::now_ns() - q0);
  }
  const double seconds = static_cast<double>(obs::Tracer::now_ns() - t0) / 1e9;
  (void)sink;

  MethodResult r;
  r.method = method;
  r.mix = mix.name;
  r.queries = queries;
  r.seconds = seconds;
  r.qps = seconds > 0 ? static_cast<double>(queries) / seconds : 0.0;
  r.mean_ns = lat.count() > 0 ? static_cast<double>(lat.sum()) /
                                    static_cast<double>(lat.count())
                              : 0.0;
  r.p50_ns = lat.quantile(0.50);
  r.p90_ns = lat.quantile(0.90);
  r.p99_ns = lat.quantile(0.99);
  return r;
}

/// Answers every pair of `mix` through all three methods and insists on
/// bitwise agreement (integer weights: rounded-double arithmetic is exact,
/// so any difference is a routing/evaluation bug, not noise).
std::uint64_t check_agreement(const Mix& mix, const core::EarApspEngine& o,
                              const core::EarApsp& apsp) {
  std::uint64_t bad = 0;
  for (const auto& [s, t] : mix.pairs) {
    const graph::Weight compact = o.query(s, t);
    const graph::Weight full = apsp.distance(s, t);
    const graph::Weight dij = dijkstra_row(s)[t];
    if (std::memcmp(&compact, &dij, sizeof(dij)) != 0 ||
        std::memcmp(&full, &dij, sizeof(dij)) != 0) {
      if (++bad <= 5) {
        std::fprintf(stderr,
                     "disagreement (%s) d(%u,%u): compact=%.17g "
                     "full_table=%.17g dijkstra=%.17g\n",
                     mix.name, s, t, compact, full, dij);
      }
    }
  }
  return bad;
}

void emit_json(const std::vector<MethodResult>& rows, bool smoke) {
  std::filesystem::create_directories("bench_results");
  std::FILE* out = std::fopen("bench_results/oracle_query.json", "w");
  if (out == nullptr) return;
  const auto& g = bench_graph();
  std::fprintf(out, "{\n");
  bench::json_stamp(out);
  std::fprintf(out,
               "  \"smoke\": %s,\n  \"graph\": \"cond_mat_2003\",\n"
               "  \"n\": %u,\n  \"m\": %u,\n  \"cells\": [\n",
               smoke ? "true" : "false", g.num_vertices(), g.num_edges());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const MethodResult& r = rows[i];
    std::fprintf(out,
                 "    {\"method\": \"%s\", \"mix\": \"%s\", "
                 "\"queries\": %llu, "
                 "\"seconds\": %.6f, \"qps\": %.1f, \"mean_ns\": %.1f, "
                 "\"p50_ns\": %.1f, \"p90_ns\": %.1f, \"p99_ns\": %.1f}%s\n",
                 r.method, r.mix, static_cast<unsigned long long>(r.queries),
                 r.seconds, r.qps, r.mean_ns, r.p50_ns, r.p90_ns, r.p99_ns,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote bench_results/oracle_query.json (%zu cells)\n",
              rows.size());
}

}  // namespace

int main(int argc, char** argv) {
  const bench::ObservabilitySession obs_session;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  const auto& g = bench_graph();
  const core::ApspOptions opts{.mode = core::ExecutionMode::Multicore,
                               .cpu_threads = 3};
  const core::EarApspEngine oracle(g, opts);
  const core::EarApsp apsp(g, opts);
  const std::vector<Mix> mixes = build_mixes(oracle);

  std::uint64_t disagreements = 0;
  for (const Mix& mix : mixes) disagreements += check_agreement(mix, oracle, apsp);
  if (disagreements > 0) {
    std::fprintf(stderr, "FAIL: %llu pairs disagree across methods\n",
                 static_cast<unsigned long long>(disagreements));
    return 1;
  }

  std::vector<MethodResult> rows;
  for (const Mix& mix : mixes) {
    rows.push_back(run_method(
        "compact", smoke ? 5000 : 100000, mix,
        [&](graph::VertexId s, graph::VertexId t) {
          return oracle.query(s, t);
        }));
    rows.push_back(run_method(
        "full_table", smoke ? 5000 : 100000, mix,
        [&](graph::VertexId s, graph::VertexId t) {
          return apsp.distance(s, t);
        }));
    rows.push_back(run_method(
        "dijkstra", smoke ? 100 : 1000, mix,
        [&](graph::VertexId s, graph::VertexId t) {
          return sssp::dijkstra(g, s).dist[t];
        }));
  }

  std::printf("=== Oracle query latency, cond_mat_2003 (%u vertices)%s ===\n",
              g.num_vertices(), smoke ? " [smoke]" : "");
  std::printf("%-12s %-12s %10s %12s %10s %10s %10s %10s\n", "Method", "Mix",
              "Queries", "QPS", "mean ns", "p50 ns", "p90 ns", "p99 ns");
  bench::print_rule(12 + 13 + 6 * 11 + 12);
  for (const MethodResult& r : rows) {
    std::printf("%-12s %-12s %10llu %12.0f %10.0f %10.0f %10.0f %10.0f\n",
                r.method, r.mix, static_cast<unsigned long long>(r.queries),
                r.qps, r.mean_ns, r.p50_ns, r.p90_ns, r.p99_ns);
  }
  bench::print_rule(12 + 13 + 6 * 11 + 12);
  std::printf("agreement: every mix pair bit-identical across all three "
              "methods\n");

  emit_json(rows, smoke);
  return 0;
}
