// eardec_cli — run the library's algorithms on a Matrix Market or edge-list
// file from the command line.
//
//   eardec_cli stats     <graph>           structural profile
//   eardec_cli decompose <graph>           BCC / chain / ear summary
//   eardec_cli apsp      <graph> [s t]     build the oracle; optional query
//   eardec_cli mcb       <graph>           minimum cycle basis summary
//   eardec_cli gen       <name> <out>      write a Table-1 dataset to a file
//                                          (name `scale:N` generates the
//                                          N-vertex scaling graph via the
//                                          parallel CSR builder)
//   eardec_cli convert   <in> <out>        convert between formats
//   eardec_cli summarize <graph>           header-only summary for .edg2
//                                          (no payload load); counts for
//                                          other formats
//   eardec_cli query     <graph> <s> <t>   one oracle distance (%.17g / inf)
//   eardec_cli query     <graph> -         stdin "s t" pairs, one per line
//   eardec_cli serve     <graph>           online serving: build the oracle,
//                                          register /query + /query/batch on
//                                          the stats endpoint, run until
//                                          SIGINT/SIGTERM or --serve-seconds
//   eardec_cli version                     build provenance + feature flags
//
// Graphs by extension: *.mtx (Matrix Market), *.edg2 (packed CSR, zero-copy
// mmap load — see docs/scaling.md), anything else as whitespace edge list.
// Options:
//   --mode=seq|mc|gpu|hetero   execution mode (default mc)
//   --threads=N                CPU worker threads (default 4)
//   --deep                     deep-validate .edg2 loads (payload checksum
//                              + range scan; touches every page)
//   --rss-gate[=factor]        decompose: after the phases, compare peak
//                              RSS against the Phase 0–I memory model and
//                              exit 1 if it exceeds model × factor
//                              (default 1.25) — the CI scaling gate
//   --trace <file>             record a Chrome trace (load in Perfetto /
//                              chrome://tracing); also --trace=<file>
//   --metrics <file>           dump the metrics registry as JSON
//   --json-stats               print phase timings + scheduler counters as
//                              one JSON object instead of the human summary
//   --stats-port <p>           serve live stats over HTTP on 127.0.0.1:<p>
//                              (/metrics Prometheus text, /healthz,
//                              /stats.json; 0 picks an ephemeral port, the
//                              chosen one is printed to stderr); also
//                              honored from EARDEC_STATS_PORT
//   --stats-linger <sec>       keep the stats endpoint alive <sec> seconds
//                              after the command finishes, so scrapers can
//                              read the final state
//   --serve-seconds <sec>      serve: exit after <sec> seconds (0 = until a
//                              signal arrives; the default)
//   --slow-log <file>          serve: on shutdown, dump the slow-query
//                              exemplar ring (tail-sampled requests with
//                              their queue_wait/kernel/write attribution,
//                              the same JSON as GET /debug/slow) to <file>.
//                              The exemplar store is armed for the whole
//                              serve run whether or not this is set.
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "connectivity/bcc.hpp"
#include "connectivity/ear_decomposition.hpp"
#include "core/ear_apsp.hpp"
#include "core/memory_model.hpp"
#include "graph/datasets.hpp"
#include "graph/edg2.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/stats.hpp"
#include "bench_common.hpp"
#include "mcb/ear_mcb.hpp"
#include "obs/metrics.hpp"
#include "obs/rss.hpp"
#include "obs/slow_log.hpp"
#include "obs/stats_server.hpp"
#include "obs/trace.hpp"
#include "serve/http_routes.hpp"
#include "serve/oracle_server.hpp"
#include "reduce/chains.hpp"

namespace {

using namespace eardec;

graph::Graph load(const std::string& path, bool deep = false) {
  if (path.ends_with(".mtx")) {
    return graph::io::read_matrix_market_file(path);
  }
  if (path.ends_with(".edg2")) {
    return graph::io::read_edg2_file(path, deep ? graph::io::Edg2Validate::Deep
                                                : graph::io::Edg2Validate::Shallow);
  }
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  return graph::io::read_edge_list(in);
}

void save(const std::string& path, const graph::Graph& g,
          hetero::ThreadPool* pool = nullptr) {
  if (path.ends_with(".mtx")) {
    graph::io::write_matrix_market_file(path, g);
  } else if (path.ends_with(".edg2")) {
    graph::io::write_edg2_file(path, g, pool);
  } else {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot open " + path);
    graph::io::write_edge_list(out, g);
  }
}

struct CliOptions {
  core::ApspOptions apsp{.mode = core::ExecutionMode::Multicore,
                         .cpu_threads = 4};
  std::string trace_path;    ///< --trace: Chrome trace JSON destination
  std::string metrics_path;  ///< --metrics: registry dump (JSON)
  bool json_stats = false;   ///< --json-stats: machine-readable summary
  int stats_port = -1;       ///< --stats-port: live HTTP endpoint (-1 = off)
  unsigned stats_linger = 0; ///< --stats-linger: seconds to serve after done
  unsigned serve_seconds = 0;  ///< serve: run time limit (0 = until signal)
  std::string slow_log_path;   ///< --slow-log: exemplar-ring dump on shutdown
  bool deep = false;           ///< --deep: deep-validate .edg2 loads
  double rss_gate = 0.0;       ///< --rss-gate: decompose RSS/model factor (0 = off)
};

/// Splits argv into flags (into `cli`) and positional operands (returned in
/// order). Value flags accept both `--flag=value` and `--flag value`.
std::vector<std::string> parse_args(int argc, char** argv, CliOptions& cli) {
  std::vector<std::string> pos;
  const auto value_of = [&](const std::string& arg, const char* name,
                            int& i) -> std::string {
    const std::string eq = std::string(name) + "=";
    if (arg.starts_with(eq)) return arg.substr(eq.size());
    if (i + 1 >= argc) {
      throw std::runtime_error(std::string(name) + " needs a value");
    }
    return argv[++i];
  };
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.starts_with("--mode")) {
      const std::string mode = value_of(arg, "--mode", i);
      if (mode == "seq") cli.apsp.mode = core::ExecutionMode::Sequential;
      else if (mode == "mc") cli.apsp.mode = core::ExecutionMode::Multicore;
      else if (mode == "gpu") cli.apsp.mode = core::ExecutionMode::DeviceOnly;
      else if (mode == "hetero") {
        cli.apsp.mode = core::ExecutionMode::Heterogeneous;
      } else {
        throw std::runtime_error("unknown --mode " + mode);
      }
    } else if (arg.starts_with("--threads")) {
      cli.apsp.cpu_threads =
          static_cast<unsigned>(std::stoul(value_of(arg, "--threads", i)));
    } else if (arg.starts_with("--trace")) {
      cli.trace_path = value_of(arg, "--trace", i);
    } else if (arg.starts_with("--metrics")) {
      cli.metrics_path = value_of(arg, "--metrics", i);
    } else if (arg == "--json-stats") {
      cli.json_stats = true;
    } else if (arg.starts_with("--stats-port")) {
      const unsigned long port =
          std::stoul(value_of(arg, "--stats-port", i));
      if (port > 65535) throw std::runtime_error("--stats-port out of range");
      cli.stats_port = static_cast<int>(port);
    } else if (arg.starts_with("--stats-linger")) {
      cli.stats_linger =
          static_cast<unsigned>(std::stoul(value_of(arg, "--stats-linger", i)));
    } else if (arg.starts_with("--serve-seconds")) {
      cli.serve_seconds =
          static_cast<unsigned>(std::stoul(value_of(arg, "--serve-seconds", i)));
    } else if (arg.starts_with("--slow-log")) {
      cli.slow_log_path = value_of(arg, "--slow-log", i);
    } else if (arg == "--deep") {
      cli.deep = true;
    } else if (arg == "--rss-gate") {
      cli.rss_gate = 1.25;
    } else if (arg.starts_with("--rss-gate=")) {
      cli.rss_gate = std::stod(arg.substr(std::strlen("--rss-gate=")));
      if (cli.rss_gate <= 0) throw std::runtime_error("--rss-gate must be > 0");
    } else if (arg.starts_with("--")) {
      throw std::runtime_error("unknown option " + arg);
    } else {
      pos.push_back(arg);
    }
  }
  return pos;
}

/// Writes the pending --trace / --metrics exports on scope exit, so every
/// `return` path in the command dispatch flushes them.
struct ObsExports {
  const CliOptions& cli;
  ~ObsExports() {
    // Short commands finish before a scraper gets a look in; the linger
    // window keeps the endpoint (and its final numbers) up before we stop
    // the serving thread.
    auto& stats = obs::StatsServer::instance();
    if (stats.running() && cli.stats_linger > 0) {
      std::fprintf(stderr, "stats: lingering %u s on port %u\n",
                   cli.stats_linger, static_cast<unsigned>(stats.port()));
      std::this_thread::sleep_for(std::chrono::seconds(cli.stats_linger));
    }
    stats.stop();
    if (!cli.trace_path.empty() &&
        !obs::Tracer::instance().write_chrome_trace_file(cli.trace_path)) {
      std::fprintf(stderr, "error: cannot write %s\n", cli.trace_path.c_str());
    }
    if (!cli.metrics_path.empty() &&
        !obs::MetricsRegistry::instance().write_file(cli.metrics_path)) {
      std::fprintf(stderr, "error: cannot write %s\n",
                   cli.metrics_path.c_str());
    }
  }
};

void print_scheduler_json(const hetero::SchedulerStats& s) {
  std::printf("  \"scheduler\": {\n");
  std::printf("    \"cpu_units\": %llu,\n",
              static_cast<unsigned long long>(s.cpu_units));
  std::printf("    \"device_units\": %llu,\n",
              static_cast<unsigned long long>(s.device_units));
  std::printf("    \"cpu_claims\": %llu,\n",
              static_cast<unsigned long long>(s.cpu_claims));
  std::printf("    \"device_claims\": %llu,\n",
              static_cast<unsigned long long>(s.device_claims));
  std::printf("    \"queue_contention\": %llu,\n",
              static_cast<unsigned long long>(s.queue_contention));
  std::printf("    \"elapsed_seconds\": %.6f,\n", s.elapsed_seconds);
  std::printf("    \"utilization\": %.4f,\n", s.utilization());
  std::printf("    \"cpu_workers\": [");
  for (std::size_t i = 0; i < s.cpu_workers.size(); ++i) {
    const auto& w = s.cpu_workers[i];
    std::printf("%s{\"units\": %llu, \"claims\": %llu, "
                "\"busy_seconds\": %.6f}",
                i == 0 ? "" : ", ",
                static_cast<unsigned long long>(w.units),
                static_cast<unsigned long long>(w.claims), w.busy_seconds);
  }
  std::printf("],\n");
  std::printf("    \"device_worker\": {\"units\": %llu, \"claims\": %llu, "
              "\"busy_seconds\": %.6f}\n",
              static_cast<unsigned long long>(s.device_worker.units),
              static_cast<unsigned long long>(s.device_worker.claims),
              s.device_worker.busy_seconds);
  std::printf("  }\n");
}

/// The --json-stats object for apsp: PhaseTimings and
/// SchedulerStats of the oracle build, as one JSON document on stdout.
void print_apsp_json(const core::EarApspEngine& oracle) {
  const core::PhaseTimings& t = oracle.timings();
  std::printf("{\n  \"command\": \"apsp\",\n");
  std::printf("  \"phases\": {\n");
  std::printf("    \"decompose\": %.6f,\n", t.decompose);
  std::printf("    \"reduce\": %.6f,\n", t.reduce);
  std::printf("    \"process\": %.6f,\n", t.process);
  std::printf("    \"postprocess\": %.6f,\n", t.postprocess);
  std::printf("    \"ap_table\": %.6f,\n", t.ap_table);
  std::printf("    \"total\": %.6f\n", t.total());
  std::printf("  },\n");
  print_scheduler_json(oracle.scheduler_stats());
  std::printf("}\n");
}

void print_mcb_json(const mcb::McbResult& r, bool valid) {
  const mcb::McbStats& s = r.stats;
  std::printf("{\n  \"command\": \"mcb\",\n");
  std::printf("  \"basis_size\": %zu,\n", r.basis.size());
  std::printf("  \"total_weight\": %g,\n", r.total_weight);
  std::printf("  \"valid\": %s,\n", valid ? "true" : "false");
  std::printf("  \"phases\": {\n");
  std::printf("    \"reduce\": %.6f,\n", s.reduce_seconds);
  std::printf("    \"preprocess\": %.6f,\n", s.preprocess_seconds);
  std::printf("    \"labels\": %.6f,\n", s.labels_seconds);
  std::printf("    \"search\": %.6f,\n", s.search_seconds);
  std::printf("    \"update\": %.6f,\n", s.update_seconds);
  std::printf("    \"total\": %.6f\n", s.total_seconds());
  std::printf("  },\n");
  std::printf("  \"dimension\": %zu,\n", s.dimension);
  std::printf("  \"candidates\": %zu,\n", s.candidates);
  std::printf("  \"fallback_searches\": %zu,\n", s.fallback_searches);
  std::printf("  \"fvs_size\": %zu\n", s.fvs_size);
  std::printf("}\n");
}

/// `eardec_cli version`: build provenance — the same fields
/// bench::json_stamp() bakes into bench_results/*.json snapshots, plus the
/// compiled feature flags, so a snapshot can always be matched back to a
/// binary.
int print_version() {
  std::printf("eardec_cli\n");
  std::printf("git_sha: %s\n", bench::build_git_sha());
  std::printf("bench_schema_version: %d\n", bench::kBenchSchemaVersion);
  std::printf("graph_formats: mtx(rw) edgelist(rw) edg2(v%u rw, "
              "mmap)\n",
              graph::io::kEdg2Version);
  std::printf("tracing: %s\n", obs::kTracingEnabled ? "on" : "off");
#if defined(EARDEC_SANITIZE_BUILD)
  std::printf("sanitize: on\n");
#else
  std::printf("sanitize: off\n");
#endif
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: eardec_cli {stats|decompose|apsp|mcb|gen|convert|"
               "summarize|query|serve|version} <args> "
               "[--mode=seq|mc|gpu|hetero] "
               "[--threads=N] [--trace <file>] [--metrics <file>] "
               "[--json-stats] [--stats-port <p>] "
               "[--stats-linger <sec>] [--serve-seconds <sec>] "
               "[--slow-log <file>] "
               "[--deep] [--rss-gate[=factor]]\n");
  return 2;
}

volatile std::sig_atomic_t g_serve_stop = 0;
void serve_signal_handler(int) { g_serve_stop = 1; }

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && (std::strcmp(argv[1], "version") == 0 ||
                    std::strcmp(argv[1], "--version") == 0)) {
    return print_version();
  }
  if (argc < 3) return usage();
  const std::string cmd = argv[1];
  try {
    CliOptions cli;
    const std::vector<std::string> pos = parse_args(argc - 2, argv + 2, cli);
    if (pos.empty()) return usage();
    if (!cli.trace_path.empty()) obs::Tracer::instance().set_enabled(true);
    if (cli.stats_port >= 0) {
      obs::StatsServer::instance().start(
          static_cast<std::uint16_t>(cli.stats_port));
    } else {
      obs::StatsServer::instance().configure_from_env();
    }
    const ObsExports exports{cli};  // flushes --trace/--metrics on return
    const core::ApspOptions& opts = cli.apsp;

    if (cmd == "gen") {
      if (pos.size() < 2) return usage();
      // `scale:N` is the million-node scaling generator: raw edge list plus
      // the parallel CSR builder, then whatever format the extension picks.
      if (pos[0].starts_with("scale:")) {
        const auto n = static_cast<graph::VertexId>(
            std::stoul(pos[0].substr(std::strlen("scale:"))));
        hetero::ThreadPool pool(opts.cpu_threads);
        auto se = graph::generators::table1_scale_edges(n, /*seed=*/42);
        const graph::Graph scale = graph::io::build_csr_parallel(
            se.num_vertices, std::move(se.edges), std::move(se.weights),
            &pool);
        save(pos[1], scale, &pool);
        std::printf("wrote %s (scale graph, %u vertices, %u edges)\n",
                    pos[1].c_str(), scale.num_vertices(), scale.num_edges());
        return 0;
      }
      const auto& d = graph::datasets::by_name(pos[0]);
      save(pos[1], d.make());
      std::printf("wrote %s (dataset %s)\n", pos[1].c_str(), d.name.c_str());
      return 0;
    }
    if (cmd == "summarize" && pos[0].ends_with(".edg2")) {
      // Header-only: never faults the payload pages in. --deep additionally
      // loads + fully validates (checksum, ranges).
      const auto info = graph::io::inspect_edg2_file(pos[0]);
      std::printf("format:    EDG2 v%u\n", info.version);
      std::printf("vertices:  %llu\n",
                  static_cast<unsigned long long>(info.num_vertices));
      std::printf("edges:     %llu (self-loops: %llu, parallels: %s)\n",
                  static_cast<unsigned long long>(info.num_edges),
                  static_cast<unsigned long long>(info.num_self_loops),
                  info.has_parallel_edges ? "yes" : "no");
      std::printf("file:      %.2f MB (payload %.2f MB)\n",
                  static_cast<double>(info.file_bytes) / (1024.0 * 1024.0),
                  static_cast<double>(info.payload_bytes) / (1024.0 * 1024.0));
      std::printf("provenance: %s\n", info.provenance.c_str());
      if (cli.deep) {
        const graph::Graph g = load(pos[0], /*deep=*/true);
        std::printf("deep validation: ok (%u vertices loaded)\n",
                    g.num_vertices());
      }
      return 0;
    }

    const graph::Graph g = load(pos[0], cli.deep);

    if (cmd == "summarize") {
      std::printf("vertices:  %u\nedges:     %u (self-loops: %llu, "
                  "parallels: %s)\n",
                  g.num_vertices(), g.num_edges(),
                  static_cast<unsigned long long>(g.num_self_loops()),
                  g.has_parallel_edges() ? "yes" : "no");
      return 0;
    }
    if (cmd == "convert") {
      if (pos.size() < 2) return usage();
      hetero::ThreadPool pool(opts.cpu_threads);
      save(pos[1], g, &pool);
      std::printf("wrote %s (%u vertices, %u edges)\n", pos[1].c_str(),
                  g.num_vertices(), g.num_edges());
      return 0;
    }
    if (cmd == "stats") {
      std::printf("%s\n", graph::to_string(graph::compute_stats(g)).c_str());
      return 0;
    }
    if (cmd == "decompose") {
      const auto bcc = connectivity::biconnected_components(g);
      const auto chains = reduce::find_chains(g);
      std::size_t removable = 0;
      for (const auto& c : chains.chains) removable += c.interior.size();
      std::printf("biconnected components: %u\n", bcc.num_components);
      std::printf("articulation points:    %zu\n",
                  bcc.num_articulation_points());
      std::printf("degree-2 chains:        %zu (removing %zu of %u vertices)\n",
                  chains.chains.size(), removable, g.num_vertices());
      if (connectivity::is_biconnected(g) && g.num_edges() > 0) {
        const auto ed = connectivity::ear_decomposition(g);
        std::printf("ear decomposition:      %zu ears (open: %s)\n",
                    ed.ears.size(), ed.open ? "yes" : "no");
      } else if (bcc.num_components > 0) {
        // Phase I on the dominant block: extract it and ear-decompose.
        std::uint32_t largest = 0;
        for (std::uint32_t c = 1; c < bcc.num_components; ++c) {
          if (bcc.component_edges(c).size() >
              bcc.component_edges(largest).size()) {
            largest = c;
          }
        }
        if (bcc.component_edges(largest).size() > 1) {
          const auto view = connectivity::extract_component(g, bcc, largest);
          const auto ed = connectivity::ear_decomposition(view.graph);
          std::printf("largest block:          %u vertices, %u edges, "
                      "%zu ears (open: %s)\n",
                      view.graph.num_vertices(), view.graph.num_edges(),
                      ed.ears.size(), ed.open ? "yes" : "no");
        }
      }
      if (cli.rss_gate > 0) {
        const auto model =
            core::phase01_memory_model(g.num_vertices(), g.num_edges());
        const double peak = obs::read_peak_rss_mb();
        std::printf("rss-gate: peak %.1f MB, model %.1f MB "
                    "(csr %.1f MB), allowed %.1f MB\n",
                    peak, model.total_mb(), model.csr_mb(),
                    model.total_mb() * cli.rss_gate);
        if (peak < 0) {
          std::fprintf(stderr, "rss-gate: peak RSS unavailable\n");
          return 1;
        }
        if (peak > model.total_mb() * cli.rss_gate) {
          std::fprintf(stderr,
                       "rss-gate: FAILED (peak %.1f MB > %.1f MB)\n", peak,
                       model.total_mb() * cli.rss_gate);
          return 1;
        }
      }
      return 0;
    }
    if (cmd == "apsp") {
      const core::EarApspEngine oracle(g, opts);
      if (cli.json_stats) {
        print_apsp_json(oracle);
      } else {
        std::printf("oracle ready: %u components, %llu SSSP runs, "
                    "%.2f MB (vs %.2f MB dense)\n",
                    oracle.num_components(),
                    static_cast<unsigned long long>(
                        oracle.sssp_runs()),
                    oracle.memory().compact_mb(), oracle.memory().full_mb());
      }
      if (pos.size() >= 3) {
        const auto s = static_cast<graph::VertexId>(std::stoul(pos[1]));
        const auto t = static_cast<graph::VertexId>(std::stoul(pos[2]));
        if (!cli.json_stats) {
          std::printf("d(%u, %u) = %g\n", s, t, oracle.query(s, t));
        }
      }
      return 0;
    }
    if (cmd == "mcb") {
      mcb::McbOptions mopts{.mode = opts.mode, .cpu_threads = opts.cpu_threads};
      const auto r = mcb::minimum_cycle_basis(g, mopts);
      const bool valid = mcb::validate_basis(g, r);
      if (cli.json_stats) {
        print_mcb_json(r, valid);
      } else {
        std::printf("basis: %zu cycles, total weight %g, valid: %s\n",
                    r.basis.size(), r.total_weight, valid ? "yes" : "NO");
        std::printf("profile: labels %.0f%%, search %.0f%%, update %.0f%%\n",
                    100 * r.stats.labels_seconds / r.stats.total_seconds(),
                    100 * r.stats.search_seconds / r.stats.total_seconds(),
                    100 * r.stats.update_seconds / r.stats.total_seconds());
      }
      return 0;
    }
    if (cmd == "query") {
      // Reference answers for the serving layer: the same compact closed
      // form the server evaluates, printed with format_distance so the CI
      // smoke diff against /query responses is textual and exact.
      const core::EarApspEngine oracle(g, opts);
      if (pos.size() >= 3) {
        const auto s = static_cast<graph::VertexId>(std::stoul(pos[1]));
        const auto t = static_cast<graph::VertexId>(std::stoul(pos[2]));
        std::printf("%s\n", serve::format_distance(oracle.query(s, t)).c_str());
        return 0;
      }
      if (pos.size() == 2 && pos[1] == "-") {
        unsigned s = 0, t = 0;
        while (std::scanf("%u %u", &s, &t) == 2) {
          std::printf("%s\n",
                      serve::format_distance(oracle.query(s, t)).c_str());
        }
        return 0;
      }
      return usage();
    }
    if (cmd == "serve") {
      if (!obs::StatsServer::kCompiledIn) {
        std::fprintf(stderr,
                     "error: serve needs the stats server; rebuild with "
                     "-DEARDEC_ENABLE_TRACING=ON\n");
        return 1;
      }
      serve::OracleServer server(g, {.build = opts});
      serve::register_query_routes(server);
      // Tail-sampled exemplar store (GET /debug/slow, --slow-log).
      obs::SlowLog::instance().arm();
      auto& stats = obs::StatsServer::instance();
      if (!stats.running() &&
          !stats.start(cli.stats_port >= 0
                           ? static_cast<std::uint16_t>(cli.stats_port)
                           : 0)) {
        serve::unregister_query_routes();
        std::fprintf(stderr, "error: cannot start the stats endpoint\n");
        return 1;
      }
      // The harness (tools/serve_smoke.sh, tests) parses this line for the
      // bound port; keep the format stable.
      std::printf("serve: ready port=%u epoch=%llu vertices=%u\n",
                  static_cast<unsigned>(stats.port()),
                  static_cast<unsigned long long>(server.epoch()),
                  g.num_vertices());
      std::fflush(stdout);
      std::signal(SIGINT, serve_signal_handler);
      std::signal(SIGTERM, serve_signal_handler);
      const auto deadline =
          std::chrono::steady_clock::now() +
          std::chrono::seconds(cli.serve_seconds);
      while (g_serve_stop == 0 &&
             (cli.serve_seconds == 0 ||
              std::chrono::steady_clock::now() < deadline)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
      // Join the serving thread before the handler's OracleServer target
      // goes out of scope; only then drop the routes.
      stats.stop();
      serve::unregister_query_routes();
      if (!cli.slow_log_path.empty()) {
        std::ofstream slow(cli.slow_log_path);
        if (slow) {
          slow << obs::SlowLog::instance().dump_json() << '\n';
          std::printf("serve: slow-query exemplars -> %s\n",
                      cli.slow_log_path.c_str());
        } else {
          std::fprintf(stderr, "error: cannot write %s\n",
                       cli.slow_log_path.c_str());
        }
      }
      std::printf("serve: shutdown epoch=%llu\n",
                  static_cast<unsigned long long>(server.epoch()));
      return 0;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}
