// Sustained-load benchmark of the online serving layer (src/serve): an
// open-loop harness that schedules queries as a Poisson arrival process at
// a configurable QPS target and drives them through OracleServer's scalar
// and batched paths, per query mix (same-block / cross-block / uniform).
//
// Open loop means arrival times are drawn up front from the exponential
// inter-arrival distribution and never pushed back by slow answers: when
// the server falls behind, the backlog shows up as open-loop latency
// (completion minus *scheduled* arrival) instead of silently throttling the
// offered load — the difference between "the p99 under load" and "the p99
// the server felt like serving". Service latency comes from the serving
// layer's own registry histograms (oracle.query.{scalar,batch}.latency_ns),
// so a live /metrics scrape during the run shows the same numbers.
//
// Every kSampleStride-th answer is checked bit-for-bit against a cached
// Dijkstra row on the original graph; any mismatch fails the run. On the
// integer-weighted bench dataset the closed form is exact, so bitwise
// equality is the contract, not a tolerance.
//
// A second, closed-loop cell group measures reader scaling: 1 and 3
// threads query back to back through OracleServer::query, through
// snapshot()->query, and through a snapshot each reader pinned once (the
// bare lookup, the ceiling of the other two). Sampled answers are checked
// against the same Dijkstra rows.
//
// Snapshot: bench_results/oracle_serve.json (schema v2, validated by
// tools/check_bench_smoke.py, diffed by tools/compare_bench.py). The full
// run sustains >= 1M queries across its cells; `--smoke` shrinks each cell
// for the CI gate. Knobs: --qps=<target per cell>, --queries=<per cell>,
// --batch=<batched-path batch size>, --mix=same_block|cross_block|uniform.
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <latch>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include "bench_common.hpp"

#include "graph/datasets.hpp"
#include "obs/slow_log.hpp"
#include "serve/oracle_server.hpp"
#include "sssp/dijkstra.hpp"

namespace {

using namespace eardec;

constexpr std::uint64_t kSampleStride = 401;  // prime: covers all mix slots

volatile double g_checksum = 0;  // sink for the closed-loop answers

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
  std::vector<serve::Query> pairs;
};

/// Stratified pair pools: `uniform` is unconditioned, the other two are
/// rejection-sampled on the engine's own route classification, so the mix
/// label states exactly which evaluation path the queries exercise.
std::vector<Mix> build_mixes(const core::EarApspEngine& eng) {
  const auto& g = bench_graph();
  std::mt19937_64 rng(17);
  std::uniform_int_distribution<graph::VertexId> pick(0,
                                                      g.num_vertices() - 1);
  const auto sample = [&](const char* name, auto want) {
    Mix mix{name, {}};
    mix.pairs.reserve(4096);
    std::uint64_t attempts = 0;
    while (mix.pairs.size() < 4096 && ++attempts < 4096ull * 400) {
      const serve::Query q{pick(rng), pick(rng)};
      if (want(eng.route(q.s, q.t).kind)) mix.pairs.push_back(q);
    }
    if (mix.pairs.empty()) mix.pairs.push_back({0, 0});
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

/// Summary of one attribution-component histogram over a cell.
struct AttrStat {
  double mean_ns = 0;
  double p50_ns = 0, p90_ns = 0, p99_ns = 0;
};

struct CellResult {
  std::string mix;
  const char* path = "";  ///< "scalar" or "batch"
  std::uint64_t queries = 0;
  std::uint64_t batch = 1;  ///< batched-path batch size (1 for scalar)
  double target_qps = 0;
  double seconds = 0;
  double qps = 0;
  double mean_ns = 0;
  double p50_ns = 0, p90_ns = 0, p99_ns = 0;              ///< service latency
  double open_mean_ns = 0;                                   ///< incl. backlog
  double open_p50_ns = 0, open_p90_ns = 0, open_p99_ns = 0;  ///< incl. backlog
  std::uint64_t sampled = 0;
  std::uint64_t mismatches = 0;
  /// Latency attribution (queue_wait/kernel/write, in obs::kAttrComponentNames
  /// order): per-query component histograms whose means sum to open_mean_ns
  /// (check_bench_smoke.py enforces 10%).
  std::array<AttrStat, obs::kNumAttrComponents> attr;
};

/// Busy-waits past the scheduled arrival (sleeping in sub-ms slices while
/// far out); returns the completion-time reference point.
void wait_until(std::uint64_t arrival_ns) {
  while (true) {
    const std::uint64_t now = obs::Tracer::now_ns();
    if (now >= arrival_ns) return;
    const std::uint64_t ahead = arrival_ns - now;
    if (ahead > 200000) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(ahead / 2));
    }
  }
}

/// Serves one request the way the HTTP routes do: `call()` runs inside a
/// serve.request span, the result handoff (nothing to serialize here, so
/// one clock read) is the serve.write span, and obs::record_served
/// attributes arrival -> call -> return -> done. Returns done.
template <typename Call>
std::uint64_t serve_request(const serve::OracleServer& server,
                            std::uint64_t arrival_ns, std::size_t count,
                            serve::Query first, Call&& call) {
  obs::ServedRequest req{.arrival_ns = arrival_ns,
                         .count = static_cast<std::uint32_t>(count),
                         .s = first.s,
                         .t = first.t};
  {
    EARDEC_TRACE_SCOPE("serve.request");
    req.call_ns = obs::Tracer::now_ns();
    call();
    req.ret_ns = obs::Tracer::now_ns();
    req.done_ns = obs::Tracer::now_ns();
    obs::Tracer::instance().record_span("serve.write", req.ret_ns,
                                        req.done_ns - req.ret_ns);
  }
  req.epoch = server.epoch();
  obs::record_served(req);
  return req.done_ns;
}

CellResult run_cell(const serve::OracleServer& server, const Mix& mix,
                    bool batched, std::uint64_t queries, double target_qps,
                    std::uint64_t batch_size) {
  obs::Histogram& service = obs::MetricsRegistry::instance().histogram(
      batched ? "oracle.query.batch.latency_ns"
              : "oracle.query.scalar.latency_ns");
  obs::Histogram& open = obs::MetricsRegistry::instance().histogram(
      "oracle.serve.openloop.latency_ns");
  service.reset();
  open.reset();
  // Attribution components, recorded by obs::record_served below. Reset
  // per cell so each cell's snapshot block summarizes only its own queries.
  std::array<obs::Histogram*, obs::kNumAttrComponents> attr{};
  for (std::size_t i = 0; i < obs::kNumAttrComponents; ++i) {
    attr[i] = &obs::MetricsRegistry::instance().histogram(
        std::string("oracle.serve.attr.") + obs::kAttrComponentNames[i] +
        "_ns");
    attr[i]->reset();
  }

  std::mt19937_64 rng(99);
  // Inter-arrival gaps of a Poisson process at the offered rate; for the
  // batched path a whole batch arrives at once, so batches arrive at
  // target_qps / batch_size.
  const double events_per_s =
      batched ? target_qps / static_cast<double>(batch_size) : target_qps;
  std::exponential_distribution<double> gap(
      events_per_s > 0 ? events_per_s : 1.0);

  std::uint64_t sampled = 0, mismatches = 0, issued = 0;
  const auto verify = [&](const serve::Query& q, graph::Weight got) {
    ++sampled;
    const graph::Weight want = dijkstra_row(q.s)[q.t];
    if (std::memcmp(&got, &want, sizeof(got)) != 0) ++mismatches;
  };

  const std::uint64_t t0 = obs::Tracer::now_ns();
  double arrival = static_cast<double>(t0);
  if (batched) {
    std::vector<serve::Query> batch;
    batch.reserve(batch_size);
    std::size_t at = 0;
    while (issued < queries) {
      batch.clear();
      while (batch.size() < batch_size && issued + batch.size() < queries) {
        batch.push_back(mix.pairs[at++ % mix.pairs.size()]);
      }
      if (target_qps > 0) {
        arrival += gap(rng) * 1e9;
        wait_until(static_cast<std::uint64_t>(arrival));
      } else {
        arrival = static_cast<double>(obs::Tracer::now_ns());
      }
      // Attribution runs from the scheduled arrival, so the components
      // sum exactly to the open-loop latency.
      std::vector<graph::Weight> answers;
      const std::uint64_t done = serve_request(
          server, static_cast<std::uint64_t>(arrival), batch.size(), batch[0],
          [&] { answers = server.query_batch(batch); });
      const auto open_ns = static_cast<std::uint64_t>(
          static_cast<double>(done) - arrival);
      for (std::size_t i = 0; i < batch.size(); ++i) {
        open.record(open_ns);
        if ((issued + i) % kSampleStride == 0) verify(batch[i], answers[i]);
      }
      issued += batch.size();
    }
  } else {
    for (; issued < queries; ++issued) {
      const serve::Query q = mix.pairs[issued % mix.pairs.size()];
      if (target_qps > 0) {
        arrival += gap(rng) * 1e9;
        wait_until(static_cast<std::uint64_t>(arrival));
      } else {
        arrival = static_cast<double>(obs::Tracer::now_ns());
      }
      graph::Weight d = 0;
      const std::uint64_t done =
          serve_request(server, static_cast<std::uint64_t>(arrival), 1, q,
                        [&] { d = server.query(q.s, q.t); });
      open.record(
          static_cast<std::uint64_t>(static_cast<double>(done) - arrival));
      if (issued % kSampleStride == 0) verify(q, d);
    }
  }
  const double seconds =
      static_cast<double>(obs::Tracer::now_ns() - t0) / 1e9;

  CellResult r;
  r.mix = mix.name;
  r.path = batched ? "batch" : "scalar";
  r.queries = issued;
  r.batch = batched ? batch_size : 1;
  r.target_qps = target_qps;
  r.seconds = seconds;
  r.qps = seconds > 0 ? static_cast<double>(issued) / seconds : 0.0;
  r.mean_ns = service.count() > 0 ? static_cast<double>(service.sum()) /
                                        static_cast<double>(service.count())
                                  : 0.0;
  r.p50_ns = service.quantile(0.50);
  r.p90_ns = service.quantile(0.90);
  r.p99_ns = service.quantile(0.99);
  r.open_mean_ns = open.count() > 0 ? static_cast<double>(open.sum()) /
                                          static_cast<double>(open.count())
                                    : 0.0;
  r.open_p50_ns = open.quantile(0.50);
  r.open_p90_ns = open.quantile(0.90);
  r.open_p99_ns = open.quantile(0.99);
  for (std::size_t i = 0; i < obs::kNumAttrComponents; ++i) {
    const obs::Histogram& h = *attr[i];
    r.attr[i].mean_ns = h.count() > 0 ? static_cast<double>(h.sum()) /
                                            static_cast<double>(h.count())
                                      : 0.0;
    r.attr[i].p50_ns = h.quantile(0.50);
    r.attr[i].p90_ns = h.quantile(0.90);
    r.attr[i].p99_ns = h.quantile(0.99);
  }
  r.sampled = sampled;
  r.mismatches = mismatches;
  return r;
}

/// One closed-loop reader-scaling cell.
struct ScalingResult {
  std::string name;  ///< "<access>_r<readers>", the cell's identity
  const char* access = "";
  unsigned readers = 0;
  std::uint64_t queries = 0;
  double seconds = 0;
  double qps = 0;
  std::uint64_t sampled = 0;
  std::uint64_t mismatches = 0;
};

/// How a scaling reader reaches the snapshot it answers from.
enum class Access { kServerQuery, kSnapshotQuery, kPinnedQuery };

constexpr const char* access_name(Access a) {
  switch (a) {
    case Access::kServerQuery: return "server_query";
    case Access::kSnapshotQuery: return "snapshot_query";
    case Access::kPinnedQuery: return "pinned_query";
  }
  return "";
}

/// Pins the calling thread to the i-th CPU it may run on (wrapping), so the
/// readers of a scaling cell run on distinct CPUs. Left to itself, the
/// scheduler of a 4-vCPU VM kept three busy readers stacked on one CPU for
/// whole cells, and the 3-reader cells measured one CPU's throughput.
void pin_to_nth_cpu(unsigned i) {
#if defined(__linux__)
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (pthread_getaffinity_np(pthread_self(), sizeof allowed, &allowed) != 0) {
    return;
  }
  const auto count = static_cast<unsigned>(CPU_COUNT(&allowed));
  if (count == 0) return;
  unsigned skip = i % count;
  for (std::size_t cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed) || skip-- > 0) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pthread_setaffinity_np(pthread_self(), sizeof one, &one);
    return;
  }
#else
  (void)i;
#endif
}

/// `readers` threads answer pairs from `mix` back to back for `seconds`,
/// starting together. Every kSampleStride-th answer is kept and checked
/// against Dijkstra after the readers join (the row cache is not
/// thread-safe).
ScalingResult run_scaling_cell(const serve::OracleServer& server,
                               const Mix& mix, Access access,
                               unsigned readers, double seconds) {
  struct Reader {
    std::uint64_t queries = 0;
    double checksum = 0;  // keeps the answers observable
    std::vector<std::pair<serve::Query, graph::Weight>> samples;
  };
  std::vector<Reader> results(readers);
  std::latch start(readers + 1);
  std::atomic<bool> stop{false};
  std::vector<std::jthread> threads;
  for (unsigned r = 0; r < readers; ++r) {
    threads.emplace_back([&, r] {
      pin_to_nth_cpu(r);
      // Counted in locals, not in `results`, whose entries share lines.
      std::uint64_t queries = 0;
      double checksum = 0;
      std::vector<std::pair<serve::Query, graph::Weight>> samples;
      const auto pinned = server.snapshot();
      std::size_t at = r * mix.pairs.size() / readers;
      start.arrive_and_wait();
      while (!stop.load(std::memory_order_relaxed)) {
        for (int j = 0; j < 256; ++j, ++queries) {
          const serve::Query q = mix.pairs[at++ % mix.pairs.size()];
          graph::Weight d = 0;
          switch (access) {
            case Access::kServerQuery: d = server.query(q.s, q.t); break;
            case Access::kSnapshotQuery:
              d = server.snapshot()->query(q.s, q.t);
              break;
            case Access::kPinnedQuery: d = pinned->query(q.s, q.t); break;
          }
          checksum += d;
          if (queries % kSampleStride == 0) samples.push_back({q, d});
        }
      }
      results[r] = {queries, checksum, std::move(samples)};
    });
  }
  start.arrive_and_wait();
  const std::uint64_t t0 = obs::Tracer::now_ns();
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true, std::memory_order_relaxed);
  threads.clear();  // joins
  const std::uint64_t t1 = obs::Tracer::now_ns();

  ScalingResult cell;
  cell.access = access_name(access);
  cell.readers = readers;
  cell.name = std::string(cell.access) + "_r" + std::to_string(readers);
  cell.seconds = static_cast<double>(t1 - t0) / 1e9;
  for (const Reader& r : results) {
    cell.queries += r.queries;
    g_checksum = g_checksum + r.checksum;
    for (const auto& [q, got] : r.samples) {
      ++cell.sampled;
      const graph::Weight want = dijkstra_row(q.s)[q.t];
      if (std::memcmp(&got, &want, sizeof(got)) != 0) ++cell.mismatches;
    }
  }
  cell.qps = static_cast<double>(cell.queries) / cell.seconds;
  return cell;
}

void emit_json(const std::vector<CellResult>& rows,
               const std::vector<ScalingResult>& scaling, bool smoke) {
  std::filesystem::create_directories("bench_results");
  std::FILE* out = std::fopen("bench_results/oracle_serve.json", "w");
  if (out == nullptr) return;
  const auto& g = bench_graph();
  std::fprintf(out, "{\n");
  bench::json_stamp(out);
  std::fprintf(out,
               "  \"smoke\": %s,\n  \"graph\": \"cond_mat_2003\",\n"
               "  \"n\": %u,\n  \"m\": %u,\n  \"cells\": [\n",
               smoke ? "true" : "false", g.num_vertices(), g.num_edges());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const CellResult& r = rows[i];
    std::fprintf(
        out,
        "    {\"mix\": \"%s\", \"path\": \"%s\", \"queries\": %llu, "
        "\"batch\": %llu, \"target_qps\": %.0f, \"seconds\": %.6f, "
        "\"qps\": %.1f, \"mean_ns\": %.1f, \"p50_ns\": %.1f, "
        "\"p90_ns\": %.1f, \"p99_ns\": %.1f, \"open_mean_ns\": %.1f, "
        "\"open_p50_ns\": %.1f, \"open_p90_ns\": %.1f, "
        "\"open_p99_ns\": %.1f, \"sampled\": %llu, "
        "\"mismatches\": %llu,\n",
        r.mix.c_str(), r.path, static_cast<unsigned long long>(r.queries),
        static_cast<unsigned long long>(r.batch), r.target_qps, r.seconds,
        r.qps, r.mean_ns, r.p50_ns, r.p90_ns, r.p99_ns, r.open_mean_ns,
        r.open_p50_ns, r.open_p90_ns, r.open_p99_ns,
        static_cast<unsigned long long>(r.sampled),
        static_cast<unsigned long long>(r.mismatches));
    std::fprintf(out, "     \"attr\": {");
    for (std::size_t c = 0; c < obs::kNumAttrComponents; ++c) {
      const AttrStat& a = r.attr[c];
      std::fprintf(out,
                   "%s\"%s\": {\"mean_ns\": %.1f, \"p50_ns\": %.1f, "
                   "\"p90_ns\": %.1f, \"p99_ns\": %.1f}",
                   c > 0 ? ", " : "", obs::kAttrComponentNames[c], a.mean_ns,
                   a.p50_ns, a.p90_ns, a.p99_ns);
    }
    std::fprintf(out, "}}%s\n", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n  \"reader_scaling\": [\n");
  for (std::size_t i = 0; i < scaling.size(); ++i) {
    const ScalingResult& c = scaling[i];
    std::fprintf(out,
                 "    {\"name\": \"%s\", \"access\": \"%s\", "
                 "\"readers\": %u, \"queries\": %llu, \"seconds\": %.6f, "
                 "\"qps\": %.1f, \"sampled\": %llu, \"mismatches\": %llu}%s\n",
                 c.name.c_str(), c.access, c.readers,
                 static_cast<unsigned long long>(c.queries), c.seconds, c.qps,
                 static_cast<unsigned long long>(c.sampled),
                 static_cast<unsigned long long>(c.mismatches),
                 i + 1 < scaling.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote bench_results/oracle_serve.json (%zu + %zu cells)\n",
              rows.size(), scaling.size());
}

}  // namespace

int main(int argc, char** argv) {
  const bench::ObservabilitySession obs_session;
  bool smoke = false;
  double qps = -1;
  std::uint64_t queries = 0, batch_size = 64;
  std::string only_mix;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") smoke = true;
    else if (arg.starts_with("--qps=")) qps = std::stod(arg.substr(6));
    else if (arg.starts_with("--queries=")) queries = std::stoull(arg.substr(10));
    else if (arg.starts_with("--batch=")) batch_size = std::stoull(arg.substr(8));
    else if (arg.starts_with("--mix=")) only_mix = arg.substr(6);
  }
  // The exemplar store rides along in the full run: the acceptance bar is
  // holding the QPS gate *with* tail sampling on, not with it compiled out.
  obs::SlowLog::instance().arm();
  if (queries == 0) queries = smoke ? 2000 : 200000;
  if (qps < 0) qps = smoke ? 50000 : 100000;
  if (batch_size == 0) batch_size = 1;

  const auto& g = bench_graph();
  serve::ServeOptions sopts;
  sopts.build = {.mode = core::ExecutionMode::Multicore, .cpu_threads = 3};
  const serve::OracleServer server(g, sopts);
  const auto snap = server.snapshot();
  std::vector<Mix> mixes = build_mixes(snap->engine());

  std::vector<CellResult> rows;
  for (const Mix& mix : mixes) {
    if (!only_mix.empty() && only_mix != mix.name) continue;
    rows.push_back(run_cell(server, mix, false, queries, qps, batch_size));
    rows.push_back(run_cell(server, mix, true, queries, qps, batch_size));
  }

  // Closed-loop reader scaling on the unconditioned pool, after the
  // open-loop cells so their registry histograms stay per-cell.
  std::vector<ScalingResult> scaling;
  for (const Access access :
       {Access::kServerQuery, Access::kSnapshotQuery, Access::kPinnedQuery}) {
    for (const unsigned readers : {1u, 3u}) {
      scaling.push_back(run_scaling_cell(server, mixes.back(), access,
                                         readers, smoke ? 0.2 : 1.0));
    }
  }

  std::uint64_t total = 0, mismatches = 0;
  std::printf("=== Oracle serving under load, cond_mat_2003 "
              "(%u vertices)%s ===\n",
              g.num_vertices(), smoke ? " [smoke]" : "");
  std::printf("%-12s %-7s %9s %11s %9s %9s %9s %11s %6s %4s\n", "Mix", "Path",
              "Queries", "QPS", "p50 ns", "p99 ns", "open p99", "target",
              "sampl", "bad");
  bench::print_rule(96);
  for (const CellResult& r : rows) {
    total += r.queries;
    mismatches += r.mismatches;
    std::printf("%-12s %-7s %9llu %11.0f %9.0f %9.0f %9.0f %11.0f %6llu "
                "%4llu\n",
                r.mix.c_str(), r.path,
                static_cast<unsigned long long>(r.queries), r.qps, r.p50_ns,
                r.p99_ns, r.open_p99_ns, r.target_qps,
                static_cast<unsigned long long>(r.sampled),
                static_cast<unsigned long long>(r.mismatches));
  }
  bench::print_rule(96);
  std::printf("%-16s %7s %11s %13s %6s %4s\n", "Closed loop", "readers",
              "queries", "QPS", "sampl", "bad");
  for (const ScalingResult& c : scaling) {
    mismatches += c.mismatches;
    std::printf("%-16s %7u %11llu %13.0f %6llu %4llu\n", c.access,
                c.readers, static_cast<unsigned long long>(c.queries), c.qps,
                static_cast<unsigned long long>(c.sampled),
                static_cast<unsigned long long>(c.mismatches));
  }
  bench::print_rule(96);
  std::printf("total queries: %llu, mismatches vs Dijkstra: %llu\n",
              static_cast<unsigned long long>(total),
              static_cast<unsigned long long>(mismatches));

  emit_json(rows, scaling, smoke);
  if (mismatches > 0) {
    std::fprintf(stderr,
                 "FAIL: %llu sampled answers differ from Dijkstra\n",
                 static_cast<unsigned long long>(mismatches));
    return 1;
  }
  return 0;
}
