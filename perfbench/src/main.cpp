// perfbench — end-to-end benchmark of eardec's build path (EDG2 file ->
// query-ready snapshot) and serve path (socket -> reply), with a churn
// phase that rebuilds beside concurrent readers. See ../NOTES.md for why
// each workload exists and which layer metric should move which
// end-to-end metric.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>] [--git-sha <sha>] [--src-digest <hex>]
//   perfbench digest --workload <name> --seed <n>
//   perfbench probe --port <p> --requests <n>
//
// Every workload cycles the same three timed phases kRounds times, each
// phase with the workload's share of --seconds:
//   build  read_edg2_file -> OracleServer ctor (Phases 0-III) -> first query
//   http   two closed-loop clients against register_query_routes +
//          StatsServer; every 16th request is a 64-pair POST /query/batch
//   churn  OracleServer::rebuild alternating two graphs on the main thread
//          while reader threads call OracleServer::query
// The last stdout line is the result object; with --trace 1 it carries the
// per-layer metrics of a traced pass, preceded by the per-layer table.
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "connectivity/bcc.hpp"
#include "core/ear_apsp.hpp"
#include "graph/edg2.hpp"
#include "graph/generators.hpp"
#include "http_client.hpp"
#include "obs/stats_server.hpp"
#include "reduce/chains.hpp"
#include "serve/http_routes.hpp"
#include "serve/oracle_server.hpp"
#include "spans.hpp"
#include "sssp/dijkstra.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using eardec::graph::Graph;
using eardec::graph::VertexId;
using eardec::graph::Weight;
using eardec::serve::OracleServer;
using eardec::serve::Query;

// ---------------------------------------------------------------------------
// Workloads

struct WorkloadSpec {
  const char* name;
  VertexId main_n;     ///< vertices of the built and served graph
  bool multicore;      ///< build it with 4 CPU threads, else on one thread
  double build_share;  ///< shares of --seconds per timed phase
  double http_share;
  double churn_share;
};

constexpr VertexId kChurnN = 2000;  // both churn graphs
constexpr int kMinSetups = 3;       // set-ups per run: at least 3, and
constexpr double kSetupFloorS = 1.0; // until they took this long in total
constexpr int kMaxSetups = 15;
constexpr int kRounds = 8;          // the timed phases cycle this many times
constexpr int kHttpClients = 2;
constexpr int kBatchEvery = 16;     // every 16th HTTP request is a batch
constexpr std::size_t kBatchPairs = 64;
constexpr std::size_t kRefSources = 16;
constexpr double kQpsWindowS = 0.1;

constexpr WorkloadSpec kWorkloads[] = {
    {"build_scale20k", 20000, true, 0.60, 0.15, 0.25},
    {"http_mixed_20k", 20000, true, 0.30, 0.45, 0.25},
    {"swap_churn_2k", 2000, false, 0.15, 0.20, 0.65},
};

const WorkloadSpec& find_workload(std::string_view name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return w;
  }
  throw std::invalid_argument("unknown workload '" + std::string(name) + "'");
}

/// Rebuilds beside readers, and every build of swap_churn_2k, run on one
/// thread; the 20k workloads build with the default 4 CPU threads.
eardec::serve::ServeOptions one_thread_options() {
  eardec::serve::ServeOptions o;
  o.build.mode = eardec::core::ExecutionMode::Sequential;
  o.build.cpu_threads = 1;
  return o;
}

eardec::serve::ServeOptions main_options(const WorkloadSpec& spec) {
  return spec.multicore ? eardec::serve::ServeOptions{} : one_thread_options();
}

// ---------------------------------------------------------------------------
// Small helpers

std::uint64_t mix(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double seconds_since(std::uint64_t t0) {
  return static_cast<double>(now_ns() - t0) / 1e9;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

bool same_bits(Weight a, Weight b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

std::uint64_t fnv(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) h = (h ^ p[i]) * 0x100000001b3ULL;
  return h;
}

std::uint64_t graph_digest(const Graph& g) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const VertexId n = g.num_vertices();
  h = fnv(h, &n, sizeof n);
  for (const auto& e : g.edge_list()) h = fnv(h, &e, sizeof e);
  for (const Weight w : g.edge_weights()) h = fnv(h, &w, sizeof w);
  return h;
}

volatile double g_sink = 0;  // keeps timed query loops from being elided

/// Failed operations are counted against attempted ones; the first few
/// messages go to stderr.
struct Tally {
  std::atomic<std::uint64_t> attempted{0};
  std::atomic<std::uint64_t> failed{0};
  std::mutex mu;  // guards errors
  std::vector<std::string> errors;

  void ok(std::uint64_t n = 1) { attempted.fetch_add(n, std::memory_order_relaxed); }
  void fail(const std::string& what) {
    attempted.fetch_add(1, std::memory_order_relaxed);
    failed.fetch_add(1, std::memory_order_relaxed);
    const std::lock_guard lock(mu);
    if (errors.size() < 8) errors.push_back(what);
  }
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// ---------------------------------------------------------------------------
// Inputs: everything derives from the seed

/// Uniform request stream of one HTTP client: GET pairs, with every
/// kBatchEvery-th request a kBatchPairs-pair batch.
class RequestGen {
 public:
  RequestGen(std::uint64_t seed, int client, VertexId n)
      : rng_(mix(seed, 0x4854 + static_cast<std::uint64_t>(client))), n_(n) {}

  /// Fills `pairs`; returns true for a batch request.
  bool next(std::vector<Query>& pairs) {
    const bool batch = (i_++ % kBatchEvery) == kBatchEvery - 1;
    pairs.resize(batch ? kBatchPairs : 1);
    for (Query& q : pairs) {
      q.s = static_cast<VertexId>(rng_() % n_);
      q.t = static_cast<VertexId>(rng_() % n_);
    }
    return batch;
  }

 private:
  std::mt19937_64 rng_;
  VertexId n_;
  std::uint64_t i_ = 0;
};

std::string raw_request(bool batch, const std::vector<Query>& pairs) {
  if (!batch) {
    return "GET /query?s=" + std::to_string(pairs[0].s) + "&t=" +
           std::to_string(pairs[0].t) + " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
  }
  std::string body;
  for (const Query& q : pairs) {
    body += std::to_string(q.s) + ' ' + std::to_string(q.t) + '\n';
  }
  return "POST /query/batch HTTP/1.1\r\nHost: 127.0.0.1\r\n"
         "Content-Type: text/plain\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

/// Dijkstra rows from a few seeded sources: the ground truth every sampled
/// answer is compared against, bit for bit.
struct Reference {
  std::vector<VertexId> sources;
  std::vector<std::vector<Weight>> rows;
};

std::vector<VertexId> pick_sources(VertexId n, std::uint64_t seed, std::uint64_t stream) {
  std::mt19937_64 rng(mix(seed, stream));
  std::vector<VertexId> src(kRefSources);
  for (VertexId& s : src) s = static_cast<VertexId>(rng() % n);
  return src;
}

Reference make_reference(const Graph& g, std::vector<VertexId> sources) {
  Reference ref{std::move(sources), {}};
  for (const VertexId s : ref.sources) {
    ref.rows.push_back(eardec::sssp::dijkstra(g, s).dist);
  }
  return ref;
}

/// One set-up: generate the graphs, write the served one to EDG2, build the
/// served snapshot from the file and the churn server from graph A.
struct Served {
  fs::path main_file;
  Graph main;
  Graph churn_a;
  Graph churn_b;
  std::unique_ptr<OracleServer> main_server;
  std::unique_ptr<OracleServer> churn_server;
};

Served set_up(const WorkloadSpec& spec, std::uint64_t seed, const fs::path& file) {
  namespace gen = eardec::graph::generators;
  Served sv;
  sv.main_file = file;
  sv.main = gen::table1_scale(spec.main_n, seed);
  eardec::graph::io::write_edg2_file(file, sv.main);
  sv.churn_a = spec.main_n == kChurnN ? sv.main : gen::table1_scale(kChurnN, seed);
  sv.churn_b = gen::table1_scale(kChurnN, seed + 1);
  sv.main_server = std::make_unique<OracleServer>(
      eardec::graph::io::read_edg2_file(file), main_options(spec));
  sv.churn_server = std::make_unique<OracleServer>(sv.churn_a, one_thread_options());
  return sv;
}

// ---------------------------------------------------------------------------
// Phase: build (file -> first answered query)

struct BuildResult {
  std::vector<double> build_s;
  std::vector<double> load_ms;
  std::vector<double> ctor_s;
  std::vector<double> first_query_us;
  std::vector<eardec::core::PhaseTimings> timings;
  std::uint64_t sssp_runs = 0;
  double compact_mb = 0;
  eardec::hetero::SchedulerStats sched;
};

/// One round of builds: at least one, then more while the budget lasts.
void run_build(const WorkloadSpec& spec, const Served& sv, const Reference& ref,
               double budget_s, std::uint64_t seed, int round, Tally& tally, BuildResult& r) {
  std::mt19937_64 rng(mix(seed, 0xb0 + static_cast<std::uint64_t>(round)));
  const std::uint64_t start = now_ns();
  for (std::size_t i = 0; i == 0 || seconds_since(start) < budget_s; ++i) {
    const std::size_t k = i % ref.sources.size();
    const VertexId s = ref.sources[k];
    const auto t = static_cast<VertexId>(rng() % sv.main.num_vertices());
    std::unique_ptr<OracleServer> srv;
    Weight w = 0;
    std::uint64_t load = 0, ctor = 0, first = 0;
    const std::uint64_t total = timed("bench.build", [&] {
      Graph g;
      load = timed("graph.read_edg2_file",
                   [&] { g = eardec::graph::io::read_edg2_file(sv.main_file); });
      ctor = timed("serve.OracleServer", [&] {
        srv = std::make_unique<OracleServer>(std::move(g), main_options(spec));
      });
      first = timed("serve.OracleServer::query", [&] { w = srv->query(s, t); });
    });
    if (same_bits(w, ref.rows[k][t])) {
      tally.ok();
    } else {
      tally.fail("build: first query differs from dijkstra");
    }
    r.build_s.push_back(static_cast<double>(total) / 1e9);
    r.load_ms.push_back(static_cast<double>(load) / 1e6);
    r.ctor_s.push_back(static_cast<double>(ctor) / 1e9);
    r.first_query_us.push_back(static_cast<double>(first) / 1e3);
    const auto& engine = srv->snapshot()->engine();
    r.timings.push_back(engine.timings());
    r.sssp_runs = engine.sssp_runs();
    r.compact_mb = engine.memory().compact_mb();
    r.sched = engine.scheduler_stats();
  }
}

// ---------------------------------------------------------------------------
// Phase: http (closed-loop clients over loopback)
//
// The server thread, the batch-drain workers it spawns and both clients all
// run on one CPU. Across virtual CPUs every request pays two cross-CPU
// wakeups whose cost depends on what the host runs next to the VM; on one
// CPU the latency is the request path's own work plus the wait behind the
// other client.

void set_affinity(const cpu_set_t& set) {
  pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

void pin_to(std::size_t cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  set_affinity(set);
}

/// Highest CPU the process may run on: the HTTP phase's CPU.
std::size_t http_cpu(const cpu_set_t& allowed) {
  for (std::size_t c = CPU_SETSIZE - 1; c > 0; --c) {
    if (CPU_ISSET(c, &allowed)) return c;
  }
  return 0;
}

struct HttpResult {
  std::vector<double> get_us;
  std::vector<double> batch_us;
  std::vector<double> connect_us;
  std::vector<double> ttfb_us;
  std::uint64_t sent = 0;
  std::uint64_t served = 0;
  double seconds = 0;
};

/// Extracts the quoted strings after `key` up to the closing bracket/brace.
std::vector<std::string_view> quoted_after(std::string_view body, std::string_view key) {
  std::vector<std::string_view> out;
  std::size_t pos = body.find(key);
  if (pos == std::string_view::npos) return out;
  pos += key.size();
  const std::size_t end = body.find_first_of("]}", pos);
  while (pos < end) {
    const std::size_t open = body.find('"', pos);
    if (open >= end) break;
    const std::size_t close = body.find('"', open + 1);
    if (close == std::string_view::npos || close > end) break;
    out.push_back(body.substr(open + 1, close - open - 1));
    pos = close + 1;
  }
  return out;
}

/// HTTP answers must equal the in-process snapshot's, as %.17g strings;
/// batch answers are checked against the scalar query of every pair.
bool check_reply(const HttpReply& rep, bool batch, const std::vector<Query>& pairs,
                 const eardec::serve::OracleSnapshot& snap, std::string& why) {
  if (rep.status != 200) {
    why = "http status " + std::to_string(rep.status);
    return false;
  }
  const auto got = quoted_after(rep.body, batch ? "\"distances\":" : "\"distance\":");
  if (got.size() != pairs.size()) {
    why = "http reply has " + std::to_string(got.size()) + " distances";
    return false;
  }
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    if (got[i] != eardec::serve::format_distance(snap.query(pairs[i].s, pairs[i].t))) {
      why = "http distance differs from in-process query";
      return false;
    }
  }
  return true;
}

void run_http(const Served& sv, std::uint16_t port, std::size_t cpu, double budget_s,
              std::uint64_t seed, int round, Tally& tally, HttpResult& r) {
  const auto snap = sv.main_server->snapshot();
  auto& stats = eardec::obs::StatsServer::instance();
  const std::uint64_t served0 = stats.requests_served();
  std::mutex mu;  // guards r while clients merge
  const std::uint64_t start = now_ns();
  {
    std::vector<std::jthread> clients;
    for (int c = 0; c < kHttpClients; ++c) {
      clients.emplace_back([&, c] {
        SpanLog::instance().name_thread("http-client-" + std::to_string(c));
        pin_to(cpu);
        HttpClient client(port);
        RequestGen gen(seed, c + kHttpClients * round, sv.main.num_vertices());
        std::vector<Query> pairs;
        std::vector<double> get_us, batch_us, connect_us, ttfb_us;
        std::uint64_t sent = 0;
        // At least one full cycle of GETs and a batch, however short the budget.
        for (int i = 0; i < kBatchEvery || seconds_since(start) < budget_s; ++i) {
          const bool batch = gen.next(pairs);
          const std::string raw = raw_request(batch, pairs);
          HttpReply rep;
          std::string err;
          bool ok = false;
          const std::uint64_t dur = timed(batch ? "http.post_batch" : "http.get",
                                          [&] { ok = client.request(raw, rep, err); });
          ++sent;
          if (ok && check_reply(rep, batch, pairs, *snap, err)) {
            tally.ok();
          } else {
            tally.fail(err);
            continue;
          }
          (batch ? batch_us : get_us).push_back(static_cast<double>(dur) / 1e3);
          if (rep.connected) connect_us.push_back(rep.connect_us);
          if (!batch) ttfb_us.push_back(rep.ttfb_us);
        }
        const std::lock_guard lock(mu);
        r.get_us.insert(r.get_us.end(), get_us.begin(), get_us.end());
        r.batch_us.insert(r.batch_us.end(), batch_us.begin(), batch_us.end());
        r.connect_us.insert(r.connect_us.end(), connect_us.begin(), connect_us.end());
        r.ttfb_us.insert(r.ttfb_us.end(), ttfb_us.begin(), ttfb_us.end());
        r.sent += sent;
      });
    }
  }
  r.seconds += seconds_since(start);
  r.served += stats.requests_served() - served0;
}

// ---------------------------------------------------------------------------
// Phase: churn (rebuilds beside readers)

struct ChurnResult {
  std::vector<double> rebuild_ms;
  std::vector<double> window_qps;
  std::vector<double> pin_ns;
  std::vector<eardec::core::PhaseTimings> timings;
  std::uint64_t epochs_published = 0;
  std::set<std::uint64_t> epochs_seen;
};

unsigned reader_threads() {
  const unsigned n = std::max(2u, std::thread::hardware_concurrency());
  return std::min(3u, n - 1);  // plus the one rebuild thread
}

void run_churn(const Served& sv, const Reference& ref_a, const Reference& ref_b,
               double budget_s, std::uint64_t seed, int round, bool time_pins, Tally& tally,
               ChurnResult& r) {
  OracleServer& srv = *sv.churn_server;
  const std::uint64_t epoch0 = srv.epoch();
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads{0};
  std::mutex mu;  // guards r.pin_ns and r.epochs_seen while readers merge
  const std::size_t rebuilds0 = r.rebuild_ms.size();
  std::vector<double> qps;  // written by the window thread only
  const std::uint64_t start = now_ns();
  {
    std::vector<std::jthread> threads;
    for (unsigned id = 0; id < reader_threads(); ++id) {
      threads.emplace_back([&, id] {
        SpanLog::instance().name_thread("churn-reader-" + std::to_string(id));
        std::mt19937_64 rng(mix(seed, 0x7e4d + 16 * static_cast<std::uint64_t>(round) + id));
        std::set<std::uint64_t> seen;
        std::vector<double> pins;
        std::uint64_t done = 0;
        while (!stop.load(std::memory_order_relaxed)) {
          if (time_pins && id == 0) {
            std::uint64_t acc = 0;
            const std::uint64_t dur = timed("serve.OracleServer::snapshot x1024", [&] {
              for (int j = 0; j < 1024; ++j) acc += srv.snapshot()->epoch();
            });
            g_sink = static_cast<double>(acc);
            pins.push_back(static_cast<double>(dur) / 1024.0);
          }
          timed("serve.OracleServer::query x256", [&] {
            for (int j = 0; j < 256; ++j) {
              const std::size_t k = rng() % kRefSources;
              const VertexId s = ref_a.sources[k];
              const auto t = static_cast<VertexId>(rng() % kChurnN);
              if (j % 64 == 0) {
                // Pinned sample: exact check against the pinned epoch's graph.
                const auto snap = srv.snapshot();
                const Reference& ref = snap->epoch() % 2 == 1 ? ref_a : ref_b;
                seen.insert(snap->epoch());
                if (!same_bits(snap->query(s, t), ref.rows[k][t])) {
                  tally.fail("churn: pinned answer differs from dijkstra");
                }
              } else {
                const Weight w = srv.query(s, t);
                if (!same_bits(w, ref_a.rows[k][t]) && !same_bits(w, ref_b.rows[k][t])) {
                  tally.fail("churn: answer matches neither graph's dijkstra");
                }
              }
            }
          });
          done += 256;
          reads.fetch_add(256, std::memory_order_relaxed);
        }
        tally.ok(done);
        const std::lock_guard lock(mu);
        r.epochs_seen.insert(seen.begin(), seen.end());
        r.pin_ns.insert(r.pin_ns.end(), pins.begin(), pins.end());
      });
    }
    // Reader throughput over fixed windows; the first window is warm-up and
    // at least one more is measured, however short the budget.
    threads.emplace_back([&] {
      std::uint64_t prev = reads.load(std::memory_order_relaxed);
      std::uint64_t t_prev = now_ns();
      bool warm = false;
      int measured = 0;
      while (measured == 0 || seconds_since(start) + kQpsWindowS <= budget_s) {
        std::this_thread::sleep_for(std::chrono::duration<double>(kQpsWindowS));
        const std::uint64_t c = reads.load(std::memory_order_relaxed);
        const std::uint64_t t = now_ns();
        if (warm) {
          qps.push_back(static_cast<double>(c - prev) /
                        (static_cast<double>(t - t_prev) / 1e9));
          ++measured;
        }
        warm = true;
        prev = c;
        t_prev = t;
      }
      stop.store(true, std::memory_order_relaxed);
    });
    // The writer is the calling thread, so every rebuild allocates from the
    // same malloc arena in every round and peak RSS does not depend on which
    // arena a fresh writer thread happened to get.
    // Odd epochs serve graph A, even ones graph B: the ctor published A as
    // epoch 1 and every rebuild toggles.
    do {
      const Graph& next = srv.epoch() % 2 == 1 ? sv.churn_b : sv.churn_a;
      const std::uint64_t dur =
          timed("serve.OracleServer::rebuild", [&] { srv.rebuild(next); });
      r.rebuild_ms.push_back(static_cast<double>(dur) / 1e6);
      r.timings.push_back(srv.snapshot()->engine().timings());
    } while (!stop.load(std::memory_order_relaxed));
  }
  r.window_qps.insert(r.window_qps.end(), qps.begin(), qps.end());
  tally.ok(r.rebuild_ms.size() - rebuilds0);
  r.epochs_published += srv.epoch() - epoch0;
}

// ---------------------------------------------------------------------------
// Verification pass: the served snapshots against Dijkstra, whole rows

void verify_rows(const OracleServer& srv, const Reference& ref, Tally& tally,
                 const char* what) {
  const auto snap = srv.snapshot();
  std::uint64_t ok = 0;
  for (std::size_t k = 0; k < ref.sources.size(); ++k) {
    const auto& row = ref.rows[k];
    for (VertexId t = 0; t < row.size(); ++t) {
      if (same_bits(snap->query(ref.sources[k], t), row[t])) {
        ++ok;
      } else {
        tally.fail(std::string(what) + ": answer differs from dijkstra");
      }
    }
  }
  tally.ok(ok);
}

// ---------------------------------------------------------------------------
// Traced-only probes of single layers

struct Probes {
  double bcc_ms = 0;
  double chains_ms = 0;
  double seq_process_s = 0;
  double query_ns = 0;
  double scalar_ns = 0;
  double scalar_same_ns = 0;
  double scalar_cross_ns = 0;
  double share_same = 0;
  double share_cross = 0;
  double batch64_us = 0;
};

/// Median ns per call of fn over blocks of 1024 calls cycling `pairs`.
template <class F>
double block_ns(const char* span, const std::vector<Query>& pairs, F&& fn) {
  if (pairs.empty()) return 0.0;
  std::vector<double> per_call;
  std::size_t at = 0;
  double acc = 0;
  for (int b = 0; b < 64; ++b) {
    const std::uint64_t dur = timed(span, [&] {
      for (int j = 0; j < 1024; ++j) {
        const Query& q = pairs[at];
        at = at + 1 == pairs.size() ? 0 : at + 1;
        acc += fn(q);
      }
    });
    per_call.push_back(static_cast<double>(dur) / 1024.0);
  }
  g_sink = acc;
  return median(per_call);
}

Probes run_probes(const Served& sv, std::uint64_t seed, Tally& tally) {
  Probes p;
  std::vector<double> bcc, chains;
  for (int i = 0; i < 5; ++i) {
    bcc.push_back(static_cast<double>(timed("connectivity.biconnected_components", [&] {
                    g_sink = eardec::connectivity::biconnected_components(sv.main)
                                 .num_components;
                  })) / 1e6);
    chains.push_back(static_cast<double>(timed("reduce.find_chains", [&] {
                       g_sink = static_cast<double>(
                           eardec::reduce::find_chains(sv.main).chains.size());
                     })) / 1e6);
  }
  p.bcc_ms = median(bcc);
  p.chains_ms = median(chains);

  timed("serve.OracleServer(sequential)", [&] {
    OracleServer s(sv.main, one_thread_options());
    p.seq_process_s = s.snapshot()->engine().timings().process;
  });

  // The GET pairs and batches the http phase sends (client 0's stream).
  RequestGen gen(seed, 0, sv.main.num_vertices());
  std::vector<Query> pairs, same, cross, req;
  std::vector<std::vector<Query>> batches;
  const auto snap = sv.main_server->snapshot();
  using Kind = eardec::core::QueryRoute::Kind;
  while (pairs.size() < 16384) {
    if (gen.next(req)) {
      if (batches.size() < 64) batches.push_back(req);
      continue;
    }
    pairs.push_back(req[0]);
    const Kind kind = snap->engine().route(req[0].s, req[0].t).kind;
    if (kind == Kind::SameBlock) same.push_back(req[0]);
    if (kind == Kind::CrossBlock) cross.push_back(req[0]);
  }
  p.share_same = static_cast<double>(same.size()) / static_cast<double>(pairs.size());
  p.share_cross = static_cast<double>(cross.size()) / static_cast<double>(pairs.size());
  const OracleServer& srv = *sv.main_server;
  p.query_ns = block_ns("core.OracleSnapshot::query x1024", pairs,
                        [&](const Query& q) { return snap->query(q.s, q.t); });
  p.scalar_ns = block_ns("serve.OracleServer::query x1024", pairs,
                         [&](const Query& q) { return srv.query(q.s, q.t); });
  p.scalar_same_ns = block_ns("serve.OracleServer::query x1024", same,
                              [&](const Query& q) { return srv.query(q.s, q.t); });
  p.scalar_cross_ns = block_ns("serve.OracleServer::query x1024", cross,
                               [&](const Query& q) { return srv.query(q.s, q.t); });

  std::vector<double> batch_us;
  for (const auto& b : batches) {
    std::vector<Weight> got;
    batch_us.push_back(static_cast<double>(timed("serve.OracleServer::query_batch", [&] {
                         got = srv.query_batch(b);
                       })) / 1e3);
    bool ok = got.size() == b.size();
    for (std::size_t i = 0; ok && i < b.size(); ++i) {
      ok = same_bits(got[i], snap->query(b[i].s, b[i].t));
    }
    if (ok) {
      tally.ok();
    } else {
      tally.fail("probe: batch answer differs from scalar");
    }
  }
  p.batch64_us = median(batch_us);
  return p;
}

// ---------------------------------------------------------------------------
// Host fingerprint

/// Spins 1 thread, then nproc threads, on the same per-thread work; the
/// effective core count is nproc * t1 / t_nproc.
double effective_cores(unsigned nproc) {
  auto spin = [] {
    std::uint64_t x = 88172645463325252ULL;
    for (int i = 0; i < 100'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    g_sink = static_cast<double>(x & 0xff);
  };
  auto spin_all = [&] {
    std::vector<std::jthread> ts;
    for (unsigned i = 0; i < nproc; ++i) ts.emplace_back(spin);
  };
  spin_all();  // warm-up: wake every CPU before timing
  std::uint64_t t0 = now_ns();
  spin();
  const double t1 = seconds_since(t0);
  t0 = now_ns();
  spin_all();
  const double tn = seconds_since(t0);
  return static_cast<double>(nproc) * t1 / tn;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

struct Args {
  std::string mode = "run";
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  fs::path out_dir = ".bench_out";
  std::string git_sha = "unknown";
  std::string src_digest = "unknown";
  std::uint16_t port = 0;  // probe mode
  int requests = 0;        // probe mode
};

std::string host_json(const Args& a, double loadavg1) {
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  char buf[1024];
  std::snprintf(buf, sizeof buf,
                "{\"nproc\": %u, \"effective_cores\": %.3f, \"compiler\": \"%s\", "
                "\"build_type\": \"%s\", \"eardec_enable_tracing\": %d, "
                "\"git_sha\": \"%s\", \"src_digest\": \"%s\", \"loadavg_1m\": %.2f}",
                nproc, effective_cores(nproc), json_escape(__VERSION__).c_str(),
                PERFBENCH_BUILD_TYPE, EARDEC_TRACING_ENABLED,
                json_escape(a.git_sha).c_str(), json_escape(a.src_digest).c_str(),
                loadavg1);
  return buf;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------------------
// Entry points

Args parse_args(int argc, char** argv) {
  Args a;
  int i = 1;
  if (argc > 1 && (std::string_view(argv[1]) == "digest" ||
                   std::string_view(argv[1]) == "probe")) {
    a.mode = argv[1];
    i = 2;
  }
  for (; i < argc; ++i) {
    const std::string_view key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + std::string(key));
    const std::string val = argv[++i];
    if (key == "--workload") a.workload = val;
    else if (key == "--seed") a.seed = std::stoull(val);
    else if (key == "--seconds") a.seconds = std::stod(val);
    else if (key == "--trace") a.trace = val == "1";
    else if (key == "--out-dir") a.out_dir = val;
    else if (key == "--git-sha") a.git_sha = val;
    else if (key == "--src-digest") a.src_digest = val;
    else if (key == "--port") a.port = static_cast<std::uint16_t>(std::stoul(val));
    else if (key == "--requests") a.requests = std::stoi(val);
    else throw std::invalid_argument("unknown option " + std::string(key));
  }
  if (a.seconds <= 0) throw std::invalid_argument("--seconds must be positive");
  return a;
}

/// Same seed -> same graphs and request streams; the benchmark's own tests
/// compare these digests across seeds.
int print_digest(const Args& a) {
  namespace gen = eardec::graph::generators;
  const WorkloadSpec& spec = find_workload(a.workload);
  std::uint64_t req = 0xcbf29ce484222325ULL;
  for (int c = 0; c < kHttpClients; ++c) {
    RequestGen g(a.seed, c, spec.main_n);
    std::vector<Query> pairs;
    for (int i = 0; i < 4096; ++i) {
      const std::string raw = raw_request(g.next(pairs), pairs);
      req = fnv(req, raw.data(), raw.size());
    }
  }
  std::printf(
      "{\"workload\": \"%s\", \"seed\": %llu, \"main_graph\": \"%016llx\", "
      "\"churn_a\": \"%016llx\", \"churn_b\": \"%016llx\", \"requests\": \"%016llx\"}\n",
      spec.name, static_cast<unsigned long long>(a.seed),
      static_cast<unsigned long long>(graph_digest(gen::table1_scale(spec.main_n, a.seed))),
      static_cast<unsigned long long>(graph_digest(gen::table1_scale(kChurnN, a.seed))),
      static_cast<unsigned long long>(graph_digest(gen::table1_scale(kChurnN, a.seed + 1))),
      static_cast<unsigned long long>(req));
  return 0;
}

/// Sends `requests` GETs to 127.0.0.1:<port>/ through HttpClient and
/// prints how many succeeded and how many connections that took; the tests
/// use it to show the client reuses kept-alive sockets and reconnects after
/// a close.
int probe(const Args& a) {
  HttpClient client(a.port);
  int ok = 0;
  for (int i = 0; i < a.requests; ++i) {
    HttpReply rep;
    std::string err;
    if (client.request("GET / HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n", rep, err) &&
        rep.status == 200) {
      ++ok;
    } else if (!err.empty()) {
      std::fprintf(stderr, "perfbench: probe: %s\n", err.c_str());
    }
  }
  std::printf("{\"ok\": %d, \"connects\": %llu}\n", ok,
              static_cast<unsigned long long>(client.connects()));
  return 0;
}

struct PassResult {
  BuildResult build;
  HttpResult http;
  ChurnResult churn;
};

PassResult run_pass(const WorkloadSpec& spec, const Served& sv, const Reference& ref_main,
                    const Reference& ref_a, const Reference& ref_b, std::uint16_t port,
                    std::size_t cpu, double seconds, std::uint64_t seed, bool traced, Tally& tally) {
  SpanLog::instance().set_enabled(traced);
  SpanLog::instance().name_thread("main");
  // Cycling the phases spreads each one's samples over the whole run, so a
  // slow spell of the host does not land on one phase only.
  PassResult p;
  const double round_s = seconds / kRounds;
  for (int round = 0; round < kRounds; ++round) {
    run_build(spec, sv, ref_main, round_s * spec.build_share, seed, round, tally, p.build);
    run_http(sv, port, cpu, round_s * spec.http_share, seed, round, tally, p.http);
    run_churn(sv, ref_a, ref_b, round_s * spec.churn_share, seed, round, traced, tally,
              p.churn);
  }
  SpanLog::instance().set_enabled(false);
  return p;
}

double pct_change(double traced, double untraced) {
  return untraced > 0 ? (traced - untraced) / untraced * 100.0 : 0.0;
}

std::vector<Metric> end_to_end(double setup_s, const PassResult& p) {
  return {
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"build_s", median(p.build.build_s), "s"},
      {"get_p50_us", median(p.http.get_us), "us"},
      {"batch_p50_us", median(p.http.batch_us), "us"},
      {"rebuild_ms", median(p.churn.rebuild_ms), "ms"},
      {"read_qps", median(p.churn.window_qps), "1/s"},
  };
}

std::vector<Metric> per_layer(const PassResult& p, const PassResult& untraced,
                              const Probes& pr, const std::map<std::string, LayerStat>& layers) {
  const BuildResult& b = p.build;
  auto med_t = [&](double eardec::core::PhaseTimings::*field) {
    std::vector<double> v;
    for (const auto& t : b.timings) v.push_back(t.*field);
    return median(v);
  };
  const auto& sched = b.sched;
  double busy_max = 0, busy_sum = 0;
  for (const auto& w : sched.cpu_workers) {
    busy_max = std::max(busy_max, w.busy_seconds);
    busy_sum += w.busy_seconds;
  }
  const double busy_mean =
      sched.cpu_workers.empty() ? 0 : busy_sum / static_cast<double>(sched.cpu_workers.size());
  const double process_s = med_t(&eardec::core::PhaseTimings::process);
  const double get_p50 = median(p.http.get_us);
  auto coverage = [&](const char* root) {
    const auto it = layers.find(root);
    return it == layers.end() || it->second.total_ns == 0
               ? 0.0
               : static_cast<double>(it->second.child_ns) /
                     static_cast<double>(it->second.total_ns);
  };
  const double ctor_s = median(b.ctor_s);
  const double phases_s = med_t(&eardec::core::PhaseTimings::decompose) +
                          med_t(&eardec::core::PhaseTimings::reduce) + process_s +
                          med_t(&eardec::core::PhaseTimings::ap_table);
  return {
      {"graph.edg2_load_ms", median(b.load_ms), "ms"},
      {"connectivity.bcc_ms", pr.bcc_ms, "ms"},
      {"reduce.chains_ms", pr.chains_ms, "ms"},
      {"core.decompose_s", med_t(&eardec::core::PhaseTimings::decompose), "s"},
      {"core.reduce_s", med_t(&eardec::core::PhaseTimings::reduce), "s"},
      {"core.process_s", process_s, "s"},
      {"core.ap_table_s", med_t(&eardec::core::PhaseTimings::ap_table), "s"},
      {"core.sssp_runs", static_cast<double>(b.sssp_runs), "count"},
      {"core.compact_table_mb", b.compact_mb, "MB"},
      {"core.query_ns", pr.query_ns, "ns"},
      {"hetero.utilization", sched.utilization(), "ratio"},
      {"hetero.cpu_units", static_cast<double>(sched.cpu_units), "count"},
      {"hetero.cpu_claims", static_cast<double>(sched.cpu_claims), "count"},
      {"hetero.queue_contention", static_cast<double>(sched.queue_contention), "count"},
      {"hetero.busy_imbalance", busy_mean > 0 ? busy_max / busy_mean : 0.0, "ratio"},
      {"hetero.seq_process_s", pr.seq_process_s, "s"},
      {"hetero.speedup", process_s > 0 ? pr.seq_process_s / process_s : 0.0, "ratio"},
      {"serve.first_query_us", median(b.first_query_us), "us"},
      {"serve.scalar_ns", pr.scalar_ns, "ns"},
      {"serve.scalar_ns.same_block", pr.scalar_same_ns, "ns"},
      {"serve.scalar_ns.cross_block", pr.scalar_cross_ns, "ns"},
      {"serve.route_share.same_block", pr.share_same, "ratio"},
      {"serve.route_share.cross_block", pr.share_cross, "ratio"},
      {"serve.pin_ns", median(p.churn.pin_ns), "ns"},
      {"serve.batch64_us", pr.batch64_us, "us"},
      {"serve.batch_per_query_ns", pr.batch64_us * 1e3 / static_cast<double>(kBatchPairs), "ns"},
      {"serve.epochs_published", static_cast<double>(p.churn.epochs_published), "count"},
      {"serve.epochs_seen", static_cast<double>(p.churn.epochs_seen.size()), "count"},
      {"serve.rebuild_process_s", [&] {
         std::vector<double> v;
         for (const auto& t : p.churn.timings) v.push_back(t.process);
         return median(v);
       }(), "s"},
      {"http.connect_us", median(p.http.connect_us), "us"},
      {"http.ttfb_us", median(p.http.ttfb_us), "us"},
      {"http.front_end_us", get_p50 - pr.scalar_ns / 1e3, "us"},
      {"http.get_p99_us", quantile(p.http.get_us, 0.99), "us"},
      {"http.get_samples", static_cast<double>(p.http.get_us.size()), "count"},
      {"http.batch_p99_us", quantile(p.http.batch_us, 0.99), "us"},
      {"http.batch_samples", static_cast<double>(p.http.batch_us.size()), "count"},
      {"http.rps", static_cast<double>(p.http.sent) / p.http.seconds, "1/s"},
      {"obs.requests_served", static_cast<double>(p.http.served), "count"},
      {"obs.requests_sent", static_cast<double>(p.http.sent), "count"},
      {"trace.overhead_pct.build_s",
       pct_change(median(p.build.build_s), median(untraced.build.build_s)), "%"},
      {"trace.overhead_pct.get_p50_us", pct_change(get_p50, median(untraced.http.get_us)), "%"},
      {"trace.overhead_pct.rebuild_ms",
       pct_change(median(p.churn.rebuild_ms), median(untraced.churn.rebuild_ms)), "%"},
      {"trace.coverage.build", coverage("bench.build"), "ratio"},
      {"trace.coverage.ctor_by_phases", ctor_s > 0 ? phases_s / ctor_s : 0.0, "ratio"},
      {"trace.spans", static_cast<double>(SpanLog::instance().span_count()), "count"},
  };
}

void print_layer_table(const std::map<std::string, LayerStat>& layers) {
  std::printf("# %-40s %9s %12s %12s\n", "span", "calls", "total_ms", "self_ms");
  for (const auto& [name, s] : layers) {
    std::printf("# %-40s %9llu %12.3f %12.3f\n", name.c_str(),
                static_cast<unsigned long long>(s.calls),
                static_cast<double>(s.total_ns) / 1e6, static_cast<double>(s.self_ns) / 1e6);
  }
}

std::string result_json(const Tally& tally, const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += tally.failed.load() == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(tally.attempted.load());
  out += ", \"failed\": " + std::to_string(tally.failed.load());
  out += ", \"metrics\": {";
  char buf[256];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", metrics[i].name.c_str(), v, metrics[i].unit.c_str());
    out += buf;
  }
  out += "}}";
  return out;
}

int run(const Args& a) {
  const WorkloadSpec& spec = find_workload(a.workload);
  double load[3] = {0, 0, 0};
  getloadavg(load, 3);
  fs::create_directories(a.out_dir);
  // Outputs are named per workload, so repeated runs overwrite them.
  const std::string tag = std::string(spec.name) + (a.trace ? "-traced" : "");
  const fs::path file = a.out_dir / ("graph-" + tag + ".edg2");
  const std::string host = host_json(a, load[0]);

  // Set-up, several times; the last one is kept.
  std::vector<double> setup;
  double setup_total = 0;
  Served sv;
  for (int i = 0; i < kMaxSetups && (i < kMinSetups || setup_total < kSetupFloorS); ++i) {
    sv = Served{};
    const std::uint64_t t0 = now_ns();
    sv = set_up(spec, a.seed, file);
    setup.push_back(seconds_since(t0));
    setup_total += setup.back();
  }
  const double setup_s = median(setup);
  const Reference ref_main = make_reference(sv.main, pick_sources(spec.main_n, a.seed, 0x5a));
  const std::vector<VertexId> churn_src = pick_sources(kChurnN, a.seed, 0x5b);
  const Reference ref_a = make_reference(sv.churn_a, churn_src);
  const Reference ref_b = make_reference(sv.churn_b, churn_src);

  // The server thread inherits the main thread's affinity at start().
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  pthread_getaffinity_np(pthread_self(), sizeof allowed, &allowed);
  const std::size_t cpu = http_cpu(allowed);
  auto& stats = eardec::obs::StatsServer::instance();
  pin_to(cpu);
  const bool started = stats.start(0);
  set_affinity(allowed);
  if (!started) throw std::runtime_error("cannot start the HTTP server");
  eardec::serve::register_query_routes(*sv.main_server);
  const std::uint16_t port = stats.port();

  Tally tally;
  std::vector<Metric> metrics;
  if (!a.trace) {
    const PassResult p = run_pass(spec, sv, ref_main, ref_a, ref_b, port, cpu, a.seconds, a.seed,
                                  false, tally);
    metrics = end_to_end(setup_s, p);
  } else {
    // Untraced half, then traced half: their difference is the tracing
    // overhead; the per-layer numbers come from the traced half.
    const PassResult plain = run_pass(spec, sv, ref_main, ref_a, ref_b, port, cpu, a.seconds / 2,
                                      a.seed, false, tally);
    const PassResult traced = run_pass(spec, sv, ref_main, ref_a, ref_b, port, cpu, a.seconds / 2,
                                       a.seed, true, tally);
    SpanLog::instance().set_enabled(true);
    const Probes probes = run_probes(sv, a.seed, tally);
    SpanLog::instance().set_enabled(false);
    const auto layers = SpanLog::instance().layer_table();
    metrics = per_layer(traced, plain, probes, layers);
    SpanLog::instance().write_chrome_json(a.out_dir / ("trace-" + std::string(spec.name) + ".json"));
    print_layer_table(layers);
  }
  eardec::serve::unregister_query_routes();
  stats.stop();

  verify_rows(*sv.main_server, ref_main, tally, "main");
  verify_rows(*sv.churn_server, sv.churn_server->epoch() % 2 == 1 ? ref_a : ref_b, tally,
              "churn");
  fs::remove(file);

  {
    const std::lock_guard lock(tally.mu);
    for (const auto& e : tally.errors) std::fprintf(stderr, "perfbench: FAILED: %s\n", e.c_str());
  }
  const std::string result = result_json(tally, metrics);
  const std::string header = "{\"host\": " + host + ", \"workload\": \"" + spec.name +
                             "\", \"seed\": " + std::to_string(a.seed) +
                             ", \"trace\": " + (a.trace ? "1" : "0") + "}";
  std::ofstream(a.out_dir / ("result-" + tag + ".json")) << header << "\n" << result << "\n";
  std::printf("%s\n%s\n", header.c_str(), result.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    const perfbench::Args a = perfbench::parse_args(argc, argv);
    if (a.mode == "digest") return perfbench::print_digest(a);
    if (a.mode == "probe") return perfbench::probe(a);
    return perfbench::run(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
