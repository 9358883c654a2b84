// Concurrency + correctness suite for the online serving layer
// (src/serve). Runs under the `hetero` ctest label, so CI exercises every
// test here under ThreadSanitizer: N reader threads hammering a snapshot
// while the stats endpoint is scraped, snapshot swaps under load (readers
// pinned to the old epoch finish on it — no use-after-free, no torn
// answers), and bitwise determinism of the batched path across reruns and
// execution modes.
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <latch>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/ear_apsp.hpp"
#include "obs/metrics.hpp"
#include "obs/slow_log.hpp"
#include "obs/stats_server.hpp"
#include "obs/trace.hpp"
#include "serve/http_routes.hpp"
#include "serve/oracle_server.hpp"
#include "sssp/dijkstra.hpp"
#include "testing/families.hpp"
#include "testing/metamorphic.hpp"

#if defined(__unix__)
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

namespace {

using namespace eardec;
using graph::VertexId;
using graph::Weight;

graph::Graph test_graph(std::uint64_t seed, std::uint32_t size = 40) {
  // block_cut: articulation-heavy, so all four route kinds occur.
  return eardec::testing::family("block_cut").make(seed, size);
}

std::vector<serve::Query> all_pairs(const graph::Graph& g) {
  std::vector<serve::Query> q;
  q.reserve(static_cast<std::size_t>(g.num_vertices()) * g.num_vertices());
  for (VertexId s = 0; s < g.num_vertices(); ++s) {
    for (VertexId t = 0; t < g.num_vertices(); ++t) q.push_back({s, t});
  }
  return q;
}

bool bitwise_equal(const std::vector<Weight>& a,
                   const std::vector<Weight>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(),
                                   a.size() * sizeof(Weight)) == 0);
}

TEST(OracleServer, ScalarPathMatchesCompactOracle) {
  const graph::Graph g = test_graph(11);
  const serve::OracleServer server(g, {});
  const core::EarApspEngine reference(
      g, {.mode = core::ExecutionMode::Sequential});
  for (VertexId s = 0; s < g.num_vertices(); ++s) {
    for (VertexId t = 0; t < g.num_vertices(); ++t) {
      const Weight got = server.query(s, t);
      const Weight want = reference.query(s, t);
      EXPECT_EQ(std::memcmp(&got, &want, sizeof(Weight)), 0)
          << "d(" << s << "," << t << ") got " << got << " want " << want;
    }
  }
}

TEST(OracleServer, BatchMatchesScalarBitwiseAcrossModes) {
  const graph::Graph g = test_graph(23);
  const std::vector<serve::Query> queries = all_pairs(g);

  // Scalar reference from one server; a batch on a snapshot built in any
  // execution mode must reproduce it bit for bit.
  const serve::OracleServer scalar_server(
      g, {.build = {.mode = core::ExecutionMode::Sequential}});
  std::vector<Weight> expected;
  expected.reserve(queries.size());
  for (const serve::Query& q : queries) {
    expected.push_back(scalar_server.query(q.s, q.t));
  }

  const core::ExecutionMode modes[] = {core::ExecutionMode::Sequential,
                                       core::ExecutionMode::Multicore,
                                       core::ExecutionMode::Heterogeneous};
  for (const auto mode : modes) {
    const serve::OracleServer server(
        g, {.build = {.mode = mode, .cpu_threads = 3}});
    const std::vector<Weight> got = server.query_batch(queries);
    EXPECT_TRUE(bitwise_equal(got, expected))
        << "mode " << static_cast<int>(mode);
  }
}

TEST(OracleServer, IdenticalBatchRerunsAreBitwiseIdentical) {
  const graph::Graph g = test_graph(5);
  const serve::OracleServer server(
      g, {.build = {.mode = core::ExecutionMode::Multicore,
                    .cpu_threads = 4}});
  const std::vector<serve::Query> queries = all_pairs(g);
  const std::vector<Weight> first = server.query_batch(queries);
  for (int rerun = 0; rerun < 5; ++rerun) {
    EXPECT_TRUE(bitwise_equal(server.query_batch(queries), first))
        << "rerun " << rerun;
  }
}

// A batch is the closed form looped on one pinned snapshot: it must not
// drain through the hetero scheduler, whose process-wide counters every
// run_cpu_only call advances.
TEST(OracleServer, BatchBypassesTheScheduler) {
  const graph::Graph g = test_graph(31);
  const serve::OracleServer server(
      g, {.build = {.mode = core::ExecutionMode::Multicore,
                    .cpu_threads = 4}});
  std::mt19937_64 rng(31);
  std::vector<serve::Query> batch(64);
  for (serve::Query& q : batch) {
    q.s = static_cast<VertexId>(rng() % g.num_vertices());
    q.t = static_cast<VertexId>(rng() % g.num_vertices());
  }
  auto& reg = obs::MetricsRegistry::instance();
  const obs::Counter& units = reg.counter("hetero.scheduler.cpu_units");
  const obs::Counter& claims = reg.counter("hetero.scheduler.cpu_claims");
  const std::uint64_t units_before = units.value();
  const std::uint64_t claims_before = claims.value();
  EXPECT_EQ(server.query_batch(batch).size(), batch.size());
  EXPECT_EQ(units.value(), units_before);
  EXPECT_EQ(claims.value(), claims_before);
}

// query_on answers from the snapshot it is handed, not the current one:
// after a rebuild to doubled weights, the old pin still yields the old
// graph's distances while query() already sees the new ones.
TEST(OracleServer, QueryOnAnswersFromThePinnedSnapshot) {
  const graph::Graph a = test_graph(17);
  const graph::Graph b = eardec::testing::scale_weights(a, 2);
  serve::OracleServer server(a, {});
  const auto pinned = server.snapshot();
  server.rebuild(b);
  const VertexId n = a.num_vertices();
  for (VertexId s = 0; s < n; ++s) {
    const auto want_a = sssp::dijkstra(a, s).dist;
    const auto want_b = sssp::dijkstra(b, s).dist;
    for (VertexId t = 0; t < n; ++t) {
      EXPECT_EQ(server.query_on(*pinned, s, t), want_a[t]);
      EXPECT_EQ(server.query(s, t), want_b[t]);
    }
  }
}

TEST(OracleServer, BatchHandlesEmptyAndTrivialQueries) {
  const graph::Graph g = test_graph(3);
  const serve::OracleServer server(g, {});
  EXPECT_TRUE(server.query_batch({}).empty());
  const std::vector<serve::Query> trivial{{0, 0}, {1, 1}};
  const std::vector<Weight> out = server.query_batch(trivial);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], 0.0);
  EXPECT_EQ(out[1], 0.0);
}

TEST(OracleServer, BatchRejectsOutOfRangeVertices) {
  const graph::Graph g = test_graph(3);
  const serve::OracleServer server(g, {});
  const std::vector<serve::Query> bad{{0, g.num_vertices()}};
  EXPECT_THROW((void)server.query_batch(bad), std::out_of_range);
  EXPECT_THROW((void)server.query(g.num_vertices(), 0), std::out_of_range);
}

/// The three oracle.serve.attr.*_ns histograms, in kAttrComponentNames
/// order.
std::array<obs::Histogram*, obs::kNumAttrComponents> attr_histograms() {
  std::array<obs::Histogram*, obs::kNumAttrComponents> out{};
  for (std::size_t i = 0; i < obs::kNumAttrComponents; ++i) {
    out[i] = &obs::MetricsRegistry::instance().histogram(
        std::string("oracle.serve.attr.") + obs::kAttrComponentNames[i] +
        "_ns");
  }
  return out;
}

std::uint64_t attr_sum() {
  std::uint64_t sum = 0;
  for (const obs::Histogram* h : attr_histograms()) sum += h->sum();
  return sum;
}

// The latency-attribution contract (docs/observability.md): the request
// owner's four timestamps split into three contiguous components, so their
// histogram sums grow by exactly done - arrival per answered query.
TEST(OracleServer, ServedRequestComponentsSumToDoneMinusArrival) {
  const graph::Graph g = test_graph(13);
  const serve::OracleServer server(g, {});
  const std::vector<serve::Query> queries = {{0, 1}, {2, 3}, {5, 9}, {1, 1}};

  for (const bool batched : {false, true}) {
    const std::uint64_t before = attr_sum();
    obs::ServedRequest req{.arrival_ns = obs::Tracer::now_ns()};
    req.call_ns = obs::Tracer::now_ns();
    if (batched) {
      req.count = static_cast<std::uint32_t>(queries.size());
      ASSERT_EQ(server.query_batch(queries).size(), queries.size());
    } else {
      (void)server.query(0, 5);
    }
    req.ret_ns = obs::Tracer::now_ns();
    req.done_ns = obs::Tracer::now_ns();
    obs::record_served(req);
    EXPECT_EQ(attr_sum() - before,
              std::uint64_t{req.count} * (req.done_ns - req.arrival_ns))
        << (batched ? "batch" : "scalar");
  }
}

// In-process queries have no request owner, so they record no attribution:
// query() costs its latency histogram, the counter and a gated span only.
TEST(OracleServer, InProcessQueriesRecordNoAttribution) {
  const graph::Graph g = test_graph(13);
  const serve::OracleServer server(g, {});
  std::array<std::uint64_t, obs::kNumAttrComponents> counts{};
  const auto hists = attr_histograms();
  for (std::size_t i = 0; i < hists.size(); ++i) counts[i] = hists[i]->count();
  (void)server.query(0, 5);
  (void)server.query_batch(all_pairs(g));
  const auto snap = server.snapshot();
  (void)server.query_on(*snap, 1, 2);
  for (std::size_t i = 0; i < hists.size(); ++i) {
    EXPECT_EQ(hists[i]->count(), counts[i]) << obs::kAttrComponentNames[i];
  }
}

// The epoch-swap contract under load: readers pin a snapshot and their
// answers stay bit-identical to that epoch's reference even while newer
// epochs are published; the published epoch only moves forward. TSan
// (label hetero) holds the shared_ptr swap to being data-race-free and the
// drained old snapshots to being freed exactly once.
TEST(OracleServer, SnapshotSwapUnderLoadKeepsReadersConsistent) {
  constexpr int kEpochs = 4;
  constexpr int kReaders = 4;
  std::vector<graph::Graph> graphs;
  std::vector<std::vector<Weight>> expected(kEpochs);
  for (int k = 0; k < kEpochs; ++k) {
    graphs.push_back(test_graph(100 + static_cast<std::uint64_t>(k), 30));
    // The closed form is deterministic per graph, so an independently
    // built oracle is the per-epoch bitwise reference.
    const core::EarApspEngine ref(graphs.back(),
                                   {.mode = core::ExecutionMode::Sequential});
    const VertexId n = graphs.back().num_vertices();
    for (VertexId s = 0; s < n; ++s) {
      for (VertexId t = 0; t < n; ++t) {
        expected[static_cast<std::size_t>(k)].push_back(ref.query(s, t));
      }
    }
  }

  serve::OracleServer server(graphs[0], {});
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> failures{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      std::mt19937_64 rng(static_cast<std::uint64_t>(r) + 1);
      std::uint64_t last_epoch = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto snap = server.snapshot();
        const std::uint64_t e = snap->epoch();
        if (e < last_epoch) ++failures;  // epoch must be monotone
        last_epoch = e;
        const auto& want = expected[e - 1];
        const VertexId n = snap->graph().num_vertices();
        for (int i = 0; i < 64; ++i) {
          const auto s = static_cast<VertexId>(rng() % n);
          const auto t = static_cast<VertexId>(rng() % n);
          const Weight got = snap->query(s, t);
          const Weight ref = want[static_cast<std::size_t>(s) * n + t];
          if (std::memcmp(&got, &ref, sizeof(Weight)) != 0) ++failures;
        }
      }
    });
  }
  for (int k = 1; k < kEpochs; ++k) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    server.rebuild(graphs[static_cast<std::size_t>(k)]);
    EXPECT_EQ(server.epoch(), static_cast<std::uint64_t>(k) + 1);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0u);
}

// Pin lifetime. Each test below keeps reader threads alive and idle after
// they answered, the shape under which a per-thread snapshot cache would
// keep an old build alive (or answer from it) after the server moved on.

/// Reader threads that each answer one query on `server`, then idle until
/// release(); the destructor releases and joins them.
class IdleReaders {
 public:
  IdleReaders(const serve::OracleServer& server, int n) : answered_(n) {
    for (int i = 0; i < n; ++i) {
      threads_.emplace_back([this, &server] {
        (void)server.query(0, 1);
        answered_.count_down();
        released_.wait();
      });
    }
    answered_.wait();
  }
  ~IdleReaders() { release(); }
  IdleReaders(const IdleReaders&) = delete;
  IdleReaders& operator=(const IdleReaders&) = delete;

  void release() {
    if (threads_.empty()) return;
    released_.count_down();
    for (auto& t : threads_) t.join();
    threads_.clear();
  }

 private:
  std::latch answered_;
  std::latch released_{1};
  std::vector<std::thread> threads_;
};

TEST(OracleServer, RebuildFreesThePreviousEpochDespiteIdleReaders) {
  const graph::Graph a = test_graph(17);
  serve::OracleServer server(a, {});
  const std::weak_ptr<const serve::OracleSnapshot> first = server.snapshot();
  IdleReaders readers(server, 3);
  EXPECT_FALSE(first.expired());
  server.rebuild(eardec::testing::scale_weights(a, 2));
  EXPECT_TRUE(first.expired())
      << "an idle reader still pins epoch 1 after rebuild() returned";
}

TEST(OracleServer, DestroyedServerFreesItsLastSnapshotDespiteIdleReaders) {
  auto server = std::make_unique<serve::OracleServer>(test_graph(17));
  const std::weak_ptr<const serve::OracleSnapshot> last = server->snapshot();
  IdleReaders readers(*server, 3);
  server.reset();
  EXPECT_TRUE(last.expired())
      << "an idle reader keeps a destroyed server's snapshot alive";
}

TEST(OracleServer, IdleReaderAnswersFromTheRebuiltGraph) {
  const graph::Graph a = test_graph(17);
  const graph::Graph b = eardec::testing::scale_weights(a, 2);
  const VertexId n = a.num_vertices();
  std::vector<std::vector<Weight>> want_a, want_b;
  for (VertexId s = 0; s < n; ++s) {
    want_a.push_back(sssp::dijkstra(a, s).dist);
    want_b.push_back(sssp::dijkstra(b, s).dist);
  }
  serve::OracleServer server(a, {});
  std::latch answered_a(1), rebuilt(1);
  std::uint64_t wrong_a = 0, wrong_b = 0;
  std::thread reader([&] {
    for (VertexId s = 0; s < n; ++s) {
      for (VertexId t = 0; t < n; ++t) {
        if (server.query(s, t) != want_a[s][t]) ++wrong_a;
      }
    }
    answered_a.count_down();
    rebuilt.wait();
    for (VertexId s = 0; s < n; ++s) {
      for (VertexId t = 0; t < n; ++t) {
        if (server.query(s, t) != want_b[s][t]) ++wrong_b;
      }
    }
  });
  answered_a.wait();
  server.rebuild(b);
  rebuilt.count_down();
  reader.join();
  EXPECT_EQ(wrong_a, 0u);
  EXPECT_EQ(wrong_b, 0u) << "the reader answered from the old graph";
}

TEST(OracleServer, QueriesDuringRebuildsAnswerFromAPublishedGraph) {
  // Readers hammer query() through their slots while the main thread
  // rebuilds back and forth, so slot refreshes race publish()'s walk.
  // Every answer must come from one of the two graphs, and after each
  // rebuild the caller's own query sees the graph it just published.
  const graph::Graph a = test_graph(23, 30);
  const graph::Graph b = eardec::testing::scale_weights(a, 3);
  const VertexId n = a.num_vertices();
  std::vector<std::vector<Weight>> want_a, want_b;
  for (VertexId s = 0; s < n; ++s) {
    want_a.push_back(sssp::dijkstra(a, s).dist);
    want_b.push_back(sssp::dijkstra(b, s).dist);
  }
  serve::OracleServer server(a, {});
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> wrong{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      std::mt19937_64 rng(static_cast<std::uint64_t>(r) + 7);
      while (!stop.load(std::memory_order_relaxed)) {
        const auto s = static_cast<VertexId>(rng() % n);
        const auto t = static_cast<VertexId>(rng() % n);
        const Weight w = server.query(s, t);
        if (w != want_a[s][t] && w != want_b[s][t]) ++wrong;
      }
    });
  }
  for (int k = 0; k < 10; ++k) {
    const bool to_b = k % 2 == 0;
    server.rebuild(to_b ? b : a);
    for (VertexId t = 0; t < n; ++t) {
      EXPECT_EQ(server.query(1, t), to_b ? want_b[1][t] : want_a[1][t]);
    }
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();
  EXPECT_EQ(wrong.load(), 0u);
}

#if defined(__unix__)

/// One blocking HTTP/1.1 request against 127.0.0.1:<port>; returns the
/// full response (headers + body), or "" on connection failure.
std::string http_request(std::uint16_t port, const char* method,
                         const std::string& path,
                         const std::string& body = "") {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd);
    return "";
  }
  std::string req = std::string(method) + " " + path +
                    " HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n";
  if (!body.empty()) {
    req += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  }
  req += "\r\n" + body;
  std::size_t off = 0;
  while (off < req.size()) {
    const ssize_t n = ::send(fd, req.data() + off, req.size() - off, 0);
    if (n <= 0) break;
    off += static_cast<std::size_t>(n);
  }
  std::string resp;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) break;
    resp.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return resp;
}

class ServeHttpTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!obs::StatsServer::kCompiledIn) {
      GTEST_SKIP() << "stats server compiled out";
    }
    g_ = test_graph(77);
    server_ = std::make_unique<serve::OracleServer>(g_, serve::ServeOptions{});
    serve::register_query_routes(*server_);
    auto& stats = obs::StatsServer::instance();
    stats.stop();
    ASSERT_TRUE(stats.start(0));
    port_ = stats.port();
    ASSERT_NE(port_, 0u);
  }
  void TearDown() override {
    // Join the serving thread before the handler's target dies.
    obs::StatsServer::instance().stop();
    serve::unregister_query_routes();
    server_.reset();
  }

  graph::Graph g_;
  std::unique_ptr<serve::OracleServer> server_;
  std::uint16_t port_ = 0;
};

TEST_F(ServeHttpTest, SingleQueryAnswersJsonWithExactDistance) {
  const std::string resp = http_request(port_, "GET", "/query?s=0&t=5");
  EXPECT_NE(resp.find("HTTP/1.1 200"), std::string::npos) << resp;
  EXPECT_NE(resp.find("application/json"), std::string::npos);
  const std::string want =
      "\"distance\": \"" + serve::format_distance(server_->query(0, 5)) +
      "\"";
  EXPECT_NE(resp.find(want), std::string::npos) << resp;
  EXPECT_NE(resp.find("\"epoch\": 1"), std::string::npos);
}

// A GET /query reply's distance must come from the graph of the epoch it
// reports. Two graphs share a topology, B with every weight doubled, and a
// rebuilder alternates between them — odd epochs serve A, even epochs B —
// while the client checks each reply against Dijkstra on its epoch's graph.
TEST_F(ServeHttpTest, SingleQueryEpochMatchesItsAnswer) {
  const graph::Graph& a = g_;
  const graph::Graph b = eardec::testing::scale_weights(a, 2);
  const VertexId n = a.num_vertices();
  std::vector<std::vector<Weight>> dist_a(n), dist_b(n);
  for (VertexId s = 0; s < n; ++s) {
    dist_a[s] = sssp::dijkstra(a, s).dist;
    dist_b[s] = sssp::dijkstra(b, s).dist;
  }

  std::atomic<bool> done{false};
  std::thread rebuilder([&] {
    for (int k = 0; k < 24; ++k) server_->rebuild(k % 2 == 0 ? b : a);
    done.store(true, std::memory_order_relaxed);
  });
  std::mt19937_64 rng(41);
  int replies = 0;
  while (!done.load(std::memory_order_relaxed) || replies < 20) {
    const auto s = static_cast<VertexId>(rng() % n);
    const auto t = static_cast<VertexId>(rng() % n);
    const std::string resp = http_request(
        port_, "GET",
        "/query?s=" + std::to_string(s) + "&t=" + std::to_string(t));
    ++replies;
    const std::size_t e = resp.find("\"epoch\": ");
    const std::size_t d = resp.find("\"distance\": \"");
    if (e == std::string::npos || d == std::string::npos) {
      ADD_FAILURE() << "malformed reply: " << resp;
      continue;
    }
    const std::uint64_t epoch =
        std::strtoull(resp.c_str() + e + std::strlen("\"epoch\": "),
                      nullptr, 10);
    const std::size_t from = d + std::strlen("\"distance\": \"");
    const std::string got = resp.substr(from, resp.find('"', from) - from);
    const Weight want = epoch % 2 == 1 ? dist_a[s][t] : dist_b[s][t];
    EXPECT_EQ(got, serve::format_distance(want))
        << "epoch " << epoch << " d(" << s << "," << t << ")";
  }
  rebuilder.join();
  EXPECT_EQ(server_->epoch(), 25u);
}

TEST_F(ServeHttpTest, BatchPostAnswersAllPairsInOrder) {
  const std::string resp =
      http_request(port_, "POST", "/query/batch", "0 1\n2 3\n0 0\n");
  EXPECT_NE(resp.find("HTTP/1.1 200"), std::string::npos) << resp;
  EXPECT_NE(resp.find("\"count\": 3"), std::string::npos);
  const std::string want = "\"" + serve::format_distance(server_->query(0, 1)) +
                           "\", \"" +
                           serve::format_distance(server_->query(2, 3)) +
                           "\", \"0\"";
  EXPECT_NE(resp.find(want), std::string::npos) << resp;
}

TEST_F(ServeHttpTest, MalformedRequestsAnswer400) {
  EXPECT_NE(http_request(port_, "GET", "/query?s=1").find("HTTP/1.1 400"),
            std::string::npos);
  EXPECT_NE(http_request(port_, "GET", "/query?s=a&t=b").find("HTTP/1.1 400"),
            std::string::npos);
  EXPECT_NE(http_request(port_, "GET", "/query?s=1&t=999999999")
                .find("HTTP/1.1 400"),
            std::string::npos);
  EXPECT_NE(
      http_request(port_, "POST", "/query/batch", "0 1 2").find("HTTP/1.1 400"),
      std::string::npos);
  EXPECT_NE(
      http_request(port_, "POST", "/query/batch", "x y").find("HTTP/1.1 400"),
      std::string::npos);
  // GET on the batch route is a usage error, not a fall-through.
  EXPECT_NE(http_request(port_, "GET", "/query/batch").find("HTTP/1.1 400"),
            std::string::npos);
  // parse_vertex edges: ids past 32 bits overflow, and only bare decimal
  // digits count (no empty value, no sign).
  for (const char* target :
       {"/query?s=4294967296&t=0", "/query?s=18446744073709551616&t=0",
        "/query?s=&t=1", "/query?s=-1&t=0", "/query?s=+1&t=0"}) {
    EXPECT_NE(http_request(port_, "GET", target).find("HTTP/1.1 400"),
              std::string::npos)
        << target;
  }
  EXPECT_NE(http_request(port_, "POST", "/query/batch", "0 1\n4294967296 0")
                .find("HTTP/1.1 400"),
            std::string::npos);
}

// A repeated parameter is not an error: the first occurrence wins.
TEST_F(ServeHttpTest, DuplicateParameterFirstWins) {
  const std::string resp = http_request(port_, "GET", "/query?s=0&s=1&t=2");
  EXPECT_NE(resp.find("HTTP/1.1 200"), std::string::npos) << resp;
  EXPECT_NE(resp.find("\"s\": 0, \"t\": 2"), std::string::npos) << resp;
  const std::string want =
      "\"distance\": \"" + serve::format_distance(server_->query(0, 2)) +
      "\"";
  EXPECT_NE(resp.find(want), std::string::npos) << resp;
}

TEST_F(ServeHttpTest, BuiltInRoutesStillWorkWithHandlerRegistered) {
  EXPECT_NE(http_request(port_, "GET", "/healthz").find("HTTP/1.1 200"),
            std::string::npos);
  EXPECT_NE(http_request(port_, "GET", "/metrics").find("oracle_serve_epoch"),
            std::string::npos);
  EXPECT_NE(http_request(port_, "GET", "/nope").find("HTTP/1.1 404"),
            std::string::npos);
  // POST to a route the handler declines still answers 405.
  EXPECT_NE(http_request(port_, "POST", "/metrics").find("HTTP/1.1 405"),
            std::string::npos);
}

// The HTTP routes own their requests: one GET records one observation per
// attribution component, whose sum fits inside the client's round trip,
// and a POST /query/batch records one per answered pair. /metrics then
// exports all three components.
TEST_F(ServeHttpTest, RequestsRecordAttributionAndMetricsExportIt) {
  const auto hists = attr_histograms();
  std::array<std::uint64_t, obs::kNumAttrComponents> counts{};
  for (std::size_t i = 0; i < hists.size(); ++i) counts[i] = hists[i]->count();
  const std::uint64_t sum_before = attr_sum();
  const std::uint64_t sent = obs::Tracer::now_ns();
  const std::string resp = http_request(port_, "GET", "/query?s=0&t=5");
  const std::uint64_t received = obs::Tracer::now_ns();
  ASSERT_NE(resp.find("HTTP/1.1 200"), std::string::npos) << resp;
  for (std::size_t i = 0; i < hists.size(); ++i) {
    EXPECT_EQ(hists[i]->count(), counts[i] + 1) << obs::kAttrComponentNames[i];
  }
  EXPECT_LE(attr_sum() - sum_before, received - sent);

  ASSERT_NE(http_request(port_, "POST", "/query/batch", "0 1\n2 3\n4 5\n")
                .find("\"count\": 3"),
            std::string::npos);
  for (std::size_t i = 0; i < hists.size(); ++i) {
    EXPECT_EQ(hists[i]->count(), counts[i] + 4) << obs::kAttrComponentNames[i];
  }

  const std::string metrics = http_request(port_, "GET", "/metrics");
  for (const char* name : obs::kAttrComponentNames) {
    EXPECT_NE(metrics.find(std::string("eardec_oracle_serve_attr_") + name +
                           "_ns"),
              std::string::npos)
        << name;
  }
}

// The headline TSan scenario: reader threads hammer scalar and batched
// queries, a rebuilder swaps snapshots, and the HTTP side serves /query
// and /metrics scrapes — all concurrently.
TEST_F(ServeHttpTest, ReadersScrapesAndSwapsRaceFreely) {
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> failures{0};
  const std::vector<serve::Query> batch = {{0, 1}, {2, 3}, {4, 5}, {1, 0}};

  std::vector<std::thread> workers;
  for (int r = 0; r < 3; ++r) {
    workers.emplace_back([&, r] {
      std::mt19937_64 rng(static_cast<std::uint64_t>(r) + 9);
      while (!stop.load(std::memory_order_relaxed)) {
        // s and t are valid on this pin only: a rebuild may publish a
        // smaller graph before a fresh pin would resolve.
        const auto snap = server_->snapshot();
        const auto n = snap->graph().num_vertices();
        const auto s = static_cast<VertexId>(rng() % n);
        const auto t = static_cast<VertexId>(rng() % n);
        (void)server_->query_on(*snap, s, t);
        const auto answers = server_->query_batch(batch);
        if (answers.size() != batch.size()) ++failures;
      }
    });
  }
  std::thread rebuilder([&] {
    for (int k = 0; k < 3 && !stop.load(std::memory_order_relaxed); ++k) {
      server_->rebuild(test_graph(200 + static_cast<std::uint64_t>(k)));
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });

  for (int round = 0; round < 15; ++round) {
    const std::string one = http_request(port_, "GET", "/query?s=0&t=3");
    if (one.find("HTTP/1.1 200") == std::string::npos) ++failures;
    const std::string many =
        http_request(port_, "POST", "/query/batch", "0 1\n2 3\n");
    if (many.find("\"count\": 2") == std::string::npos) ++failures;
    const std::string metrics = http_request(port_, "GET", "/metrics");
    if (metrics.find("eardec_oracle_serve_queries") == std::string::npos) {
      ++failures;
    }
  }
  stop.store(true, std::memory_order_relaxed);
  rebuilder.join();
  for (auto& t : workers) t.join();
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_GE(server_->epoch(), 1u);
}

#endif  // defined(__unix__)

}  // namespace
