// Tests for the live stats endpoint (src/obs/stats_server): lifecycle
// (ephemeral-port bind, restart, stop), the three routes, the Prometheus
// exposition contract (cumulative buckets, +Inf, quantile gauges), and —
// under TSan via the `hetero` label — that scraping is race-free against
// concurrent metric updates and thread-pool construction/teardown.
//
// The client side is a raw blocking POSIX socket: the point is to exercise
// the server exactly the way curl/Prometheus would, with no test-only
// shortcuts through its internals. POSIX-only, like the server itself.
#include <cerrno>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "hetero/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/stats_server.hpp"

#if defined(__unix__)
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

namespace {

using namespace eardec;

#if defined(__unix__)

/// One blocking HTTP/1.1 request against 127.0.0.1:<port>; returns the full
/// response (headers + body), or "" on connection failure.
std::string http_get(std::uint16_t port, const std::string& path,
                     const char* method = "GET") {
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
  const std::string req = std::string(method) + " " + path +
                          " HTTP/1.1\r\nHost: localhost\r\n"
                          "Connection: close\r\n\r\n";
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

/// Sends raw request bytes verbatim and returns the full response. With
/// `half_close`, shuts down the write side after sending — the client-hung-up
/// case the Content-Length framing check must turn into a 400 instead of
/// burning the receive timeout or truncating the payload. `recv_error`
/// receives the errno that ended the read (0 on a clean EOF).
std::string http_raw(std::uint16_t port, const std::string& raw,
                     bool half_close = false, int* recv_error = nullptr) {
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
  std::size_t off = 0;
  while (off < raw.size()) {
    const ssize_t n =
        ::send(fd, raw.data() + off, raw.size() - off, MSG_NOSIGNAL);
    if (n <= 0) break;
    off += static_cast<std::size_t>(n);
  }
  if (half_close) ::shutdown(fd, SHUT_WR);
  std::string resp;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) {
      if (recv_error != nullptr) *recv_error = n < 0 ? errno : 0;
      break;
    }
    resp.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return resp;
}

/// A reject that stops reading early must still deliver its whole reply:
/// `raw` is sent `kRuns` times, and each time the read must reach a clean
/// EOF (no ECONNRESET) with as many body bytes as the reply's
/// Content-Length and the expected status. /healthz must answer afterwards.
void expect_complete_reject(std::uint16_t port, const std::string& raw,
                            const std::string& status) {
  constexpr int kRuns = 20;
  for (int run = 0; run < kRuns; ++run) {
    int error = -1;
    const std::string resp = http_raw(port, raw, false, &error);
    ASSERT_EQ(error, 0) << "run " << run << ": " << std::strerror(error);
    ASSERT_EQ(resp.rfind("HTTP/1.1 " + status, 0), 0u) << resp;
    const std::size_t header_end = resp.find("\r\n\r\n");
    const std::size_t length = resp.find("Content-Length: ");
    ASSERT_NE(header_end, std::string::npos) << resp;
    ASSERT_LT(length, header_end) << resp;
    EXPECT_EQ(resp.size() - header_end - 4,
              std::stoul(resp.substr(length + 16)))
        << "run " << run << ": truncated reply " << resp;
  }
  EXPECT_NE(http_get(port, "/healthz").find("HTTP/1.1 200"),
            std::string::npos);
}

class StatsServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!obs::StatsServer::kCompiledIn) {
      GTEST_SKIP() << "stats server compiled out";
    }
    auto& server = obs::StatsServer::instance();
    server.stop();
    ASSERT_TRUE(server.start(0));  // ephemeral port: hermetic under ctest -j
    port_ = server.port();
    ASSERT_NE(port_, 0u);
  }
  void TearDown() override { obs::StatsServer::instance().stop(); }

  std::uint16_t port_ = 0;
};

TEST_F(StatsServerTest, HealthzAnswersOk) {
  const std::string resp = http_get(port_, "/healthz");
  EXPECT_NE(resp.find("HTTP/1.1 200"), std::string::npos) << resp;
  EXPECT_NE(resp.find("ok"), std::string::npos);
}

TEST_F(StatsServerTest, StartWhileRunningFailsAndRestartWorks) {
  auto& server = obs::StatsServer::instance();
  EXPECT_TRUE(server.running());
  EXPECT_FALSE(server.start(0));  // second start is refused
  server.stop();
  EXPECT_FALSE(server.running());
  EXPECT_EQ(server.port(), 0u);
  ASSERT_TRUE(server.start(0));  // and a clean restart binds again
  EXPECT_NE(server.port(), 0u);
  EXPECT_NE(http_get(server.port(), "/healthz").find("200"),
            std::string::npos);
}

TEST_F(StatsServerTest, MetricsExposesInstrumentsInPrometheusFormat) {
  auto& reg = obs::MetricsRegistry::instance();
  reg.counter("stats_test.requests").reset();
  reg.counter("stats_test.requests").add(42);
  reg.gauge("stats_test.level").set(2.5);
  obs::Histogram& h = reg.histogram("stats_test.latency_ns");
  h.reset();
  h.record(5);
  h.record(100);
  h.record(3000);

  const std::string resp = http_get(port_, "/metrics");
  EXPECT_NE(resp.find("HTTP/1.1 200"), std::string::npos);
  EXPECT_NE(resp.find("text/plain; version=0.0.4"), std::string::npos);
  // Instruments appear under mangled eardec_ names with TYPE headers.
  EXPECT_NE(resp.find("# TYPE eardec_stats_test_requests counter"),
            std::string::npos);
  EXPECT_NE(resp.find("eardec_stats_test_requests 42"), std::string::npos);
  EXPECT_NE(resp.find("eardec_stats_test_level 2.5"), std::string::npos);
  // Histogram contract: cumulative buckets ending in +Inf == count, plus
  // sum/count and the derived quantile gauges.
  EXPECT_NE(resp.find("eardec_stats_test_latency_ns_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(resp.find("eardec_stats_test_latency_ns_count 3"),
            std::string::npos);
  EXPECT_NE(resp.find("eardec_stats_test_latency_ns_sum 3105"),
            std::string::npos);
  EXPECT_NE(resp.find("eardec_stats_test_latency_ns_p50"), std::string::npos);
  EXPECT_NE(resp.find("eardec_stats_test_latency_ns_p99"), std::string::npos);
  // Scrape-time process gauges ride along.
  EXPECT_NE(resp.find("eardec_process_uptime_seconds"), std::string::npos);
}

TEST_F(StatsServerTest, MetricsBucketSeriesIsCumulative) {
  auto& reg = obs::MetricsRegistry::instance();
  obs::Histogram& h = reg.histogram("stats_test.cumulative");
  h.reset();
  for (std::uint64_t v : {1u, 2u, 2u, 9u}) h.record(v);
  const std::string resp = http_get(port_, "/metrics");
  // le="1" holds 1 sample, le="3" accumulates to 3, le="15" to 4.
  EXPECT_NE(resp.find("eardec_stats_test_cumulative_bucket{le=\"1\"} 1"),
            std::string::npos)
      << resp;
  EXPECT_NE(resp.find("eardec_stats_test_cumulative_bucket{le=\"3\"} 3"),
            std::string::npos);
  EXPECT_NE(resp.find("eardec_stats_test_cumulative_bucket{le=\"15\"} 4"),
            std::string::npos);
  EXPECT_NE(resp.find("eardec_stats_test_cumulative_bucket{le=\"+Inf\"} 4"),
            std::string::npos);
}

TEST_F(StatsServerTest, StatsJsonServesTheRegistryExport) {
  auto& reg = obs::MetricsRegistry::instance();
  reg.counter("stats_test.json_counter").reset();
  reg.counter("stats_test.json_counter").add(7);
  const std::string resp = http_get(port_, "/stats.json");
  EXPECT_NE(resp.find("HTTP/1.1 200"), std::string::npos);
  EXPECT_NE(resp.find("application/json"), std::string::npos);
  EXPECT_NE(resp.find("\"stats_test.json_counter\": 7"), std::string::npos);
  EXPECT_NE(resp.find("\"histograms\""), std::string::npos);
}

TEST_F(StatsServerTest, UnknownRouteIs404AndPostIs405) {
  EXPECT_NE(http_get(port_, "/nope").find("HTTP/1.1 404"),
            std::string::npos);
  EXPECT_NE(http_get(port_, "/metrics", "POST").find("HTTP/1.1 405"),
            std::string::npos);
}

TEST_F(StatsServerTest, HeadRequestOmitsBody) {
  const std::string resp = http_get(port_, "/healthz", "HEAD");
  EXPECT_NE(resp.find("HTTP/1.1 200"), std::string::npos);
  const std::size_t header_end = resp.find("\r\n\r\n");
  ASSERT_NE(header_end, std::string::npos);
  EXPECT_EQ(resp.size(), header_end + 4);  // nothing after the headers
}

TEST_F(StatsServerTest, QueryStringIsIgnoredForRouting) {
  EXPECT_NE(http_get(port_, "/healthz?probe=1").find("HTTP/1.1 200"),
            std::string::npos);
}

TEST_F(StatsServerTest, OversizedRequestLineIs400WithCompleteReply) {
  // Request lines past the 8 KiB header cap: the server answers before it
  // has read them, and must not reset the connection under its own reply.
  for (const std::size_t size : {std::size_t{9} << 10, std::size_t{64} << 10}) {
    SCOPED_TRACE(size);
    expect_complete_reject(
        port_, "GET /" + std::string(size, 'a') + " HTTP/1.1\r\n\r\n", "400");
  }
}

TEST_F(StatsServerTest, RequestCounterAdvances) {
  auto& server = obs::StatsServer::instance();
  const std::uint64_t before = server.requests_served();
  (void)http_get(port_, "/healthz");
  (void)http_get(port_, "/nope");
  EXPECT_GE(server.requests_served(), before + 2);
}

TEST_F(StatsServerTest, DebugSlowRouteServesExemplarJson) {
  const std::string resp = http_get(port_, "/debug/slow");
  EXPECT_NE(resp.find("HTTP/1.1 200"), std::string::npos) << resp;
  EXPECT_NE(resp.find("application/json"), std::string::npos);
  EXPECT_NE(resp.find("\"exemplars\""), std::string::npos);
}

// POST framing regressions: bodies are only read for the pluggable routes,
// so each test registers an echo handler first (and clears it after — the
// server outlives the test).
class StatsServerPostTest : public StatsServerTest {
 protected:
  void SetUp() override {
    StatsServerTest::SetUp();
    obs::StatsServer::instance().set_route_handler(
        [](const obs::HttpRequest& req, obs::HttpResponse& resp) {
          if (req.path != "/echo") return false;
          resp.status = 200;
          resp.body = "echo:" + req.body;
          return true;
        });
  }
  void TearDown() override {
    obs::StatsServer::instance().set_route_handler({});
    StatsServerTest::TearDown();
  }

  static std::string post(const std::string& body, std::size_t declared) {
    return "POST /echo HTTP/1.1\r\nHost: localhost\r\n"
           "Content-Length: " +
           std::to_string(declared) + "\r\nConnection: close\r\n\r\n" + body;
  }
};

TEST_F(StatsServerPostTest, ExactContentLengthReachesHandler) {
  const std::string resp = http_raw(port_, post("hello", 5));
  EXPECT_NE(resp.find("HTTP/1.1 200"), std::string::npos) << resp;
  EXPECT_NE(resp.find("echo:hello"), std::string::npos);
}

TEST_F(StatsServerPostTest, ShortBodyWithHungUpClientIs400) {
  // Declared 64 bytes, sent 2, then half-closed: the server must detect the
  // short read and answer 400 instead of handing a truncated payload to the
  // route handler.
  const std::string resp =
      http_raw(port_, post("hi", 64), /*half_close=*/true);
  EXPECT_NE(resp.find("HTTP/1.1 400"), std::string::npos) << resp;
  EXPECT_NE(resp.find("does not match Content-Length"), std::string::npos);
  EXPECT_EQ(resp.find("echo:"), std::string::npos);
}

TEST_F(StatsServerPostTest, BodyLongerThanDeclaredIs400) {
  const std::string resp = http_raw(port_, post("0123456789", 4));
  EXPECT_NE(resp.find("HTTP/1.1 400"), std::string::npos) << resp;
  EXPECT_EQ(resp.find("echo:"), std::string::npos);
  // 64 KiB sent where 4 bytes were declared: most of it is still unread
  // when the 400 goes out.
  expect_complete_reject(port_, post(std::string(64u << 10, 'x'), 4), "400");
}

TEST_F(StatsServerPostTest, OversizedDeclaredLengthIs413) {
  // Over the 1 MiB cap: refused from the declared length alone, before any
  // body bytes are read.
  const std::string resp =
      http_raw(port_, post("", 2u << 20), /*half_close=*/true);
  EXPECT_NE(resp.find("HTTP/1.1 413"), std::string::npos) << resp;
  EXPECT_NE(resp.find("body too large"), std::string::npos);
  // The same refusal with the body actually sent, none of it read.
  constexpr std::size_t kOverCap = (1u << 20) + 1;
  expect_complete_reject(port_, post(std::string(kOverCap, 'x'), kOverCap),
                         "413");
}

// The TSan check (ctest label: hetero): scrapes race registry updates from
// worker threads and thread pools being built and torn down mid-request.
// The concurrency contract says this is safe because scrapes only read
// leaked-singleton instruments — TSan holds us to it.
TEST_F(StatsServerTest, ConcurrentScrapeDuringUpdatesAndPoolChurn) {
  auto& reg = obs::MetricsRegistry::instance();
  obs::Counter& hits = reg.counter("stats_test.concurrent_hits");
  obs::Gauge& level = reg.gauge("stats_test.concurrent_level");
  obs::Histogram& lat = reg.histogram("stats_test.concurrent_lat");
  hits.reset();

  std::atomic<bool> stop{false};
  std::thread updater([&] {
    std::uint64_t v = 1;
    while (!stop.load(std::memory_order_relaxed)) {
      hits.add(1);
      level.add(0.5);
      lat.record(v);
      v = v * 29 % 9973;
    }
  });
  std::thread churner([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      hetero::ThreadPool pool(2);  // live_workers gauge moves +2 / -2
      pool.parallel_for(0, 64, [&](std::size_t i) { lat.record(i); });
    }
  });

  for (int round = 0; round < 25; ++round) {
    const std::string metrics = http_get(port_, "/metrics");
    EXPECT_NE(metrics.find("eardec_stats_test_concurrent_hits"),
              std::string::npos);
    EXPECT_NE(http_get(port_, "/stats.json").find("\"histograms\""),
              std::string::npos);
  }
  stop.store(true, std::memory_order_relaxed);
  updater.join();
  churner.join();
  EXPECT_GT(hits.value(), 0u);
}

#endif  // defined(__unix__)

TEST(StatsServerGate, CompiledOutStartFailsCleanly) {
  if (obs::StatsServer::kCompiledIn) {
    GTEST_SKIP() << "serving implementation compiled in";
  }
  auto& server = obs::StatsServer::instance();
  EXPECT_FALSE(server.start(0));
  EXPECT_FALSE(server.running());
  EXPECT_EQ(server.port(), 0u);
  server.stop();  // no-op, must not crash
}

TEST(StatsServerGate, CompileSwitchMatchesTracing) {
  EXPECT_EQ(obs::StatsServer::kCompiledIn, obs::kTracingEnabled);
}

}  // namespace
