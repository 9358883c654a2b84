// Tests for the live stats endpoint (src/obs/stats_server): request framing
// (src/obs/http_frame) split at every byte offset, lifecycle (ephemeral-port
// bind, restart, stop), keep-alive and pipelining, slow peers, the three
// routes, the Prometheus exposition contract (cumulative buckets, +Inf,
// quantile gauges), and — under TSan via the `hetero` label — that scraping
// is race-free against concurrent metric updates and thread-pool
// construction/teardown.
//
// The client side is a raw blocking POSIX socket: the point is to exercise
// the server exactly the way curl/Prometheus would, with no test-only
// shortcuts through its internals. POSIX-only, like the server itself.
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "hetero/thread_pool.hpp"
#include "obs/http_frame.hpp"
#include "obs/metrics.hpp"
#include "obs/stats_server.hpp"

#if defined(__unix__)
#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>
#endif

namespace {

using namespace eardec;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// --- framing, no socket -----------------------------------------------------

/// What a connection makes of `chunks` arriving one after another and then
/// the end of input: one line per framed request or reject, in order,
/// stopping where the server would close the connection.
std::vector<std::string> frame_stream(const std::vector<std::string_view>& chunks) {
  std::vector<std::string> outcomes;
  std::string buf;
  const auto drain = [&](bool at_end) {
    for (;;) {
      const obs::HttpFrame f = obs::frame_request(buf, at_end);
      switch (f.kind) {
        case obs::HttpFrame::Kind::kNeedMore:
          return true;
        case obs::HttpFrame::Kind::kReject:
          outcomes.push_back("reject " + std::to_string(f.status) + " " +
                             std::string(f.message) + "discard " +
                             std::to_string(f.discard));
          return false;
        case obs::HttpFrame::Kind::kRequest:
          outcomes.push_back(f.request.method + " " + f.request.path + " ?" +
                             f.request.query + " body=" + f.request.body +
                             (f.keep_alive ? " keep" : " close"));
          buf.erase(0, f.consumed);
          if (!f.keep_alive) return false;
      }
    }
  };
  for (const std::string_view chunk : chunks) {
    buf += chunk;
    if (!drain(false)) return outcomes;
  }
  drain(true);
  return outcomes;
}

struct FramingCase {
  const char* name;
  std::string input;
  std::vector<std::string> expected;
  /// The one cut, if any, that frames differently (see http_frame.hpp), and
  /// what it frames.
  std::size_t split_exception = 0;
  std::vector<std::string> split_expected = {};
};

std::vector<FramingCase> framing_corpus() {
  const std::string big = std::to_string(obs::kMaxDiscardBytes);
  const std::string close_post =
      "POST /e HTTP/1.1\r\nContent-Length: 1\r\nConnection: close\r\n\r\nx";
  return {
      {"get", "GET /healthz?probe=1 HTTP/1.1\r\nHost: x\r\n\r\n",
       {"GET /healthz ?probe=1 body= keep"}},
      {"head_http10", "HEAD /metrics HTTP/1.0\r\n\r\n",
       {"HEAD /metrics ? body= close"}},
      {"http10_keep_alive",
       "GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n",
       {"GET / ? body= keep"}},
      {"post_body",
       "POST /echo HTTP/1.1\r\nContent-Length: 5\r\n"
       "Connection: close\r\n\r\nhello",
       {"POST /echo ? body=hello close"}},
      {"pipelined_pair",
       "GET /a HTTP/1.1\r\n\r\nPOST /b HTTP/1.1\r\ncontent-length: 2\r\n"
       "\r\nhi",
       {"GET /a ? body= keep", "POST /b ? body=hi keep"}},
      {"oversized_header",
       "GET /" + std::string(9u << 10, 'a') + " HTTP/1.1\r\n\r\n",
       {"reject 400 bad request\ndiscard " + big}},
      {"declared_413",
       "POST /echo HTTP/1.1\r\nContent-Length: 2097152\r\n\r\nabc",
       {"reject 413 body too large\ndiscard " + big}},
      {"short_body", "POST /echo HTTP/1.1\r\nContent-Length: 64\r\n\r\nhi",
       {"reject 400 body does not match Content-Length\ndiscard 0"}},
      {"request_cut_by_eof", "GET /a HTTP/1.1\r\n\r\nGET /b",
       {"GET /a ? body= keep", "reject 400 bad request\ndiscard 0"}},
      // Cut right after the declared body, the request is framed before the
      // extra bytes arrive; the server then drains them.
      {"close_body_past_length", close_post + "yz",
       {"reject 400 body does not match Content-Length\ndiscard " + big},
       close_post.size(),
       {"POST /e ? body=x close"}},
  };
}

TEST(HttpFrame, CorpusFramesAsExpected) {
  for (const FramingCase& c : framing_corpus()) {
    EXPECT_EQ(frame_stream({c.input}), c.expected) << c.name;
  }
}

TEST(HttpFrame, SplitAtEveryOffsetFramesLikeWhole) {
  for (const FramingCase& c : framing_corpus()) {
    const std::string_view in = c.input;
    const std::vector<std::string> whole = frame_stream({in});
    for (std::size_t cut = 1; cut < in.size(); ++cut) {
      ASSERT_EQ(frame_stream({in.substr(0, cut), in.substr(cut)}),
                cut == c.split_exception ? c.split_expected : whole)
          << c.name << " split at " << cut;
    }
  }
}

TEST(HttpFrame, BodyPastDeclaredLengthDependsOnKeepAlive) {
  // On a request that closes its connection the extra bytes are a framing
  // error; on a kept-alive one they are the start of the next request.
  EXPECT_EQ(frame_stream({"POST /e HTTP/1.1\r\nContent-Length: 1\r\n"
                          "Connection: close\r\n\r\nxyz"}),
            std::vector<std::string>{
                "reject 400 body does not match Content-Length\ndiscard " +
                std::to_string(obs::kMaxDiscardBytes)});
  EXPECT_EQ(frame_stream({"POST /e HTTP/1.1\r\nContent-Length: 1\r\n\r\nx"
                          "GET /n HTTP/1.1\r\n\r\n"}),
            (std::vector<std::string>{"POST /e ? body=x keep",
                                      "GET /n ? body= keep"}));
}

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

/// A blocking client socket that stays open across requests, for the
/// keep-alive, pipelining and slow-peer tests.
class Client {
 public:
  explicit Client(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    timeval tv{};
    tv.tv_sec = 5;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  [[nodiscard]] bool connected() const { return fd_ >= 0; }
  [[nodiscard]] int fd() const { return fd_; }

  bool send(std::string_view raw) {
    while (!raw.empty()) {
      const ssize_t n = ::send(fd_, raw.data(), raw.size(), MSG_NOSIGNAL);
      if (n <= 0) return false;
      raw.remove_prefix(static_cast<std::size_t>(n));
    }
    return true;
  }

  /// The next Content-Length framed reply (head and body); "" when the
  /// connection ends first.
  std::string read_reply() {
    for (;;) {
      const std::size_t head_end = buf_.find("\r\n\r\n");
      const std::size_t length = buf_.find("Content-Length: ");
      if (head_end != std::string::npos && length < head_end) {
        const std::size_t total =
            head_end + 4 + std::stoul(buf_.substr(length + 16));
        if (buf_.size() >= total) {
          std::string reply = buf_.substr(0, total);
          buf_.erase(0, total);
          return reply;
        }
      }
      if (!fill()) return "";
    }
  }

  /// Reads until the server closes; true on a clean EOF with no bytes
  /// left over.
  bool reads_eof() {
    while (fill()) {
    }
    return eof_ && buf_.empty();
  }

 private:
  bool fill() {
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n <= 0) {
      eof_ = n == 0;
      return false;
    }
    buf_.append(chunk, static_cast<std::size_t>(n));
    return true;
  }

  int fd_ = -1;
  std::string buf_;
  bool eof_ = false;
};

constexpr const char* kHealthz =
    "GET /healthz HTTP/1.1\r\nHost: localhost\r\n\r\n";

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

TEST_F(StatsServerTest, KeptAliveSocketServesSeveralRequests) {
  auto& server = obs::StatsServer::instance();
  Client client(port_);
  ASSERT_TRUE(client.connected());
  const std::uint64_t before = server.requests_served();
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(client.send(kHealthz));
    const std::string reply = client.read_reply();
    EXPECT_EQ(reply.rfind("HTTP/1.1 200", 0), 0u) << reply;
    EXPECT_NE(reply.find("Connection: keep-alive\r\n"), std::string::npos)
        << reply;
  }
  EXPECT_EQ(server.requests_served(), before + 2);
  // Still open: nothing to read, not EOF.
  char byte = 0;
  EXPECT_EQ(::recv(client.fd(), &byte, 1, MSG_DONTWAIT), -1);
  EXPECT_TRUE(errno == EAGAIN || errno == EWOULDBLOCK) << std::strerror(errno);
}

TEST_F(StatsServerTest, PipelinedRequestsAreAnsweredInOrder) {
  Client client(port_);
  ASSERT_TRUE(client.send(std::string(kHealthz) +
                          "GET /nope HTTP/1.1\r\nHost: localhost\r\n\r\n" +
                          kHealthz));
  EXPECT_EQ(client.read_reply().rfind("HTTP/1.1 200", 0), 0u);
  EXPECT_EQ(client.read_reply().rfind("HTTP/1.1 404", 0), 0u);
  EXPECT_EQ(client.read_reply().rfind("HTTP/1.1 200", 0), 0u);
}

TEST_F(StatsServerTest, CloseRequestsAndHttp10GetCloseThenEof) {
  for (const char* raw :
       {"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
        "GET /healthz HTTP/1.0\r\n\r\n"}) {
    SCOPED_TRACE(raw);
    Client client(port_);
    ASSERT_TRUE(client.send(raw));
    const std::string reply = client.read_reply();
    EXPECT_NE(reply.find("200"), std::string::npos) << reply;
    EXPECT_NE(reply.find("Connection: close\r\n"), std::string::npos) << reply;
    EXPECT_TRUE(client.reads_eof());
  }
}

TEST_F(StatsServerTest, StopWithIdleKeptAliveClientIsPrompt) {
  auto& server = obs::StatsServer::instance();
  Client client(port_);
  ASSERT_TRUE(client.send(kHealthz));
  ASSERT_NE(client.read_reply().find("keep-alive"), std::string::npos);
  const Clock::time_point t0 = Clock::now();
  server.stop();
  EXPECT_LT(ms_since(t0), 200.0);
  EXPECT_TRUE(client.reads_eof());
  ASSERT_TRUE(server.start(0));
  EXPECT_NE(http_get(server.port(), "/healthz").find("HTTP/1.1 200"),
            std::string::npos);
}

// The slow-peer regression: an idle connection and one that trickles a
// valid request a byte every 100 ms must not delay anyone else. The idle
// peer is closed at its 2 s deadline, and the trickler is refused at its
// request deadline rather than served after it.
TEST_F(StatsServerTest, SlowPeersDoNotStallOtherClients) {
  const Clock::time_point t0 = Clock::now();
  Client idle(port_);
  ASSERT_TRUE(idle.connected());

  std::string trickled;
  double trickle_answered_ms = -1;
  std::thread trickler([&] {
    Client client(port_);
    const Clock::time_point start = Clock::now();
    for (const char c : std::string_view(kHealthz)) {
      if (!client.send(std::string_view(&c, 1))) break;
      pollfd pfd{.fd = client.fd(), .events = POLLIN, .revents = 0};
      if (::poll(&pfd, 1, 100) > 0) break;  // answered: stop sending
    }
    trickle_answered_ms = ms_since(start);
    trickled = client.read_reply();
    (void)client.reads_eof();
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  for (int i = 0; i < 20; ++i) {
    const Clock::time_point start = Clock::now();
    EXPECT_NE(http_get(port_, "/healthz").find("HTTP/1.1 200"),
              std::string::npos);
    EXPECT_LT(ms_since(start), 10.0) << "request " << i;
  }

  EXPECT_TRUE(idle.reads_eof());
  EXPECT_LT(ms_since(t0), 2500.0);
  trickler.join();
  EXPECT_TRUE(trickled.empty() || trickled.rfind("HTTP/1.1 400", 0) == 0)
      << trickled;
  EXPECT_LT(trickle_answered_ms, 2500.0);
}

// A peer that pipelines a long run of requests and reads its replies
// promptly gets one request per turn of the poll loop, so other clients'
// requests are answered between its requests.
TEST_F(StatsServerTest, PipeliningPeerDoesNotStallOtherClients) {
  constexpr int kPipelined = 4000;
  Client piper(port_);
  ASSERT_TRUE(piper.connected());
  std::atomic<int> replies{0};
  std::thread reader([&] {
    for (int i = 0; i < kPipelined; ++i) {
      if (piper.read_reply().rfind("HTTP/1.1 200", 0) != 0) break;
      replies.fetch_add(1, std::memory_order_relaxed);
    }
  });
  std::string run;
  for (int i = 0; i < kPipelined; ++i) run += "GET /metrics HTTP/1.1\r\n\r\n";
  std::thread sender([&] { (void)piper.send(run); });

  while (replies.load(std::memory_order_relaxed) == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  int replies_before_first = 0;
  for (int i = 0; i < 20; ++i) {
    const Clock::time_point start = Clock::now();
    EXPECT_NE(http_get(port_, "/healthz").find("HTTP/1.1 200"),
              std::string::npos);
    EXPECT_LT(ms_since(start), 10.0) << "request " << i;
    if (i == 0) replies_before_first = replies.load(std::memory_order_relaxed);
  }
  // The first request was answered mid-run, not after it.
  EXPECT_LT(replies_before_first, kPipelined);
  sender.join();
  reader.join();
  EXPECT_EQ(replies.load(), kPipelined);
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

TEST_F(StatsServerPostTest, BytesAfterAnsweredCloseRequestAreDrained) {
  // The split case of BodyPastDeclaredLengthDependsOnKeepAlive: the extra
  // bytes arrive after the request was answered. They are read and dropped
  // like a reject's, not answered with a reset.
  Client client(port_);
  ASSERT_TRUE(client.send(post("x", 1)));
  const std::string reply = client.read_reply();
  EXPECT_EQ(reply.rfind("HTTP/1.1 200", 0), 0u) << reply;
  EXPECT_NE(reply.find("Connection: close\r\n"), std::string::npos) << reply;
  const std::string extra(64u << 10, 'y');
  for (int i = 0; i < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    ASSERT_TRUE(client.send(extra)) << "send " << i << ": " << std::strerror(errno);
  }
  EXPECT_TRUE(client.reads_eof());
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
