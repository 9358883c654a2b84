#include "obs/stats_server.hpp"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <sstream>
#include <string>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/rss.hpp"

// The serving implementation rides the tracer's compile-time gate: a
// -DEARDEC_ENABLE_TRACING=OFF build ships no HTTP code at all (the CI
// tracing-off job grep-asserts the exposition strings are absent).
#if EARDEC_TRACING_ENABLED && defined(__unix__)
#define EARDEC_STATS_SERVER_IMPL 1
#else
#define EARDEC_STATS_SERVER_IMPL 0
#endif

#if EARDEC_STATS_SERVER_IMPL
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <thread>

#include "obs/slow_log.hpp"
#endif

namespace eardec::obs {

struct StatsServer::Impl {
  std::mutex lifecycle;  ///< serializes start()/stop()
  std::atomic<bool> running{false};
  std::atomic<std::uint16_t> bound_port{0};
  std::atomic<std::uint64_t> requests{0};
  std::mutex routes_mutex;  ///< guards route_handler swaps vs. dispatch
  HttpRouteHandler route_handler;
#if EARDEC_STATS_SERVER_IMPL
  int listen_fd = -1;
  std::jthread thread;

  void serve(const std::stop_token& st);
  void handle(int fd);
#endif
};

StatsServer::StatsServer() : impl_(new Impl) {}

StatsServer& StatsServer::instance() {
  // Intentionally leaked, like the tracer and registry singletons.
  static StatsServer* server = new StatsServer();
  return *server;
}

bool StatsServer::running() const noexcept {
  return impl_->running.load(std::memory_order_relaxed);
}

std::uint16_t StatsServer::port() const noexcept {
  return impl_->bound_port.load(std::memory_order_relaxed);
}

std::uint64_t StatsServer::requests_served() const noexcept {
  return impl_->requests.load(std::memory_order_relaxed);
}

void StatsServer::set_route_handler(HttpRouteHandler handler) {
  const std::lock_guard lock(impl_->routes_mutex);
  impl_->route_handler = std::move(handler);
}

bool StatsServer::configure_from_env() {
  const char* v = std::getenv("EARDEC_STATS_PORT");
  if (v == nullptr || *v == '\0') return false;
  const std::string s(v);
  if (s == "off" || s == "false") return false;
  char* end = nullptr;
  const long parsed = std::strtol(v, &end, 10);
  if (end == v || *end != '\0' || parsed < 0 || parsed > 65535) {
    std::fprintf(stderr, "stats: ignoring EARDEC_STATS_PORT=%s\n", v);
    return false;
  }
  return start(static_cast<std::uint16_t>(parsed));
}

#if !EARDEC_STATS_SERVER_IMPL

bool StatsServer::start(std::uint16_t) {
#if !EARDEC_TRACING_ENABLED
  std::fprintf(stderr, "stats: unavailable (tracing compiled out)\n");
#else
  std::fprintf(stderr, "stats: unavailable (no POSIX sockets)\n");
#endif
  return false;
}

void StatsServer::stop() {}

#else  // EARDEC_STATS_SERVER_IMPL

namespace {

void send_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return;  // peer gone or timeout: drop the rest
    off += static_cast<std::size_t>(n);
  }
}

void respond(int fd, int code, const char* reason, const char* content_type,
             const std::string& body, bool head_only) {
  std::string head = "HTTP/1.1 " + std::to_string(code) + ' ' + reason +
                     "\r\nContent-Type: " + content_type +
                     "\r\nContent-Length: " + std::to_string(body.size()) +
                     "\r\nConnection: close\r\n\r\n";
  send_all(fd, head);
  if (!head_only) send_all(fd, body);
}

/// A reject that stopped reading early: answer, half-close, then discard
/// what the client is still sending. Closing with unread input makes the
/// kernel send RST, which can destroy the reply before the client reads it.
/// The discard ends at EOF, the socket's receive timeout, or `max_discard`
/// bytes, whichever comes first.
void reject(int fd, int code, const char* reason, const char* body,
            std::size_t max_discard) {
  respond(fd, code, reason, "text/plain; charset=utf-8", body, false);
  ::shutdown(fd, SHUT_WR);
  char buf[4096];
  for (std::size_t discarded = 0; discarded < max_discard;) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) break;
    discarded += static_cast<std::size_t>(n);
  }
}

/// The /metrics body: the registry in Prometheus exposition format plus
/// scrape-time process gauges the registry does not carry.
std::string metrics_body() {
  auto& reg = MetricsRegistry::instance();
  static Counter& scrapes = reg.counter("obs.stats.scrapes");
  scrapes.add(1);
  std::ostringstream os;
  reg.write_prometheus(os);
  os.precision(10);
  const double rss = read_rss_mb();
  if (rss >= 0.0) {
    os << "# TYPE eardec_process_rss_mb gauge\neardec_process_rss_mb " << rss
       << '\n';
  }
  os << "# TYPE eardec_process_uptime_seconds gauge\n"
     << "eardec_process_uptime_seconds "
     << static_cast<double>(Tracer::now_ns()) / 1e9 << '\n';
  return os.str();
}

std::string stats_json_body() {
  std::ostringstream os;
  MetricsRegistry::instance().write_json(os);
  return os.str();
}

const char* reason_of(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 413: return "Payload Too Large";
    default: return status < 400 ? "OK" : "Error";
  }
}

/// Content-Length of the request, parsed case-insensitively from the header
/// block; 0 when absent or malformed.
std::size_t content_length_of(const std::string& headers) {
  std::string lower(headers.size(), '\0');
  for (std::size_t i = 0; i < headers.size(); ++i) {
    lower[i] = static_cast<char>(
        std::tolower(static_cast<unsigned char>(headers[i])));
  }
  const std::size_t pos = lower.find("\r\ncontent-length:");
  if (pos == std::string::npos) return 0;
  const char* p = headers.c_str() + pos + 17;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(p, &end, 10);
  return end == p ? 0 : static_cast<std::size_t>(v);
}

}  // namespace

void StatsServer::Impl::handle(int fd) {
  // Read until the end of the request headers (bounded), then — POST only —
  // the Content-Length-framed body, capped at 1 MiB so a misbehaving local
  // client cannot balloon the serving thread.
  constexpr std::size_t kMaxHeader = 8192;
  constexpr std::size_t kMaxBody = 1u << 20;
  constexpr std::size_t kMaxDiscard = kMaxBody + kMaxHeader;
  std::string req;
  char buf[4096];
  std::size_t header_end = std::string::npos;
  while (req.size() < kMaxHeader &&
         (header_end = req.find("\r\n\r\n")) == std::string::npos) {
    const ssize_t n =
        ::recv(fd, buf, std::min(sizeof buf, kMaxHeader - req.size()), 0);
    if (n <= 0) break;
    req.append(buf, static_cast<std::size_t>(n));
  }
  requests.fetch_add(1, std::memory_order_relaxed);

  const std::size_t eol = req.find("\r\n");
  const std::size_t sp1 = req.find(' ');
  if (header_end == std::string::npos) {
    // Only a header block over the cap leaves input unread; otherwise the
    // client hung up or stalled inside it.
    reject(fd, 400, reason_of(400), "bad request\n",
           req.size() >= kMaxHeader ? kMaxDiscard : 0);
    return;
  }
  if (eol == std::string::npos || sp1 == std::string::npos || sp1 > eol) {
    respond(fd, 400, "Bad Request", "text/plain; charset=utf-8",
            "bad request\n", false);
    return;
  }
  const std::string method = req.substr(0, sp1);
  std::size_t sp2 = req.find(' ', sp1 + 1);
  if (sp2 == std::string::npos || sp2 > eol) sp2 = eol;
  std::string path = req.substr(sp1 + 1, sp2 - sp1 - 1);
  std::string query_string;
  const std::size_t query = path.find('?');
  if (query != std::string::npos) {
    query_string = path.substr(query + 1);
    path.resize(query);
  }

  const bool head_only = method == "HEAD";

  // The pluggable routes get first refusal — and are the only consumers of
  // request bodies, so the body is read just for them.
  HttpRouteHandler handler;
  {
    const std::lock_guard lock(routes_mutex);
    handler = route_handler;
  }
  if (handler) {
    std::string body = req.substr(header_end + 4);
    if (method == "POST") {
      const std::size_t want =
          content_length_of(req.substr(0, header_end + 2));
      if (want > kMaxBody) {
        reject(fd, 413, reason_of(413), "body too large\n", kMaxDiscard);
        return;
      }
      while (body.size() < want) {
        const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
        if (n <= 0) break;
        body.append(buf, static_cast<std::size_t>(n));
      }
      // Strict framing: a body shorter than Content-Length (client hung up
      // or lied and we burned the receive timeout) or longer (more bytes
      // than declared) is a malformed request, not a payload to truncate.
      // Only the longer one leaves input unread to discard.
      if (body.size() != want) {
        reject(fd, 400, reason_of(400), "body does not match Content-Length\n",
               body.size() > want ? kMaxDiscard : 0);
        return;
      }
    } else {
      body.clear();
    }
    const HttpRequest request{.method = head_only ? "GET" : method,
                              .path = path,
                              .query = query_string,
                              .body = std::move(body)};
    HttpResponse response;
    if (handler(request, response)) {
      respond(fd, response.status, reason_of(response.status),
              response.content_type.c_str(), response.body, head_only);
      return;
    }
  }

  if (method != "GET" && !head_only) {
    respond(fd, 405, "Method Not Allowed", "text/plain; charset=utf-8",
            "only GET here\n", false);
    return;
  }
  if (path == "/metrics") {
    respond(fd, 200, "OK", "text/plain; version=0.0.4; charset=utf-8",
            metrics_body(), head_only);
  } else if (path == "/healthz" || path == "/") {
    respond(fd, 200, "OK", "text/plain; charset=utf-8", "ok\n", head_only);
  } else if (path == "/stats.json") {
    respond(fd, 200, "OK", "application/json; charset=utf-8",
            stats_json_body(), head_only);
  } else if (path == "/debug/slow") {
    // Slow-query exemplar ring (obs/slow_log.hpp): span trees + latency
    // attribution for tail-sampled queries.
    respond(fd, 200, "OK", "application/json; charset=utf-8",
            SlowLog::instance().dump_json() + "\n", head_only);
  } else {
    respond(fd, 404, "Not Found", "text/plain; charset=utf-8", "not found\n",
            head_only);
  }
}

void StatsServer::Impl::serve(const std::stop_token& st) {
  // Label the lane in traces (no-op while the tracer is disabled).
  Tracer::instance().set_current_thread_name("stats-server");
  while (!st.stop_requested()) {
    // Poll with a short timeout so a stop request is honored promptly
    // without closing the listening socket out from under the thread.
    pollfd pfd{};
    pfd.fd = listen_fd;
    pfd.events = static_cast<short>(POLLIN);
    const int r = ::poll(&pfd, 1, 100);
    if (r <= 0 || (pfd.revents & POLLIN) == 0) continue;
    const int conn = ::accept(listen_fd, nullptr, nullptr);
    if (conn < 0) continue;
    // Bounded patience with slow or stuck clients: this thread serves one
    // connection at a time, so a stalled peer must not wedge the endpoint.
    timeval tv{};
    tv.tv_sec = 2;
    ::setsockopt(conn, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    ::setsockopt(conn, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
    handle(conn);
    ::close(conn);
  }
}

bool StatsServer::start(std::uint16_t port) {
  const std::lock_guard lock(impl_->lifecycle);
  if (impl_->running.load(std::memory_order_relaxed)) {
    std::fprintf(stderr, "stats: already serving on port %u\n",
                 static_cast<unsigned>(
                     impl_->bound_port.load(std::memory_order_relaxed)));
    return false;
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    std::fprintf(stderr, "stats: socket: %s\n", std::strerror(errno));
    return false;
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = static_cast<in_port_t>(htons(port));
  // Loopback only: this is a local scrape endpoint, not a public listener.
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, 8) != 0) {
    std::fprintf(stderr, "stats: cannot serve on port %u: %s\n",
                 static_cast<unsigned>(port),
                 std::strerror(errno));
    ::close(fd);
    return false;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  std::uint16_t actual = port;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    actual = static_cast<std::uint16_t>(ntohs(bound.sin_port));
  }
  impl_->listen_fd = fd;
  impl_->bound_port.store(actual, std::memory_order_relaxed);
  impl_->running.store(true, std::memory_order_relaxed);
  impl_->thread =
      std::jthread([impl = impl_](const std::stop_token& st) { impl->serve(st); });
  std::fprintf(stderr, "stats: serving http://127.0.0.1:%u/metrics\n",
               static_cast<unsigned>(actual));
  return true;
}

void StatsServer::stop() {
  const std::lock_guard lock(impl_->lifecycle);
  if (!impl_->running.load(std::memory_order_relaxed)) return;
  impl_->thread.request_stop();
  impl_->thread.join();
  ::close(impl_->listen_fd);
  impl_->listen_fd = -1;
  impl_->bound_port.store(0, std::memory_order_relaxed);
  impl_->running.store(false, std::memory_order_relaxed);
}

#endif  // EARDEC_STATS_SERVER_IMPL

}  // namespace eardec::obs
