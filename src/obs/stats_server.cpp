#include "obs/stats_server.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <sstream>
#include <string>
#include <utility>

#include "obs/http_frame.hpp"
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
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string_view>
#include <thread>
#include <vector>

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
  struct Connection;

  int listen_fd = -1;
  std::jthread thread;

  void serve(const std::stop_token& st);
  void on_ready(Connection& c, std::uint64_t now);
  void expire(Connection& c, std::uint64_t now);
  void pump(Connection& c, std::uint64_t now);
  bool answer_next(Connection& c, std::uint64_t now);
  void answer(HttpRequest request, bool keep_alive, std::string& out);
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

/// A request must arrive whole within this long of its first byte. An idle
/// kept-alive connection, a reply the peer does not read and a reject's
/// drain get as long; trickling bytes extend none of them.
constexpr std::uint64_t kDeadlineNs = 2'000'000'000;
/// Open connections at most. At the cap the listener leaves the poll set
/// and new connections wait in the listen backlog.
constexpr std::size_t kMaxConnections = 64;
/// Input one connection buffers: one request at the framing limits, so a
/// full buffer always frames to a request or a reject.
constexpr std::size_t kMaxBuffered = kMaxHeaderBytes + kMaxBodyBytes;
/// The longest poll: how soon stop() is noticed, and how long the listener
/// pauses after accept() runs out of descriptors.
constexpr std::uint64_t kPollNs = 100'000'000;

constexpr std::string_view kTextPlain = "text/plain; charset=utf-8";
constexpr std::string_view kJson = "application/json; charset=utf-8";

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

/// Appends one whole reply, head and body, so that it leaves in one send().
void append_reply(std::string& out, int status, std::string_view content_type,
                  std::string_view body, bool head_only, bool keep_alive) {
  out += "HTTP/1.1 ";
  out += std::to_string(status);
  out += ' ';
  out += reason_of(status);
  out += "\r\nContent-Type: ";
  out += content_type;
  out += "\r\nContent-Length: ";
  out += std::to_string(body.size());
  out += keep_alive ? "\r\nConnection: keep-alive\r\n\r\n"
                    : "\r\nConnection: close\r\n\r\n";
  if (!head_only) out += body;
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

/// The built-in routes, GET (and HEAD, passed in as GET) only.
HttpResponse builtin_response(const HttpRequest& request) {
  HttpResponse r;
  if (request.method != "GET") {
    r.status = 405;
    r.body = "only GET here\n";
  } else if (request.path == "/metrics") {
    r.content_type = "text/plain; version=0.0.4; charset=utf-8";
    r.body = metrics_body();
  } else if (request.path == "/healthz" || request.path == "/") {
    r.body = "ok\n";
  } else if (request.path == "/stats.json") {
    r.content_type = kJson;
    r.body = stats_json_body();
  } else if (request.path == "/debug/slow") {
    // Slow-query exemplar ring (obs/slow_log.hpp): latency attribution
    // of tail-sampled requests.
    r.content_type = kJson;
    r.body = SlowLog::instance().dump_json() + "\n";
  } else {
    r.status = 404;
    r.body = "not found\n";
  }
  return r;
}

}  // namespace

/// One open client socket. Only the serving thread touches it.
struct StatsServer::Impl::Connection {
  int fd = -1;
  std::string in;            ///< received input
  std::size_t in_used = 0;   ///< bytes of `in` already framed
  std::string out;           ///< the queued reply
  std::size_t out_sent = 0;  ///< bytes of `out` already written
  std::uint64_t deadline_ns = 0;
  bool peer_eof = false;           ///< no more input will be framed
  bool close_after_reply = false;  ///< the queued reply ends the connection
  bool draining = false;           ///< write side shut, input dropped
  bool ready = false;              ///< serve again without waiting for input
  std::size_t discard = 0;         ///< input still to drop before closing
};

namespace {

using Connection = StatsServer::Impl::Connection;

std::string_view unframed(const Connection& c) {
  return std::string_view(c.in).substr(c.in_used);
}

void close_connection(Connection& c) {
  ::close(c.fd);
  c.fd = -1;
}

/// Writes what is queued. True when nothing is left queued; false when the
/// socket is full (wait for POLLOUT) or the connection was closed.
bool flush(Connection& c) {
  while (c.out_sent < c.out.size()) {
    const ssize_t n = ::send(c.fd, c.out.data() + c.out_sent,
                             c.out.size() - c.out_sent, MSG_NOSIGNAL);
    if (n > 0) {
      c.out_sent += static_cast<std::size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) {
        close_connection(c);
      }
      return false;
    }
  }
  c.out.clear();
  c.out_sent = 0;
  return true;
}

/// Reads what the socket holds: into `in`, up to kMaxBuffered, or — while
/// draining — into the discard budget. Sets peer_eof on EOF and closes the
/// connection on an error or a spent budget.
void read_input(Connection& c) {
  // Drop the framed prefix once it is the whole buffer or the buffer is
  // full: one move per buffer of pipelined requests, not one per request.
  if (c.in_used == c.in.size() || c.in.size() == kMaxBuffered) {
    c.in.erase(0, c.in_used);
    c.in_used = 0;
  }
  char buf[16384];
  for (;;) {
    const std::size_t room =
        c.draining ? sizeof buf
                   : std::min(sizeof buf, kMaxBuffered - c.in.size());
    if (room == 0) return;
    const ssize_t n = ::recv(c.fd, buf, room, 0);
    if (n > 0) {
      const auto got = static_cast<std::size_t>(n);
      if (!c.draining) {
        c.in.append(buf, got);
      } else if ((c.discard -= std::min(c.discard, got)) == 0) {
        close_connection(c);
        return;
      }
      if (got < room) return;  // a short read leaves the socket empty
    } else if (n == 0) {
      c.peer_eof = true;
      return;
    } else if (errno != EINTR) {
      if (errno != EAGAIN && errno != EWOULDBLOCK) close_connection(c);
      return;
    }
  }
}

/// Accepts pending connections up to kMaxConnections.
void accept_pending(int listen_fd, std::vector<Connection>& conns,
                    std::uint64_t now, std::uint64_t& accept_after) {
  while (conns.size() < kMaxConnections) {
    const int fd =
        ::accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      // Out of descriptors or memory: the connection stays queued and keeps
      // the listener readable, so leave the listener out of the poll set
      // for a while rather than spin on it.
      if (errno != EAGAIN && errno != EWOULDBLOCK) accept_after = now + kPollNs;
      return;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    Connection& c = conns.emplace_back();
    c.fd = fd;
    c.deadline_ns = now + kDeadlineNs;
  }
}

}  // namespace

void StatsServer::Impl::answer(HttpRequest request, bool keep_alive,
                               std::string& out) {
  const bool head_only = request.method == "HEAD";
  if (head_only) request.method = "GET";
  // The pluggable routes get first refusal.
  HttpRouteHandler handler;
  {
    const std::lock_guard lock(routes_mutex);
    handler = route_handler;
  }
  HttpResponse response;
  if (!handler || !handler(request, response)) {
    response = builtin_response(request);
  }
  append_reply(out, response.status, response.content_type, response.body,
               head_only, keep_alive);
}

/// Frames the next request in `c.in` and queues its reply. Returns whether
/// there was one (or a reject) to answer.
bool StatsServer::Impl::answer_next(Connection& c, std::uint64_t now) {
  HttpFrame f = frame_request(unframed(c), c.peer_eof);
  if (f.kind == HttpFrame::Kind::kNeedMore) return false;
  requests.fetch_add(1, std::memory_order_relaxed);
  c.deadline_ns = now + kDeadlineNs;
  if (f.kind == HttpFrame::Kind::kReject) {
    append_reply(c.out, f.status, kTextPlain, f.message, false, false);
    c.close_after_reply = true;
    c.discard = f.discard;
    return true;
  }
  c.in_used += f.consumed;
  if (!f.keep_alive) {
    // Drained like a reject: bytes the peer sends past this request must
    // not reset the connection under the reply.
    c.close_after_reply = true;
    c.discard = kMaxDiscardBytes;
  }
  answer(std::move(f.request), f.keep_alive, c.out);
  return true;
}

/// Writes what is queued, then answers the next buffered request and writes
/// that. One request per connection per turn of the poll loop: a connection
/// with more input to frame is marked `ready` and served again after every
/// other ready one, so a peer that pipelines many requests cannot hold the
/// thread. A reply that ends the connection half-closes, then drains the
/// discard budget: closing with unread input makes the kernel send RST,
/// which can destroy the reply before the client reads it.
void StatsServer::Impl::pump(Connection& c, std::uint64_t now) {
  c.ready = false;
  if (!flush(c)) return;
  if (!c.close_after_reply) {
    if (!answer_next(c, now)) {
      if (c.peer_eof) close_connection(c);
      return;
    }
    if (!flush(c)) return;
  }
  if (c.close_after_reply) {
    if (c.discard == 0 || c.peer_eof) {
      close_connection(c);
    } else {
      ::shutdown(c.fd, SHUT_WR);
      c.draining = true;
      c.in.clear();
      c.in_used = 0;
    }
    return;
  }
  c.ready = c.peer_eof || !unframed(c).empty();
}

void StatsServer::Impl::on_ready(Connection& c, std::uint64_t now) {
  if (!c.out.empty()) {  // polled for POLLOUT
    pump(c, now);
    return;
  }
  const bool idle = unframed(c).empty();
  read_input(c);
  if (c.fd < 0) return;
  if (c.draining) {
    if (c.peer_eof) close_connection(c);
    return;
  }
  if (idle && !unframed(c).empty()) c.deadline_ns = now + kDeadlineNs;
  pump(c, now);
}

void StatsServer::Impl::expire(Connection& c, std::uint64_t now) {
  if (c.draining || !c.out.empty()) {
    close_connection(c);
    return;
  }
  read_input(c);  // bytes that arrived since the last poll still count
  if (c.fd < 0) return;
  if (unframed(c).empty()) {  // idle
    close_connection(c);
    return;
  }
  // The request did not arrive whole in time: frame it as if input ended.
  c.peer_eof = true;
  pump(c, now);
}

void StatsServer::Impl::serve(const std::stop_token& st) {
  // Label the lane in traces (no-op while the tracer is disabled).
  Tracer::instance().set_current_thread_name("stats-server");
  std::vector<Connection> conns;
  std::vector<pollfd> fds;
  std::uint64_t accept_after = 0;
  while (!st.stop_requested()) {
    std::uint64_t now = Tracer::now_ns();
    const bool accepting =
        conns.size() < kMaxConnections && now >= accept_after;
    std::uint64_t wake = now + kPollNs;
    fds.clear();
    for (const Connection& c : conns) {
      fds.push_back({.fd = c.fd,
                     .events = static_cast<short>(c.out.empty() ? POLLIN
                                                                : POLLOUT),
                     .revents = 0});
      wake = std::min(wake, c.ready ? now : c.deadline_ns);
    }
    if (accepting) {
      fds.push_back({.fd = listen_fd, .events = POLLIN, .revents = 0});
    }
    const std::uint64_t wait_ns = wake > now ? wake - now : 0;
    ::poll(fds.data(), static_cast<nfds_t>(fds.size()),
           static_cast<int>((wait_ns + 999'999) / 1'000'000));
    now = Tracer::now_ns();
    for (std::size_t i = 0; i < conns.size(); ++i) {
      Connection& c = conns[i];
      if (fds[i].revents != 0 || c.ready) on_ready(c, now);
      if (c.fd >= 0 && now >= c.deadline_ns) expire(c, now);
    }
    std::erase_if(conns, [](const Connection& c) { return c.fd < 0; });
    if (accepting && (fds.back().revents & POLLIN) != 0) {
      accept_pending(listen_fd, conns, now, accept_after);
    }
  }
  for (Connection& c : conns) close_connection(c);
}

bool StatsServer::start(std::uint16_t port) {
  const std::lock_guard lock(impl_->lifecycle);
  if (impl_->running.load(std::memory_order_relaxed)) {
    std::fprintf(stderr, "stats: already serving on port %u\n",
                 static_cast<unsigned>(
                     impl_->bound_port.load(std::memory_order_relaxed)));
    return false;
  }
  // Non-blocking, so that accept() on a connection the peer already
  // dropped cannot stall the poll loop.
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
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
      ::listen(fd, SOMAXCONN) != 0) {
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
