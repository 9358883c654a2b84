// Live stats exposition — the scrape-endpoint half of the observability
// layer (metrics.hpp holds the instruments it serves; see
// docs/observability.md).
//
// StatsServer is a zero-dependency HTTP/1.1 endpoint on a background
// thread, built directly on POSIX sockets (loopback only). Three routes:
//   * GET /metrics    — Prometheus text exposition format (version 0.0.4):
//                       every registry counter/gauge/histogram (histograms
//                       with cumulative buckets, _sum/_count and derived
//                       p50/p90/p99 gauges — see
//                       MetricsRegistry::write_prometheus), plus
//                       scrape-time process gauges (RSS MiB, uptime);
//   * GET /healthz    — 200 "ok" liveness probe;
//   * GET /stats.json — the registry's JSON export (what `eardec_cli
//                       --metrics file.json` writes), served live.
// Anything else answers 404.
//
// Connections: the one server thread polls the listening socket and every
// open connection (non-blocking, TCP_NODELAY). HTTP/1.1 connections stay
// open unless the request says "Connection: close"; HTTP/1.0 ones close
// unless it says "keep-alive". Pipelined requests are answered in order,
// each reply (head and body) written with one send(), one request per
// connection per turn of the loop. Requests are framed by
// frame_request() (http_frame.hpp), which holds the size limits. A request
// must arrive whole within 2 s of its first byte, and an idle connection is
// closed 2 s after its last reply, so a slow, idle or pipelining peer delays
// no one else. At most 64 connections are open at once; further ones wait
// in the listen backlog.
//
// Concurrency contract: request handling only reads the metrics registry
// (leaked-singleton instruments updated with relaxed atomics), so a scrape
// is race-free against every hot path, including thread pools being
// constructed or torn down mid-request — there is no shared state with
// worker lifecycles to sequence against. The server thread itself is
// joined by stop(); eardec_cli stops it after the optional --stats-linger
// window, bench binaries on ObservabilitySession destruction.
//
// Opt-in wiring: `eardec_cli --stats-port <p>` (plus `--stats-linger <s>`
// to keep serving after the command finishes) and the EARDEC_STATS_PORT
// env var, which every bench binary honors through ObservabilitySession.
// Port 0 binds an ephemeral port; port() reports the real one.
//
// Compile-out: under -DEARDEC_ENABLE_TRACING=OFF the whole HTTP
// implementation is compiled out along with the tracer — start() returns
// false and the binary contains no serving code (CI grep-asserts this).
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "obs/http_frame.hpp"  // HttpRequest
#include "obs/trace.hpp"  // kTracingEnabled — the compile-out switch

namespace eardec::obs {

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

/// Returns true when it produced a response for the request, false to fall
/// through to the built-in routes. Runs on the serving thread; it must be
/// safe against concurrent application threads on its own (the serve layer
/// achieves this by only touching immutable snapshots and atomics).
using HttpRouteHandler =
    std::function<bool(const HttpRequest&, HttpResponse&)>;

class StatsServer {
 public:
  /// True when the serving implementation is compiled in (mirrors the
  /// tracer's compile-time gate).
  static constexpr bool kCompiledIn = kTracingEnabled;

  /// The process-wide server. Never destroyed; the thread is joined by
  /// stop(), not by a destructor.
  static StatsServer& instance();

  /// Binds 127.0.0.1:<port> (0 = ephemeral) and starts the serving thread.
  /// Returns false when compiled out, already running, or the socket
  /// cannot be bound (the reason goes to stderr). Idempotent in the sense
  /// that a second start() while running is a no-op returning false.
  bool start(std::uint16_t port);

  /// Applies the EARDEC_STATS_PORT env var ("<port>"; unset/empty/"off"
  /// leaves the server stopped). Returns true when the server was started.
  bool configure_from_env();

  /// Requests stop, unblocks the accept loop, and joins the serving
  /// thread. Safe to call when not running.
  void stop();

  [[nodiscard]] bool running() const noexcept;

  /// The actually bound port (resolves port 0), or 0 when not running.
  [[nodiscard]] std::uint16_t port() const noexcept;

  /// Requests answered since process start: every route, including 404s,
  /// and every framing reject (400/413). Not connections: a kept-alive
  /// connection counts once per request.
  [[nodiscard]] std::uint64_t requests_served() const noexcept;

  /// Registers (nullptr clears) the pluggable route handler, consulted
  /// before the built-in routes on every request. This is also the only
  /// way POST is admitted: with no handler — or a handler that declines —
  /// non-GET/HEAD methods keep answering 405, and the built-in routes stay
  /// GET/HEAD-only. The serve layer (src/serve) registers its /query
  /// routes here, piggybacking on the one scrape endpoint. Callable
  /// whether or not the server is running; clear the handler before
  /// whatever it captures is destroyed.
  void set_route_handler(HttpRouteHandler handler);

  struct Impl;  ///< opaque; defined in stats_server.cpp

 private:
  StatsServer();
  ~StatsServer() = delete;  // leaked singleton

  Impl* impl_;
};

}  // namespace eardec::obs
