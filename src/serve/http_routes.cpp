#include "serve/http_routes.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "obs/slow_log.hpp"
#include "obs/stats_server.hpp"
#include "obs/trace.hpp"
#include "serve/oracle_server.hpp"

namespace eardec::serve {

namespace {

/// Closes a request whose reply body is ready: serialization since
/// `ret_ns` becomes the serve.write span and the `write` attribution
/// component.
void finish_request(obs::ServedRequest req) {
  req.done_ns = obs::Tracer::now_ns();
  obs::Tracer::instance().record_span("serve.write", req.ret_ns,
                                      req.done_ns - req.ret_ns);
  obs::record_served(req);
}

/// Parses one vertex id; rejects trailing junk and overflow.
std::optional<graph::VertexId> parse_vertex(std::string_view text) {
  if (text.empty()) return std::nullopt;
  std::uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return std::nullopt;
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
    if (value > 0xffffffffull) return std::nullopt;
  }
  return static_cast<graph::VertexId>(value);
}

/// Value of `key` in an application/x-www-form-urlencoded query string
/// (no %-decoding: vertex ids never need it).
std::optional<std::string_view> query_param(std::string_view query,
                                            std::string_view key) {
  while (!query.empty()) {
    const std::size_t amp = query.find('&');
    const std::string_view pair = query.substr(0, amp);
    const std::size_t eq = pair.find('=');
    if (eq != std::string_view::npos && pair.substr(0, eq) == key) {
      return pair.substr(eq + 1);
    }
    if (amp == std::string_view::npos) break;
    query.remove_prefix(amp + 1);
  }
  return std::nullopt;
}

void fail(obs::HttpResponse& response, const std::string& message) {
  response.status = 400;
  response.content_type = "application/json";
  response.body = "{\"error\": \"" + message + "\"}\n";
}

bool handle_single(OracleServer& server, const obs::HttpRequest& request,
                   obs::HttpResponse& response) {
  // Arrival is request receipt; the oracle's span and serve.write nest
  // under serve.request on this thread's lane.
  obs::ServedRequest req{.arrival_ns = obs::Tracer::now_ns()};
  EARDEC_TRACE_SCOPE("serve.request");
  const auto s = query_param(request.query, "s");
  const auto t = query_param(request.query, "t");
  if (!s || !t) {
    fail(response, "missing s or t parameter");
    return true;
  }
  const auto sv = parse_vertex(*s);
  const auto tv = parse_vertex(*t);
  if (!sv || !tv) {
    fail(response, "s and t must be decimal vertex ids");
    return true;
  }
  // Answer from the snapshot the reply's epoch names: a rebuild between
  // two separate pins would label a new-graph answer with the old epoch.
  const auto snap = server.snapshot();
  graph::Weight d = 0;
  req.call_ns = obs::Tracer::now_ns();
  try {
    d = server.query_on(*snap, *sv, *tv);
  } catch (const std::out_of_range&) {
    fail(response, "vertex id out of range");
    return true;
  }
  req.ret_ns = obs::Tracer::now_ns();
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "{\"epoch\": %llu, \"s\": %u, \"t\": %u, \"distance\": "
                "\"%s\"}\n",
                static_cast<unsigned long long>(snap->epoch()), *sv, *tv,
                format_distance(d).c_str());
  response.content_type = "application/json";
  response.body = buf;
  req.s = *sv;
  req.t = *tv;
  req.epoch = snap->epoch();
  finish_request(req);
  return true;
}

bool handle_batch(OracleServer& server, const obs::HttpRequest& request,
                  obs::HttpResponse& response) {
  if (request.method != "POST") {
    fail(response, "POST a body of whitespace-separated s t pairs");
    return true;
  }
  obs::ServedRequest req{.arrival_ns = obs::Tracer::now_ns()};
  EARDEC_TRACE_SCOPE("serve.request");
  std::vector<Query> queries;
  std::string_view body = request.body;
  const auto next_token = [&body]() -> std::optional<std::string_view> {
    while (!body.empty() &&
           (body.front() == ' ' || body.front() == '\t' ||
            body.front() == '\n' || body.front() == '\r')) {
      body.remove_prefix(1);
    }
    if (body.empty()) return std::nullopt;
    std::size_t len = 0;
    while (len < body.size() && body[len] != ' ' && body[len] != '\t' &&
           body[len] != '\n' && body[len] != '\r') {
      ++len;
    }
    const std::string_view token = body.substr(0, len);
    body.remove_prefix(len);
    return token;
  };
  while (true) {
    const auto s = next_token();
    if (!s) break;
    const auto t = next_token();
    if (!t) {
      fail(response, "odd number of vertex ids in batch body");
      return true;
    }
    const auto sv = parse_vertex(*s);
    const auto tv = parse_vertex(*t);
    if (!sv || !tv) {
      fail(response, "batch body must contain decimal vertex ids");
      return true;
    }
    queries.push_back({*sv, *tv});
  }

  const auto snap = server.snapshot();
  std::vector<graph::Weight> distances;
  req.call_ns = obs::Tracer::now_ns();
  try {
    distances = server.query_batch_on(*snap, queries);
  } catch (const std::out_of_range&) {
    fail(response, "vertex id out of range");
    return true;
  }
  req.ret_ns = obs::Tracer::now_ns();
  std::string body_out = "{\"epoch\": ";
  body_out += std::to_string(snap->epoch());
  body_out += ", \"count\": ";
  body_out += std::to_string(distances.size());
  body_out += ", \"distances\": [";
  for (std::size_t i = 0; i < distances.size(); ++i) {
    if (i > 0) body_out += ", ";
    body_out += '"';
    body_out += format_distance(distances[i]);
    body_out += '"';
  }
  body_out += "]}\n";
  response.content_type = "application/json";
  response.body = std::move(body_out);
  req.count = static_cast<std::uint32_t>(queries.size());
  if (!queries.empty()) {
    req.s = queries[0].s;
    req.t = queries[0].t;
  }
  req.epoch = snap->epoch();
  finish_request(req);
  return true;
}

}  // namespace

std::string format_distance(graph::Weight w) {
  if (w >= graph::kInfWeight) return "inf";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", static_cast<double>(w));
  return buf;
}

void register_query_routes(OracleServer& server) {
  OracleServer* target = &server;
  obs::StatsServer::instance().set_route_handler(
      [target](const obs::HttpRequest& request, obs::HttpResponse& response) {
        if (request.path == "/query") {
          return handle_single(*target, request, response);
        }
        if (request.path == "/query/batch") {
          return handle_batch(*target, request, response);
        }
        return false;
      });
}

void unregister_query_routes() {
  obs::StatsServer::instance().set_route_handler(nullptr);
}

}  // namespace eardec::serve
