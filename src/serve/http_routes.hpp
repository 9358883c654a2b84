// HTTP face of the serving layer: /query routes registered on the obs
// StatsServer's pluggable route handler, so one loopback endpoint serves
// scrapes (/metrics, /stats.json) and distance queries side by side.
//
// Routes (see docs/serving.md for the wire contract):
//   * GET  /query?s=<u>&t=<v>  — one distance:
//         {"epoch": E, "s": S, "t": T, "distance": "<d>"}
//   * POST /query/batch        — body is whitespace-separated "s t" pairs;
//         answers through the batched path:
//         {"epoch": E, "count": N, "distances": ["<d>", ...]}
// Distances are JSON strings formatted with %.17g ("inf" for unreachable)
// so round-tripping them preserves every bit — the CI smoke diff compares
// them textually against `eardec_cli query`.
//
// Malformed input (missing/non-numeric parameters, out-of-range vertices)
// answers 400 with {"error": "..."}. Unknown paths fall through to the
// stats server's built-in routes.
//
// Each answered request is one serve.request span holding the oracle's
// oracle.scalar / oracle.batch span and a serve.write span, all on the
// serving thread's lane, and its latency attribution is recorded through
// obs::record_served (obs/slow_log.hpp).
#pragma once

#include <string>

#include "graph/graph.hpp"

namespace eardec::serve {

class OracleServer;

/// %.17g rendering of a distance; "inf" for kInfWeight. The textual form
/// used by the HTTP routes and `eardec_cli query`, chosen to round-trip
/// doubles exactly.
[[nodiscard]] std::string format_distance(graph::Weight w);

/// Registers the /query routes against the process StatsServer, serving
/// from `server`. The handler holds a pointer to `server`: call
/// unregister_query_routes() before the OracleServer is destroyed.
void register_query_routes(OracleServer& server);

/// Clears the route handler (idempotent).
void unregister_query_routes();

}  // namespace eardec::serve
