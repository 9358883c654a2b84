// Online distance-oracle serving — the read-mostly query layer on top of
// the compact EarApspEngine queries (see docs/serving.md).
//
// OracleServer owns an immutable OracleSnapshot behind a shared_ptr, and
// rebuild() publishes a freshly built snapshot under the next epoch.
// snapshot() hands out a shared_ptr that pins its epoch for as long as the
// caller holds it. query() and query_batch() pin through a per-thread
// reader slot instead: each thread locks only its own slot, checks the
// slot's epoch against the published one, and refreshes the slot once per
// epoch. rebuild() drops every stale slot pin before it returns, so from
// then on no query answers from the old epoch, and the old build is freed
// on the rebuilding thread unless a snapshot() caller still holds it.
// Nothing in a published snapshot is ever mutated.
//
// Two query paths, both the paper's Phase III closed form (PAPER.md §1):
//   * scalar  — query(s, t) / query_on(snap, s, t): one compact query
//               (EarApspEngine::query), one latency histogram record.
//   * batched — query_batch(queries) / query_batch_on(snap, queries): pin
//               the snapshot once and loop the same closed form over every
//               query. Bit-identical to the scalar path by construction.
// Each answer is an O(1) read of the compact tables, so neither path goes
// through the hetero work queue; that queue serves phase II's reduced-graph
// SSSP runs at build time.
//
// Metrics (obs registry): oracle.query.scalar.latency_ns and
// oracle.query.batch.latency_ns histograms (the batch one records the
// amortized per-query cost), oracle.serve.batch.latency_ns for whole
// batches, oracle.serve.queries / .batches counters, and the
// oracle.serve.epoch gauge. All visible on a live /metrics scrape. With
// the tracer on, each call also records an oracle.scalar / oracle.batch
// span (arg `queries`) over the same interval as its latency histogram.
// Latency attribution (oracle.serve.attr.*) is the request owner's job:
// see obs::record_served in obs/slow_log.hpp.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/ear_apsp.hpp"
#include "graph/graph.hpp"

namespace eardec::serve {

using graph::VertexId;
using graph::Weight;

/// One s-t distance request.
struct Query {
  VertexId s = 0;
  VertexId t = 0;
};

struct ServeOptions {
  /// How snapshots are built (the phase II execution mode and threads).
  core::ApspOptions build{.mode = core::ExecutionMode::Multicore,
                          .cpu_threads = 4};
};

/// One immutable published build: the input graph plus the compact oracle
/// over it, stamped with its epoch. Everything here is read-only after
/// construction, so any number of threads may query a pinned snapshot
/// concurrently (EarApspEngine's const queries are thread-safe).
class OracleSnapshot {
 public:
  OracleSnapshot(graph::Graph g, const core::ApspOptions& build,
                 std::uint64_t epoch)
      : epoch_(epoch), graph_(std::move(g)), engine_(graph_, build) {}

  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }
  [[nodiscard]] const graph::Graph& graph() const noexcept { return graph_; }
  [[nodiscard]] const core::EarApspEngine& engine() const noexcept {
    return engine_;
  }
  /// Closed-form compact query on this snapshot (no metrics, no epoch
  /// resolution — the raw building block readers pin and hammer).
  [[nodiscard]] Weight query(VertexId s, VertexId t) const {
    return engine_.query(s, t);
  }

 private:
  std::uint64_t epoch_;
  graph::Graph graph_;
  core::EarApspEngine engine_;
};

class OracleServer {
 public:
  /// Builds epoch 1 synchronously from `g`.
  explicit OracleServer(graph::Graph g, ServeOptions options = {});
  ~OracleServer();
  OracleServer(const OracleServer&) = delete;
  OracleServer& operator=(const OracleServer&) = delete;

  /// Pins the current snapshot. The returned pointer stays valid (and its
  /// answers stay self-consistent) across any number of later rebuilds.
  [[nodiscard]] std::shared_ptr<const OracleSnapshot> snapshot() const;

  /// Epoch of the currently published snapshot (monotonically increasing).
  /// One atomic load.
  [[nodiscard]] std::uint64_t epoch() const noexcept;

  /// Builds a snapshot from `g` off to the side, then publishes it under
  /// the next epoch. Queries in flight finish on the old snapshot, and
  /// snapshot() callers keep theirs; every query that starts after
  /// rebuild() returns answers from the new one. Safe against concurrent
  /// queries; concurrent rebuilds serialize.
  void rebuild(graph::Graph g);

  [[nodiscard]] const ServeOptions& options() const noexcept;

  /// Scalar path: pin the current snapshot, answer s-t through the compact
  /// closed form (see query_on). Throws std::out_of_range on bad vertices.
  [[nodiscard]] Weight query(VertexId s, VertexId t) const;

  /// Scalar path against a caller-pinned snapshot, so a reply can report
  /// the epoch its answer came from. Same metrics and span as query();
  /// bit-identical to snap.query(s, t).
  [[nodiscard]] Weight query_on(const OracleSnapshot& snap, VertexId s,
                                VertexId t) const;

  /// Batched path against the current snapshot (see query_batch_on).
  [[nodiscard]] std::vector<Weight> query_batch(
      std::span<const Query> queries) const;

  /// Batched path against a caller-pinned snapshot: one distance per
  /// query, in order, each bit-identical to snap.query(s, t). Throws
  /// std::out_of_range on bad vertices.
  [[nodiscard]] std::vector<Weight> query_batch_on(
      const OracleSnapshot& snap, std::span<const Query> queries) const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace eardec::serve
