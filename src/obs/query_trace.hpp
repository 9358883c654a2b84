// Request-context propagation for the serving layer — the glue between the
// scoped-span tracer (obs/trace.hpp) and per-query observability
// (docs/observability.md, "Per-query tracing & flight recorder").
//
// A QueryTrace is the per-request trace context: a process-unique 64-bit
// query id plus a span-id allocator and a small fixed collector of the
// spans emitted on the query's behalf. The request owner (http_routes,
// bench_oracle_serve) stack-allocates one, installs it with a
// QueryTraceScope on the thread that serves the request, and every span
// emitted below it in the oracle server is recorded through
// Tracer::record_span_linked with (qid, span_id, parent_id) links.
// tools/critical_path.py stitches the exported links back into per-query
// trees; obs/slow_log.hpp retains the collected spans for queries sampled
// into the exemplar ring.
//
// Contract:
//   * the QueryTrace must outlive every scope/span referring to it — the
//     request owner guarantees this because a request is answered
//     synchronously on the thread that installed the scope;
//   * span-id allocation and collection are thread-safe (atomic claims);
//   * the thread-local context itself is per-thread: spans emitted on
//     another thread are not attached to the query.
//
// Everything here is cheap enough to stay compiled in all builds (one TLS
// pointer, a few atomics); the tracer half of emit() is still double-gated
// by obs::Tracer, and span *collection* only happens while the slow-query
// exemplar store (obs/slow_log.hpp) is armed.
#pragma once

#include <atomic>
#include <cstdint>

#include "obs/trace.hpp"

namespace eardec::obs {

/// Latency attribution components every answered query decomposes into
/// (exported as oracle.serve.attr.<name>_ns histograms; the components are
/// contiguous, so their per-query sum equals the open-loop latency).
inline constexpr std::size_t kNumAttrComponents = 3;
inline constexpr const char* kAttrComponentNames[kNumAttrComponents] = {
    "queue_wait", "kernel", "write",
};
enum class AttrComponent : std::size_t {
  kQueueWait = 0,  ///< scheduled arrival -> server entry
  kKernel = 1,     ///< closed-form evaluation on the pinned snapshot
  kWrite = 2,      ///< reply serialization / result handoff
};

/// One collected span (a TraceEvent reduced to what the exemplar store
/// keeps). `name` must be a string literal, like TraceEvent::name.
struct QuerySpanRecord {
  const char* name = nullptr;
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
  std::uint32_t span_id = 0;
  std::uint32_t parent_id = 0;
};

/// Allocates the next process-unique query id (never 0).
[[nodiscard]] std::uint64_t next_query_id() noexcept;

/// Per-request trace context. Stack-allocated by the request owner; see the
/// file comment for the lifetime/threading contract.
class QueryTrace {
 public:
  /// Collector capacity: a request emits 3 spans today, so this leaves
  /// ample headroom; later spans are counted but not retained.
  static constexpr std::size_t kMaxSpans = 48;

  /// `arrival_ns` is the query's scheduled arrival on the Tracer::now_ns
  /// timeline (0 = unknown): the serving layer derives the queue_wait
  /// attribution component from it. Span collection is enabled iff the
  /// slow-query exemplar store is armed at construction time.
  explicit QueryTrace(std::uint64_t arrival_ns_in = 0);

  QueryTrace(const QueryTrace&) = delete;
  QueryTrace& operator=(const QueryTrace&) = delete;

  [[nodiscard]] std::uint64_t query_id() const noexcept { return query_id_; }

  /// Claims the next span id within this query's tree (thread-safe).
  [[nodiscard]] std::uint32_t allocate_span() noexcept {
    return next_span_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Records one completed span: forwards to Tracer::record_span_linked
  /// (subject to the tracer's gates) and appends to the collector when
  /// collection is on. Thread-safe.
  void emit(std::uint32_t span_id, std::uint32_t parent_id, const char* name,
            std::uint64_t start_ns, std::uint64_t dur_ns,
            const char* arg_name = nullptr, std::uint64_t arg = 0) noexcept;

  /// Collected spans (quiescent read: after the request completed).
  [[nodiscard]] std::uint32_t span_count() const noexcept;
  [[nodiscard]] const QuerySpanRecord* spans() const noexcept {
    return spans_;
  }

  std::uint64_t arrival_ns = 0;
  /// Set by the serving layer immediately before handing the answer back;
  /// the caller derives the `write` component as done - server_end_ns.
  std::uint64_t server_end_ns = 0;
  /// Attribution components (ns), filled by the serving layer; retained in
  /// slow-query exemplars.
  std::uint64_t attr_ns[kNumAttrComponents] = {};

 private:
  std::uint64_t query_id_;
  std::atomic<std::uint32_t> next_span_{1};
  std::atomic<std::uint32_t> collected_{0};
  bool collect_spans_;
  QuerySpanRecord spans_[kMaxSpans];
};

/// The calling thread's current trace context (nullptr outside a scope).
[[nodiscard]] QueryTrace* current_query_trace() noexcept;

/// The span id new spans on this thread should attach under (0 = root).
[[nodiscard]] std::uint32_t current_parent_span() noexcept;

/// Installs a QueryTrace as the calling thread's context for the scope's
/// duration, with new spans attaching at the root; restores the previous
/// context on exit. Pass nullptr to run a scope context-free. Used at
/// request entry.
class QueryTraceScope {
 public:
  explicit QueryTraceScope(QueryTrace* trace) noexcept;
  ~QueryTraceScope();

  QueryTraceScope(const QueryTraceScope&) = delete;
  QueryTraceScope& operator=(const QueryTraceScope&) = delete;

 private:
  QueryTrace* prev_trace_;
  std::uint32_t prev_parent_;
};

/// RAII linked span: when a trace context is installed, allocates a span id,
/// becomes the thread's parent span for nested QuerySpans, and emits the
/// span (tracer + collector) on scope exit. A no-op costing one TLS load
/// when no context is installed.
class QuerySpan {
 public:
  explicit QuerySpan(const char* name, const char* arg_name = nullptr,
                     std::uint64_t arg = 0) noexcept;
  ~QuerySpan();

  QuerySpan(const QuerySpan&) = delete;
  QuerySpan& operator=(const QuerySpan&) = delete;

  /// This span's id (0 when no context was installed).
  [[nodiscard]] std::uint32_t span_id() const noexcept { return span_id_; }

 private:
  QueryTrace* trace_;
  const char* name_;
  const char* arg_name_;
  std::uint64_t arg_;
  std::uint64_t start_ns_ = 0;
  std::uint32_t span_id_ = 0;
  std::uint32_t parent_id_ = 0;
};

}  // namespace eardec::obs
