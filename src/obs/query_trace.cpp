#include "obs/query_trace.hpp"

#include <algorithm>

#include "obs/slow_log.hpp"

namespace eardec::obs {
namespace {

std::atomic<std::uint64_t> g_next_query_id{1};

/// Thread-local context: which query this thread is currently working for,
/// and the span id new spans attach under. Plain (non-atomic) members —
/// each thread only reads/writes its own slot.
struct TlsContext {
  QueryTrace* trace = nullptr;
  std::uint32_t parent = 0;
};

thread_local TlsContext t_query_ctx;

}  // namespace

std::uint64_t next_query_id() noexcept {
  return g_next_query_id.fetch_add(1, std::memory_order_relaxed);
}

QueryTrace::QueryTrace(std::uint64_t arrival_ns_in)
    : arrival_ns(arrival_ns_in),
      query_id_(next_query_id()),
      collect_spans_(SlowLog::instance().armed()) {}

void QueryTrace::emit(std::uint32_t span_id, std::uint32_t parent_id,
                      const char* name, std::uint64_t start_ns,
                      std::uint64_t dur_ns, const char* arg_name,
                      std::uint64_t arg) noexcept {
  Tracer::instance().record_span_linked(name, start_ns, dur_ns, query_id_,
                                        span_id, parent_id, arg_name, arg);
  if (!collect_spans_) return;
  const std::uint32_t idx =
      collected_.fetch_add(1, std::memory_order_relaxed);
  if (idx >= kMaxSpans) return;  // counted, not retained
  spans_[idx] = {name, start_ns, dur_ns, span_id, parent_id};
}

std::uint32_t QueryTrace::span_count() const noexcept {
  return std::min<std::uint32_t>(
      collected_.load(std::memory_order_relaxed),
      static_cast<std::uint32_t>(kMaxSpans));
}

QueryTrace* current_query_trace() noexcept { return t_query_ctx.trace; }

std::uint32_t current_parent_span() noexcept { return t_query_ctx.parent; }

QueryTraceScope::QueryTraceScope(QueryTrace* trace) noexcept
    : prev_trace_(t_query_ctx.trace), prev_parent_(t_query_ctx.parent) {
  t_query_ctx.trace = trace;
  t_query_ctx.parent = 0;
}

QueryTraceScope::~QueryTraceScope() {
  t_query_ctx.trace = prev_trace_;
  t_query_ctx.parent = prev_parent_;
}

QuerySpan::QuerySpan(const char* name, const char* arg_name,
                     std::uint64_t arg) noexcept
    : trace_(t_query_ctx.trace), name_(name), arg_name_(arg_name), arg_(arg) {
  if (trace_ == nullptr) return;
  span_id_ = trace_->allocate_span();
  parent_id_ = t_query_ctx.parent;
  t_query_ctx.parent = span_id_;
  start_ns_ = Tracer::now_ns();
}

QuerySpan::~QuerySpan() {
  if (trace_ == nullptr) return;
  t_query_ctx.parent = parent_id_;
  trace_->emit(span_id_, parent_id_, name_, start_ns_,
               Tracer::now_ns() - start_ns_, arg_name_, arg_);
}

}  // namespace eardec::obs
