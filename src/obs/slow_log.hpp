// Latency attribution and the tail-sampled slow-query exemplar store
// (docs/observability.md, "Per-query tracing").
//
// The request owner (the HTTP query routes, bench_oracle_serve) reads the
// clock four times per request — arrival, oracle call, oracle return,
// reply done — and hands them to record_served(), which splits the request
// into three contiguous components, records them into the
// oracle.serve.attr.<name>_ns histograms, and offers the request to the
// SlowLog. In-process OracleServer::query() callers record none of this.
//
// Aggregate histograms say what the p99 is; exemplars say why. The SlowLog
// is a fixed-size lock-free ring of per-request attribution records,
// retained for requests whose total latency crosses a dynamic
// p99-tracking threshold, plus 1-in-N uniform samples so fast requests
// stay represented. Slots are claimed with an atomic cursor and guarded by
// per-slot seqlocks, so retention never blocks the serving path and
// dump_json() (the `GET /debug/slow` route and `eardec_cli serve
// --slow-log`) skips slots caught mid-write.
//
// The p99 threshold is self-calibrating: observe() feeds a log2 latency
// histogram and every 256 observations recomputes the 0.99 quantile's
// bucket lower bound into a cached atomic. Until 512 queries have been
// observed the threshold is +inf (only uniform samples retain), so cold
// caches do not flood the ring.
//
// Under EARDEC_ENABLE_TRACING=OFF the store compiles to permanent-disarmed
// stubs: arm() is a no-op and observe() always answers No. The attribution
// histograms are still recorded.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace eardec::obs {

/// Latency attribution components every served request decomposes into,
/// exported as oracle.serve.attr.<name>_ns histograms. They are contiguous,
/// so their per-request sum equals done - arrival:
///   queue_wait  arrival -> oracle call (parse, snapshot pin, backlog)
///   kernel      the oracle call
///   write       oracle return -> reply serialized / handed off
inline constexpr std::size_t kNumAttrComponents = 3;
inline constexpr const char* kAttrComponentNames[kNumAttrComponents] = {
    "queue_wait", "kernel", "write",
};

/// One served request, as its owner saw it on the Tracer::now_ns timeline.
/// The timestamps must be ordered: arrival_ns <= call_ns <= ret_ns <=
/// done_ns.
struct ServedRequest {
  std::uint64_t arrival_ns = 0;  ///< receipt, or the scheduled arrival
  std::uint64_t call_ns = 0;     ///< just before the oracle call
  std::uint64_t ret_ns = 0;      ///< just after it returned
  std::uint64_t done_ns = 0;     ///< reply ready
  std::uint32_t count = 1;       ///< queries answered (1 = scalar path)
  std::uint32_t s = 0;           ///< a representative query pair
  std::uint32_t t = 0;
  std::uint64_t epoch = 0;       ///< snapshot epoch the answer came from
};

/// Records the three attribution components of `req`, each once per
/// answered query (so their means stay per-query comparable across scalar
/// and batch requests), and offers the request to SlowLog::instance() when
/// it is armed. Thread-safe.
void record_served(const ServedRequest& req) noexcept;

class SlowLog {
 public:
  /// Exemplar slots retained (newest wins once the ring wraps).
  static constexpr std::size_t kRingSlots = 64;
  /// Queries observed before the p99 threshold activates.
  static constexpr std::uint64_t kWarmupObservations = 512;

  /// The process-wide store. Never destroyed (like Tracer).
  static SlowLog& instance();

  /// Retention verdict for one answered query.
  enum class Keep : std::uint8_t {
    kNo = 0,
    kSlowTail = 1,  ///< total latency >= dynamic p99 threshold
    kUniform = 2,   ///< 1-in-N uniform sample
  };

  /// Enables retention: observe() starts issuing Keep verdicts.
  /// `uniform_stride` keeps every Nth observed query regardless of latency
  /// (0 = tail-only).
  /// No-op when tracing is compiled out.
  void arm(std::uint64_t uniform_stride = 1024) noexcept;
  void disarm() noexcept;
  [[nodiscard]] bool armed() const noexcept;

  /// Feeds the p99 tracker with one query's total latency and returns the
  /// retention verdict. Thread-safe, lock-free, a few relaxed atomics.
  [[nodiscard]] Keep observe(std::uint64_t total_ns) noexcept;

  /// Copies one request's exemplar (timestamps reduced to its total and
  /// attribution components) into the ring.
  void retain(const ServedRequest& req, Keep reason) noexcept;

  /// JSON dump of the ring (the `/debug/slow` response body): threshold,
  /// counts, and every stable exemplar, newest last.
  [[nodiscard]] std::string dump_json() const;

  [[nodiscard]] std::size_t retained() const noexcept;
  [[nodiscard]] std::uint64_t observed() const noexcept;
  /// Current slow-tail threshold (UINT64_MAX while warming up / disarmed).
  [[nodiscard]] std::uint64_t threshold_ns() const noexcept;

  /// Drops all exemplars and resets the p99 tracker (keeps armed state).
  void clear() noexcept;

  struct Impl;  ///< opaque; defined in slow_log.cpp

 private:
  SlowLog();
  ~SlowLog() = delete;  // leaked singleton

  Impl* impl_;
};

}  // namespace eardec::obs
