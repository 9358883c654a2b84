// Process-wide metrics registry — the counters half of the observability
// layer (trace.hpp holds the span tracer; see docs/observability.md).
//
// Three instrument kinds, all safe to update from any thread with relaxed
// atomics and no locks on the hot path:
//   * Counter   — monotonically increasing uint64 (CAS retries, units run);
//   * Gauge     — last-written double (phase seconds, utilization);
//   * Histogram — log2-bucketed uint64 distribution (claim batch sizes,
//                 queue depths): value v lands in bucket bit_width(v), so
//                 bucket i >= 1 covers [2^(i-1), 2^i - 1] and bucket 0 is
//                 exactly {0}.
//
// Counters and histograms are sharded: kShards cache-line-aligned copies,
// and a thread updates shard thread_slot() % kShards. Threads that run at
// the same time therefore write disjoint cache lines (up to kShards live
// threads), and the readers — value(), count(), quantile(), the exporters
// — sum the shards. Gauges hold one last-written value and stay unsharded.
//
// Instruments are created on first lookup and never move or disappear, so
// hot paths cache the returned reference in a function-local static and
// pay one map lookup per process:
//
//   static obs::Counter& retries =
//       obs::MetricsRegistry::instance().counter("hetero.queue.cas_retries");
//   retries.add(n);
//
// Exports: a flat JSON object (write_json), wired to `eardec_cli --metrics
// <file>` and the EARDEC_METRICS env var of the bench binaries, and the
// Prometheus text the stats server's /metrics serves (write_prometheus).
#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

namespace eardec::obs {

/// Shards per Counter and Histogram.
inline constexpr std::size_t kShards = 16;

namespace detail {
inline constexpr std::size_t kNoSlot = ~std::size_t{0};
inline thread_local std::size_t t_thread_slot = kNoSlot;
/// Claims the lowest free slot for the calling thread and arranges its
/// release at thread exit.
std::size_t claim_thread_slot() noexcept;
}  // namespace detail

/// Small dense id of the calling thread: the lowest id no other live thread
/// holds, claimed on the first call and handed back when the thread exits.
/// Ids stay small however many short-lived threads (build pools) came and
/// went, so `thread_slot() % n` spreads the threads that run together over
/// distinct slots.
[[nodiscard]] inline std::size_t thread_slot() noexcept {
  const std::size_t slot = detail::t_thread_slot;
  return slot != detail::kNoSlot ? slot : detail::claim_thread_slot();
}

class Counter {
 public:
  void add(std::uint64_t delta = 1) noexcept {
    shards_[thread_slot() % kShards].value.fetch_add(
        delta, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const Shard& s : shards_) {
      total += s.value.load(std::memory_order_relaxed);
    }
    return total;
  }
  void reset() noexcept {
    for (Shard& s : shards_) s.value.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> value{0};
  };
  Shard shards_[kShards];
};

class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  /// Atomic increment (CAS loop): the up/down variant set() cannot express,
  /// e.g. live-worker counts maintained from concurrent pool lifecycles.
  void add(double delta) noexcept {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

class Histogram {
 public:
  /// Bucket 0 holds zeros; bucket i in [1, 64] holds [2^(i-1), 2^i - 1].
  static constexpr std::size_t kNumBuckets = 65;

  [[nodiscard]] static constexpr std::size_t bucket_index(
      std::uint64_t v) noexcept {
    return v == 0 ? 0 : static_cast<std::size_t>(std::bit_width(v));
  }
  /// Smallest value the bucket admits.
  [[nodiscard]] static constexpr std::uint64_t bucket_min(
      std::size_t i) noexcept {
    return i == 0 ? 0 : std::uint64_t{1} << (i - 1);
  }
  /// Largest value the bucket admits (inclusive).
  [[nodiscard]] static constexpr std::uint64_t bucket_max(
      std::size_t i) noexcept {
    if (i == 0) return 0;
    if (i >= 64) return ~std::uint64_t{0};
    return (std::uint64_t{1} << i) - 1;
  }

  void record(std::uint64_t v) noexcept { record_n(v, 1); }

  /// Records the same value n times in two atomic ops instead of 2n. The
  /// serve layer uses it for batch attribution: a batched query's component
  /// durations are recorded once per query in the batch, so histogram means
  /// stay per-query comparable with the scalar path.
  void record_n(std::uint64_t v, std::uint64_t n) noexcept {
    if (n == 0) return;
    Shard& s = shards_[thread_slot() % kShards];
    s.buckets[bucket_index(v)].fetch_add(n, std::memory_order_relaxed);
    s.sum.fetch_add(v * n, std::memory_order_relaxed);
  }

  /// Samples recorded: the sum of every bucket count.
  [[nodiscard]] std::uint64_t count() const noexcept;
  [[nodiscard]] std::uint64_t sum() const noexcept;
  [[nodiscard]] std::uint64_t bucket_count(std::size_t i) const noexcept;

  /// Estimated q-quantile (q clamped to [0, 1]) by linear interpolation
  /// inside the owning log2 bucket — log-linear interpolation overall.
  /// Returns 0 for an empty histogram. The estimate always lands in the
  /// same bucket as the true sample quantile, so it is within a factor of
  /// two of it: for a true quantile x in bucket i, both values sit in
  /// [2^(i-1), 2^i - 1] and |estimate - x| < 2^(i-1) <= x (see
  /// docs/observability.md for the full bound). Safe to call concurrently
  /// with record(); concurrent updates make the answer approximate, not
  /// wrong.
  [[nodiscard]] double quantile(double q) const noexcept;

  void reset() noexcept;

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> sum{0};
    std::atomic<std::uint64_t> buckets[kNumBuckets]{};
  };
  Shard shards_[kShards];
};

class MetricsRegistry {
 public:
  /// The process-wide registry. Never destroyed (safe from static and
  /// thread-local destructors).
  static MetricsRegistry& instance();

  /// Finds or creates the named instrument. References stay valid for the
  /// life of the process.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Current value of a named gauge, or 0 when it does not exist (reads
  /// never create instruments).
  [[nodiscard]] double gauge_value(std::string_view name) const;

  /// Zeroes every instrument; names and handles survive.
  void reset_values();

  /// Flat JSON object: {"counters":{...},"gauges":{...},"histograms":{...}}.
  /// Histograms carry count/sum/p50/p90/p99 plus the non-empty buckets.
  void write_json(std::ostream& out) const;
  /// Prometheus text exposition format (version 0.0.4): every instrument,
  /// names mangled to `eardec_<name>` with non-[a-zA-Z0-9_] characters
  /// replaced by '_'. Histograms emit cumulative `_bucket{le="..."}`
  /// series plus `_sum`/`_count` and derived `_p50`/`_p90`/`_p99` gauges.
  /// This is what the obs::StatsServer `/metrics` endpoint serves.
  void write_prometheus(std::ostream& out) const;
  /// write_json to a file. False if the file cannot be opened.
  bool write_file(const std::string& path) const;

 private:
  MetricsRegistry();
  ~MetricsRegistry() = delete;  // leaked singleton

  struct Impl;
  Impl* impl_;
};

}  // namespace eardec::obs
