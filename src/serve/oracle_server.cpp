#include "serve/oracle_server.hpp"

#include <atomic>
#include <mutex>
#include <thread>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace eardec::serve {

struct OracleServer::Impl {
  ServeOptions options;

  /// Guards the published-snapshot pointer: snapshot() copies it under the
  /// lock, publish() swaps it. The query paths take it only to refresh a
  /// stale reader slot, once per reader thread per epoch. snapshot()
  /// callers still write the lock word on every call, so it starts its own
  /// cache line.
  alignas(64) mutable std::mutex snapshot_mutex;
  std::shared_ptr<const OracleSnapshot> snapshot;

  /// Epoch of `snapshot`. Written only by publish(); the query paths load
  /// it to tell whether their reader slot is stale, so a query writes no
  /// line that other readers read.
  alignas(64) std::atomic<std::uint64_t> published_epoch{0};

  /// One reader's pin of the published snapshot, indexed by
  /// obs::thread_slot(). A query locks only its own slot and answers under
  /// that lock, so publish() can drop a stale pin only between queries.
  /// Threads whose slots collide modulo kReaderSlots share the lock, which
  /// costs contention, not correctness.
  struct alignas(64) ReaderSlot {
    std::mutex mutex;
    std::shared_ptr<const OracleSnapshot> snap;
    /// Epoch of `snap`, 0 while empty. Written under `mutex`; publish()
    /// reads it without the lock to see that a reader refreshed itself.
    std::atomic<std::uint64_t> epoch{0};
  };
  static constexpr std::size_t kReaderSlots = obs::kShards;
  mutable ReaderSlot readers[kReaderSlots];

  /// Serializes rebuilds; also owns the epoch sequence.
  std::mutex rebuild_mutex;
  std::uint64_t last_epoch = 0;

  // Metric instruments are leaked-singleton references: resolve them once.
  obs::Histogram& scalar_latency;
  obs::Histogram& batch_query_latency;
  obs::Histogram& batch_latency;
  obs::Counter& queries_total;
  obs::Counter& batches_total;
  obs::Gauge& epoch_gauge;

  explicit Impl(ServeOptions opts)
      : options(opts),
        scalar_latency(obs::MetricsRegistry::instance().histogram(
            "oracle.query.scalar.latency_ns")),
        batch_query_latency(obs::MetricsRegistry::instance().histogram(
            "oracle.query.batch.latency_ns")),
        batch_latency(obs::MetricsRegistry::instance().histogram(
            "oracle.serve.batch.latency_ns")),
        queries_total(
            obs::MetricsRegistry::instance().counter("oracle.serve.queries")),
        batches_total(
            obs::MetricsRegistry::instance().counter("oracle.serve.batches")),
        epoch_gauge(
            obs::MetricsRegistry::instance().gauge("oracle.serve.epoch")) {}

  /// Swaps in `next`, then waits until no reader slot pins an older epoch:
  /// each slot is refreshed by its own reader's next query, or emptied
  /// here once its reader is idle. The walk never queues on a slot
  /// lock: a busy reader re-takes its lock back to back, and behind the
  /// unfair mutex a queued walk once waited 230 ms in a probe. The old
  /// snapshot is held until the walk ends, so it is freed here, outside
  /// every lock, unless a snapshot() caller still holds it.
  void publish(std::shared_ptr<const OracleSnapshot> next) {
    const std::uint64_t epoch = next->epoch();
    {
      const std::lock_guard lock(snapshot_mutex);
      snapshot.swap(next);
      published_epoch.store(epoch, std::memory_order_release);
    }
    for (ReaderSlot& slot : readers) {
      std::shared_ptr<const OracleSnapshot> stale;
      // An empty slot is checked under its lock too: its reader may be
      // between pinning the old snapshot and recording that epoch.
      while (slot.epoch.load(std::memory_order_acquire) != epoch) {
        const std::unique_lock lock(slot.mutex, std::try_to_lock);
        if (lock.owns_lock()) {
          if (slot.epoch.load(std::memory_order_relaxed) != epoch) {
            stale = std::move(slot.snap);
            slot.epoch.store(0, std::memory_order_relaxed);
          }
          break;
        }
        std::this_thread::yield();
      }
    }
    next.reset();
    epoch_gauge.set(static_cast<double>(epoch));
  }

  [[nodiscard]] std::shared_ptr<const OracleSnapshot> pin() const {
    std::lock_guard<std::mutex> lock(snapshot_mutex);
    return snapshot;
  }

  /// Runs fn(snapshot) on the published snapshot through the calling
  /// thread's reader slot, refreshing the slot first if it is stale.
  template <typename Fn>
  decltype(auto) with_pinned(Fn&& fn) const {
    ReaderSlot& slot = readers[obs::thread_slot() % kReaderSlots];
    const std::lock_guard lock(slot.mutex);
    if (slot.epoch.load(std::memory_order_relaxed) !=
        published_epoch.load(std::memory_order_acquire)) {
      slot.snap = pin();
      slot.epoch.store(slot.snap->epoch(), std::memory_order_release);
    }
    return fn(*slot.snap);
  }
};

OracleServer::OracleServer(graph::Graph g, ServeOptions options)
    : impl_(std::make_unique<Impl>(options)) {
  std::lock_guard<std::mutex> rebuild(impl_->rebuild_mutex);
  const std::uint64_t epoch = ++impl_->last_epoch;
  impl_->publish(std::make_shared<const OracleSnapshot>(
      std::move(g), impl_->options.build, epoch));
}

OracleServer::~OracleServer() = default;

std::shared_ptr<const OracleSnapshot> OracleServer::snapshot() const {
  return impl_->pin();
}

std::uint64_t OracleServer::epoch() const noexcept {
  return impl_->published_epoch.load(std::memory_order_acquire);
}

void OracleServer::rebuild(graph::Graph g) {
  std::lock_guard<std::mutex> rebuild(impl_->rebuild_mutex);
  const std::uint64_t epoch = impl_->last_epoch + 1;
  // Build off to the side — readers keep answering on the old snapshot
  // for the whole (expensive) construction.
  auto next = std::make_shared<const OracleSnapshot>(
      std::move(g), impl_->options.build, epoch);
  impl_->last_epoch = epoch;
  impl_->publish(std::move(next));
}

const ServeOptions& OracleServer::options() const noexcept {
  return impl_->options;
}

Weight OracleServer::query(VertexId s, VertexId t) const {
  return impl_->with_pinned(
      [&](const OracleSnapshot& snap) { return query_on(snap, s, t); });
}

Weight OracleServer::query_on(const OracleSnapshot& snap, VertexId s,
                              VertexId t) const {
  const std::uint64_t entry_ns = obs::Tracer::now_ns();
  const Weight d = snap.query(s, t);
  const std::uint64_t end_ns = obs::Tracer::now_ns();
  impl_->scalar_latency.record(end_ns - entry_ns);
  impl_->queries_total.add(1);
  obs::Tracer::instance().record_span("oracle.scalar", entry_ns,
                                      end_ns - entry_ns, "queries", 1);
  return d;
}

std::vector<Weight> OracleServer::query_batch(
    std::span<const Query> queries) const {
  return impl_->with_pinned([&](const OracleSnapshot& snap) {
    return query_batch_on(snap, queries);
  });
}

std::vector<Weight> OracleServer::query_batch_on(
    const OracleSnapshot& snap, std::span<const Query> queries) const {
  // Phase III answers every pair in O(1) from the compact tables, so the
  // batch is the scalar closed form in a loop on one pinned snapshot —
  // bit-identical to the scalar path by construction.
  const std::uint64_t entry_ns = obs::Tracer::now_ns();
  std::vector<Weight> out;
  out.reserve(queries.size());
  for (const Query& q : queries) out.push_back(snap.query(q.s, q.t));
  const std::uint64_t end_ns = obs::Tracer::now_ns();

  const std::uint64_t n = queries.size();
  const std::uint64_t ns = end_ns - entry_ns;
  impl_->batch_latency.record(ns);
  impl_->batches_total.add(1);
  impl_->queries_total.add(n);
  impl_->batch_query_latency.record_n(n > 0 ? ns / n : 0, n);
  obs::Tracer::instance().record_span("oracle.batch", entry_ns, ns, "queries",
                                      n);
  return out;
}

}  // namespace eardec::serve
