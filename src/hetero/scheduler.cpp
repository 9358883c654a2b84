#include "hetero/scheduler.hpp"

#include <algorithm>
#include <cstdio>
#include <thread>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace eardec::hetero {
namespace {

/// Guided self-scheduling claim size: a fixed share of the remaining work
/// per participant, clamped to [min_batch, max_batch]. Long queue -> big
/// claims, few CAS rounds; short queue -> minimum claims, tight balance.
std::size_t guided_batch(std::size_t remaining, unsigned participants,
                         std::size_t min_batch, std::size_t max_batch) {
  const std::size_t share =
      remaining / (2 * std::max(1u, participants));
  return std::clamp(share, std::max<std::size_t>(1, min_batch),
                    std::max<std::size_t>(1, max_batch));
}

/// Labels the calling worker's trace lane ("cpu-worker-3", "device-driver").
void name_trace_lane(const char* side, unsigned worker, bool numbered) {
  obs::Tracer& tracer = obs::Tracer::instance();
  if (!tracer.enabled()) return;
  if (numbered) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%s-%u", side, worker);
    tracer.set_current_thread_name(buf);
  } else {
    tracer.set_current_thread_name(side);
  }
}

/// One worker's drain loop; returns its counters. Each executed batch is
/// one span on the worker's lane; busy time is read off the same obs clock
/// the spans use, so SchedulerStats and the trace always agree.
WorkerStats drain(WorkQueue& queue, bool heavy, unsigned participants,
                  std::size_t min_batch, std::size_t max_batch,
                  const UnitFn& fn, unsigned worker) {
  static obs::Histogram& batch_sizes =
      obs::MetricsRegistry::instance().histogram(
          "hetero.scheduler.batch_units");
  obs::Tracer& tracer = obs::Tracer::instance();
  const char* span_name = heavy ? "hetero.device_batch" : "hetero.cpu_batch";
  WorkerStats ws;
  for (;;) {
    const std::size_t batch =
        guided_batch(queue.remaining(), participants, min_batch, max_batch);
    const auto units = heavy ? queue.take_heavy(batch)
                             : queue.take_light(batch);
    if (units.empty()) return ws;
    batch_sizes.record(units.size());
    // Explicit span (rather than EARDEC_TRACE_SCOPE) so it keeps the exact
    // t0/t1 the busy-seconds bookkeeping below uses.
    const std::uint64_t t0 = obs::Tracer::now_ns();
    for (const WorkUnit& unit : units) fn(unit, worker);
    const std::uint64_t t1 = obs::Tracer::now_ns();
    tracer.record_span(span_name, t0, t1 - t0, "units", units.size());
    ws.busy_seconds += static_cast<double>(t1 - t0) * 1e-9;
    ws.units += units.size();
    ++ws.claims;
  }
}

/// Mirrors a finished drain into the process-wide metrics registry, so
/// `--metrics` dumps carry the scheduler counters without any caller
/// threading SchedulerStats around.
void publish_stats(const SchedulerStats& stats) {
  auto& reg = obs::MetricsRegistry::instance();
  static obs::Counter& cpu_units = reg.counter("hetero.scheduler.cpu_units");
  static obs::Counter& device_units =
      reg.counter("hetero.scheduler.device_units");
  static obs::Counter& cpu_claims = reg.counter("hetero.scheduler.cpu_claims");
  static obs::Counter& device_claims =
      reg.counter("hetero.scheduler.device_claims");
  static obs::Gauge& elapsed = reg.gauge("hetero.scheduler.elapsed_s");
  static obs::Gauge& utilization = reg.gauge("hetero.scheduler.utilization");
  cpu_units.add(stats.cpu_units);
  device_units.add(stats.device_units);
  cpu_claims.add(stats.cpu_claims);
  device_claims.add(stats.device_claims);
  elapsed.set(stats.elapsed_seconds);
  utilization.set(stats.utilization());
}

}  // namespace

double SchedulerStats::utilization() const {
  if (elapsed_seconds <= 0) return 0;
  double busy = device_worker.busy_seconds;
  std::size_t workers = device_worker.units > 0 || device_worker.claims > 0
                            ? 1
                            : 0;
  for (const WorkerStats& w : cpu_workers) {
    busy += w.busy_seconds;
    ++workers;
  }
  if (workers == 0) return 0;
  return busy / (elapsed_seconds * static_cast<double>(workers));
}

void SchedulerStats::accumulate(const SchedulerStats& other,
                                RunOverlap overlap) {
  cpu_units += other.cpu_units;
  device_units += other.device_units;
  cpu_claims += other.cpu_claims;
  device_claims += other.device_claims;
  queue_contention += other.queue_contention;
  if (overlap == RunOverlap::Sequential) {
    elapsed_seconds += other.elapsed_seconds;
  } else {
    elapsed_seconds = std::max(elapsed_seconds, other.elapsed_seconds);
  }
  if (cpu_workers.size() < other.cpu_workers.size()) {
    cpu_workers.resize(other.cpu_workers.size());
  }
  for (std::size_t i = 0; i < other.cpu_workers.size(); ++i) {
    cpu_workers[i].units += other.cpu_workers[i].units;
    cpu_workers[i].claims += other.cpu_workers[i].claims;
    cpu_workers[i].busy_seconds += other.cpu_workers[i].busy_seconds;
  }
  device_worker.units += other.device_worker.units;
  device_worker.claims += other.device_worker.claims;
  device_worker.busy_seconds += other.device_worker.busy_seconds;
}

SchedulerStats run_heterogeneous(WorkQueue& queue,
                                 const SchedulerConfig& config,
                                 const UnitFn& cpu_fn,
                                 const UnitFn& device_fn) {
  SchedulerStats stats;
  const unsigned cpu_threads = std::max(1u, config.cpu_threads);
  stats.cpu_workers.resize(cpu_threads);
  const std::uint64_t contention_before = queue.contention_events();
  const std::uint64_t t0 = obs::Tracer::now_ns();
  {
    EARDEC_TRACE_SCOPE("hetero.drain", "units", queue.remaining());
    std::vector<std::jthread> threads;
    threads.reserve(cpu_threads + 1);

    // Device driver: big units from the heavy end, claimed at exactly the
    // configured kernel-launch granularity. No guided growth on this side:
    // claims never migrate back, so letting the single heavy claimant
    // inflate its batch would pre-commit the heavy half of the queue before
    // the CPU/device throughput ratio is known — the static split the
    // dynamic queue exists to avoid.
    threads.emplace_back([&] {
      name_trace_lane("device-driver", 0, /*numbered=*/false);
      stats.device_worker = drain(queue, /*heavy=*/true, 1,
                                  config.device_batch, config.device_batch,
                                  device_fn, 0);
    });

    // CPU workers: small units from the light end.
    for (unsigned t = 0; t < cpu_threads; ++t) {
      threads.emplace_back([&, t] {
        name_trace_lane("cpu-worker", t, /*numbered=*/true);
        stats.cpu_workers[t] = drain(queue, /*heavy=*/false, cpu_threads,
                                     config.cpu_batch, config.max_batch,
                                     cpu_fn, t);
      });
    }
  }  // jthreads join here

  stats.elapsed_seconds =
      static_cast<double>(obs::Tracer::now_ns() - t0) * 1e-9;
  for (const WorkerStats& w : stats.cpu_workers) {
    stats.cpu_units += w.units;
    stats.cpu_claims += w.claims;
  }
  stats.device_units = stats.device_worker.units;
  stats.device_claims = stats.device_worker.claims;
  stats.queue_contention = queue.contention_events() - contention_before;
  publish_stats(stats);
  return stats;
}

SchedulerStats run_cpu_only(WorkQueue& queue, unsigned threads,
                            const UnitFn& fn, std::size_t cpu_batch) {
  SchedulerStats stats;
  const unsigned count = std::max(1u, threads);
  stats.cpu_workers.resize(count);
  const std::uint64_t contention_before = queue.contention_events();
  const std::uint64_t t0 = obs::Tracer::now_ns();
  {
    EARDEC_TRACE_SCOPE("hetero.drain", "units", queue.remaining());
    std::vector<std::jthread> workers;
    workers.reserve(count);
    for (unsigned t = 0; t < count; ++t) {
      workers.emplace_back([&, t] {
        name_trace_lane("cpu-worker", t, /*numbered=*/true);
        stats.cpu_workers[t] = drain(queue, /*heavy=*/false, count, cpu_batch,
                                     SchedulerConfig{}.max_batch, fn, t);
      });
    }
  }
  stats.elapsed_seconds =
      static_cast<double>(obs::Tracer::now_ns() - t0) * 1e-9;
  for (const WorkerStats& w : stats.cpu_workers) {
    stats.cpu_units += w.units;
    stats.cpu_claims += w.claims;
  }
  stats.queue_contention = queue.contention_events() - contention_before;
  publish_stats(stats);
  return stats;
}

}  // namespace eardec::hetero
