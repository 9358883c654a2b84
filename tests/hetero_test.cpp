// Tests for the heterogeneous runtime: thread pool, double-ended work
// queue, software device, and scheduler. The key invariant throughout:
// every unit of work executes exactly once, under any interleaving.
#include <atomic>
#include <chrono>
#include <thread>
#include <numeric>
#include <set>

#include <gtest/gtest.h>

#include "hetero/device.hpp"
#include "hetero/scheduler.hpp"
#include "hetero/thread_pool.hpp"
#include "hetero/work_queue.hpp"

namespace eardec::hetero {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
  std::atomic<int> count{0};
  for (int i = 0; i < 50; ++i) {
    pool.submit([&count] { count.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, hits.size(),
                    [&hits](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForWithChunking) {
  ThreadPool pool(2);
  std::atomic<std::uint64_t> sum{0};
  pool.parallel_for(
      10, 200, [&sum](std::size_t i) { sum.fetch_add(i); }, 16);
  EXPECT_EQ(sum.load(), (10ull + 199) * 190 / 2);
}

TEST(ThreadPool, ParallelForEmptyRangeIsNoOp) {
  ThreadPool pool(2);
  bool touched = false;
  pool.parallel_for(5, 5, [&touched](std::size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ThreadPool, ReusableAcrossManyParallelFors) {
  ThreadPool pool(3);
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> count{0};
    pool.parallel_for(0, 100, [&count](std::size_t) { count.fetch_add(1); });
    ASSERT_EQ(count.load(), 100);
  }
}

TEST(ThreadPool, SlotsCoverRangeWithBoundedSlotIndices) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(500);
  std::atomic<bool> slot_ok{true};
  pool.parallel_for_slots(0, hits.size(),
                          [&](std::size_t i, unsigned slot) {
                            if (slot >= pool.max_slots()) slot_ok = false;
                            hits[i].fetch_add(1);
                          });
  EXPECT_TRUE(slot_ok.load());
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SlotsAreDistinctPerConcurrentStream) {
  // Two streams in the same claimed slot at once would make per-slot
  // scratch unsafe — the exact contract the batched SSSP paths rely on.
  // Track concurrent occupancy per slot.
  ThreadPool pool(4);
  std::vector<std::atomic<int>> occupancy(pool.max_slots());
  std::atomic<bool> exclusive{true};
  pool.parallel_for_slots(0, 300, [&](std::size_t, unsigned slot) {
    if (occupancy[slot].fetch_add(1) != 0) exclusive = false;
    std::this_thread::yield();
    occupancy[slot].fetch_sub(1);
  });
  EXPECT_TRUE(exclusive.load());
}

TEST(ThreadPool, SlotsEmptyRangeIsNoOp) {
  ThreadPool pool(2);
  bool touched = false;
  pool.parallel_for_slots(7, 7,
                          [&touched](std::size_t, unsigned) { touched = true; });
  pool.parallel_for_slots(9, 3,  // inverted range: begin > end
                          [&touched](std::size_t, unsigned) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ThreadPool, SlotsSingleItemRunsOnCallerSlot) {
  // One item never needs a helper wakeup; the calling thread must claim it
  // under a valid slot.
  ThreadPool pool(3);
  std::atomic<int> runs{0};
  unsigned seen_slot = ~0u;
  pool.parallel_for_slots(41, 42, [&](std::size_t i, unsigned slot) {
    EXPECT_EQ(i, 41u);
    seen_slot = slot;
    runs.fetch_add(1);
  });
  EXPECT_EQ(runs.load(), 1);
  EXPECT_LT(seen_slot, pool.max_slots());
}

TEST(ThreadPool, SlotsMoreSlotsThanItems) {
  // Pool larger than the range: most helpers find nothing to claim, every
  // index still runs exactly once.
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(3);
  pool.parallel_for_slots(0, hits.size(), [&](std::size_t i, unsigned slot) {
    EXPECT_LT(slot, pool.max_slots());
    hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SlotsChunkLargerThanRange) {
  // chunk > items degenerates to one chunk on one stream; chunk == 0 is
  // clamped to 1 rather than dividing by zero.
  ThreadPool pool(2);
  for (const std::size_t chunk : {std::size_t{64}, std::size_t{0}}) {
    std::atomic<std::uint64_t> sum{0};
    pool.parallel_for_slots(
        1, 11, [&sum](std::size_t i, unsigned) { sum.fetch_add(i); }, chunk);
    EXPECT_EQ(sum.load(), 55u) << "chunk=" << chunk;
  }
}

TEST(ThreadPool, SlotsZeroHelperPoolStillCompletes) {
  // ThreadPool(0) resolves to hardware_concurrency (min 1) workers — the
  // single-core CI box gets exactly one helper. Either way the call blocks
  // until the whole range ran, with in-bounds slots.
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
  std::vector<std::atomic<int>> hits(64);
  pool.parallel_for_slots(0, hits.size(), [&](std::size_t i, unsigned slot) {
    EXPECT_LT(slot, pool.max_slots());
    hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(WorkQueue, OrdersHeaviestFirst) {
  WorkQueue q({{0, 5}, {1, 50}, {2, 20}, {3, 1}});
  const auto heavy = q.take_heavy(2);
  ASSERT_EQ(heavy.size(), 2u);
  EXPECT_EQ(heavy[0].id, 1u);
  EXPECT_EQ(heavy[1].id, 2u);
  // The light batch is the two lightest units (spans keep the internal
  // heaviest-first order, so the batch's lightest unit comes last).
  const auto light = q.take_light(2);
  ASSERT_EQ(light.size(), 2u);
  EXPECT_EQ(light[0].id, 0u);
  EXPECT_EQ(light[1].id, 3u);
  EXPECT_TRUE(q.empty());
}

TEST(WorkQueue, SingleThreadedDrainIsContentionFree) {
  WorkQueue q({{0, 5}, {1, 50}, {2, 20}, {3, 1}});
  while (!q.empty()) {
    (void)q.take_heavy(1);
    (void)q.take_light(1);
  }
  EXPECT_EQ(q.contention_events(), 0u);
}

TEST(WorkQueue, TwoEndsNeverOverlap) {
  WorkQueue q([] {
    std::vector<WorkUnit> units;
    for (std::uint32_t i = 0; i < 101; ++i) units.push_back({i, i});
    return units;
  }());
  std::set<std::uint32_t> seen;
  while (!q.empty()) {
    for (const auto& u : q.take_heavy(3)) {
      EXPECT_TRUE(seen.insert(u.id).second);
    }
    for (const auto& u : q.take_light(2)) {
      EXPECT_TRUE(seen.insert(u.id).second);
    }
  }
  EXPECT_EQ(seen.size(), 101u);
  EXPECT_EQ(q.remaining(), 0u);
}

TEST(WorkQueue, ConcurrentDrainIsExactlyOnce) {
  for (int round = 0; round < 5; ++round) {
    constexpr std::uint32_t kUnits = 2000;
    WorkQueue q([] {
      std::vector<WorkUnit> units;
      for (std::uint32_t i = 0; i < kUnits; ++i) units.push_back({i, i % 37});
      return units;
    }());
    std::vector<std::atomic<int>> hits(kUnits);
    {
      std::vector<std::jthread> threads;
      for (int t = 0; t < 4; ++t) {
        const bool heavy = t % 2 == 0;
        threads.emplace_back([&q, &hits, heavy] {
          while (true) {
            const auto batch = heavy ? q.take_heavy(3) : q.take_light(2);
            if (batch.empty()) return;
            for (const auto& u : batch) hits[u.id].fetch_add(1);
          }
        });
      }
    }
    for (std::uint32_t i = 0; i < kUnits; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "unit " << i;
    }
  }
}

TEST(WorkQueue, EmptyQueueYieldsNothing) {
  WorkQueue q({});
  EXPECT_TRUE(q.empty());
  EXPECT_TRUE(q.take_heavy(4).empty());
  EXPECT_TRUE(q.take_light(4).empty());
}

TEST(Device, LaunchCoversGridExactlyOnce) {
  Device dev({.workers = 2, .warp_size = 8});
  std::vector<std::atomic<int>> lanes(500);
  dev.launch(lanes.size(), [&lanes](std::size_t i) { lanes[i].fetch_add(1); });
  for (const auto& l : lanes) EXPECT_EQ(l.load(), 1);
  EXPECT_EQ(dev.kernels_launched(), 1u);
}

TEST(Device, LaunchIsBulkSynchronous) {
  Device dev({.workers = 3, .warp_size = 4});
  std::atomic<int> done{0};
  dev.launch(200, [&done](std::size_t) { done.fetch_add(1); });
  // launch() returned, so every lane must have completed.
  EXPECT_EQ(done.load(), 200);
}

TEST(Device, ZeroGridLaunch) {
  Device dev;
  dev.launch(0, [](std::size_t) { FAIL() << "lane executed on empty grid"; });
  EXPECT_EQ(dev.kernels_launched(), 1u);
}

TEST(Device, SequentialKernelsCompose) {
  Device dev({.workers = 2});
  std::vector<std::atomic<int>> cells(64);
  for (int step = 0; step < 10; ++step) {
    dev.launch(cells.size(), [&cells](std::size_t i) { cells[i].fetch_add(1); });
  }
  for (const auto& c : cells) EXPECT_EQ(c.load(), 10);
  EXPECT_EQ(dev.kernels_launched(), 10u);
}

TEST(Scheduler, HeterogeneousDrainExactlyOnce) {
  constexpr std::uint32_t kUnits = 500;
  WorkQueue q([] {
    std::vector<WorkUnit> units;
    for (std::uint32_t i = 0; i < kUnits; ++i) units.push_back({i, i});
    return units;
  }());
  std::vector<std::atomic<int>> hits(kUnits);
  // A small per-unit delay forces genuine interleaving even on one core, so
  // the "both sides contribute" assertion below is deterministic in practice.
  const auto work = [&hits](const WorkUnit& u, unsigned) {
    hits[u.id].fetch_add(1);
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  };
  const auto stats = run_heterogeneous(
      q, {.cpu_threads = 3, .cpu_batch = 1, .device_batch = 8}, work, work);
  for (std::uint32_t i = 0; i < kUnits; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "unit " << i;
  }
  EXPECT_EQ(stats.cpu_units + stats.device_units, kUnits);
  // With hundreds of units and both sides pulling, each side gets some work.
  EXPECT_GT(stats.cpu_units, 0u);
  EXPECT_GT(stats.device_units, 0u);
  // Per-worker counters are consistent with the aggregates.
  ASSERT_EQ(stats.cpu_workers.size(), 3u);
  std::uint64_t worker_units = 0;
  for (const auto& w : stats.cpu_workers) worker_units += w.units;
  EXPECT_EQ(worker_units, stats.cpu_units);
  EXPECT_EQ(stats.device_worker.units, stats.device_units);
  EXPECT_GT(stats.cpu_claims, 0u);
  EXPECT_GT(stats.device_claims, 0u);
  EXPECT_GT(stats.elapsed_seconds, 0.0);
  EXPECT_GT(stats.utilization(), 0.0);
  EXPECT_LE(stats.utilization(), 1.0);
}

TEST(Scheduler, CpuOnlyDrain) {
  WorkQueue q({{0, 1}, {1, 2}, {2, 3}});
  std::atomic<int> count{0};
  const auto stats = run_cpu_only(q, 2, [&count](const WorkUnit&, unsigned) {
    count.fetch_add(1);
  });
  EXPECT_EQ(count.load(), 3);
  EXPECT_EQ(stats.cpu_units, 3u);
  EXPECT_EQ(stats.device_units, 0u);
  EXPECT_EQ(stats.device_worker.units, 0u);
}

TEST(Scheduler, CpuOnlyHonorsBatchSize) {
  // With one worker and a minimum batch of 4, a 12-unit drain needs at
  // most 3 claims (guided growth can only make claims larger).
  WorkQueue q([] {
    std::vector<WorkUnit> units;
    for (std::uint32_t i = 0; i < 12; ++i) units.push_back({i, i});
    return units;
  }());
  const auto stats =
      run_cpu_only(q, 1, [](const WorkUnit&, unsigned) {}, 4);
  EXPECT_EQ(stats.cpu_units, 12u);
  EXPECT_LE(stats.cpu_claims, 3u);
}

TEST(Scheduler, WorkerIndicesAreStableAndInRange) {
  WorkQueue q([] {
    std::vector<WorkUnit> units;
    for (std::uint32_t i = 0; i < 300; ++i) units.push_back({i, i});
    return units;
  }());
  constexpr unsigned kThreads = 4;
  std::atomic<bool> bad{false};
  const auto stats = run_cpu_only(
      q, kThreads,
      [&bad](const WorkUnit&, unsigned worker) {
        if (worker >= kThreads) bad.store(true);
        std::this_thread::sleep_for(std::chrono::microseconds(10));
      });
  EXPECT_FALSE(bad.load());
  EXPECT_EQ(stats.cpu_workers.size(), kThreads);
}

TEST(Scheduler, EmptyQueueReturnsImmediately) {
  WorkQueue q({});
  const auto stats = run_heterogeneous(
      q, {}, [](const WorkUnit&, unsigned) {}, [](const WorkUnit&, unsigned) {});
  EXPECT_EQ(stats.cpu_units + stats.device_units, 0u);
  EXPECT_EQ(stats.utilization(), 0.0);
}

TEST(SchedulerStats, AccumulateMergesPerWorkerCounters) {
  SchedulerStats a;
  a.cpu_units = 5;
  a.cpu_claims = 2;
  a.elapsed_seconds = 0.5;
  a.cpu_workers = {{.units = 3, .claims = 1, .busy_seconds = 0.2},
                   {.units = 2, .claims = 1, .busy_seconds = 0.1}};
  SchedulerStats b;
  b.cpu_units = 4;
  b.device_units = 7;
  b.device_claims = 1;
  b.queue_contention = 3;
  b.cpu_workers = {{.units = 4, .claims = 2, .busy_seconds = 0.3}};
  b.device_worker = {.units = 7, .claims = 1, .busy_seconds = 0.4};
  a.accumulate(b);
  EXPECT_EQ(a.cpu_units, 9u);
  EXPECT_EQ(a.device_units, 7u);
  EXPECT_EQ(a.queue_contention, 3u);
  ASSERT_EQ(a.cpu_workers.size(), 2u);
  EXPECT_EQ(a.cpu_workers[0].units, 7u);
  EXPECT_EQ(a.cpu_workers[1].units, 2u);
  EXPECT_EQ(a.device_worker.units, 7u);
  EXPECT_DOUBLE_EQ(a.device_worker.busy_seconds, 0.4);
}

TEST(SchedulerStats, AccumulateElapsedSequentialSumsConcurrentMaxes) {
  // Regression: merging two overlapping drains used to sum their wall
  // clocks, double-counting the shared interval and deflating utilization.
  SchedulerStats seq_a;
  seq_a.elapsed_seconds = 0.5;
  SchedulerStats seq_b;
  seq_b.elapsed_seconds = 0.25;
  seq_a.accumulate(seq_b);  // Sequential is the default: repetitions add
  EXPECT_DOUBLE_EQ(seq_a.elapsed_seconds, 0.75);

  SchedulerStats conc_a;
  conc_a.elapsed_seconds = 0.5;
  conc_a.cpu_workers = {{.units = 1, .claims = 1, .busy_seconds = 0.4}};
  SchedulerStats conc_b;
  conc_b.elapsed_seconds = 0.3;
  conc_b.cpu_workers = {{.units = 1, .claims = 1, .busy_seconds = 0.25}};
  conc_a.accumulate(conc_b, RunOverlap::Concurrent);
  EXPECT_DOUBLE_EQ(conc_a.elapsed_seconds, 0.5);
  // The utilization denominator reflects the real 0.5 s window the drains
  // shared, not the 0.8 s a sum would claim.
  EXPECT_DOUBLE_EQ(conc_a.utilization(), (0.4 + 0.25) / (0.5 * 1.0));
  ASSERT_EQ(conc_a.cpu_workers.size(), 1u);
  EXPECT_DOUBLE_EQ(conc_a.cpu_workers[0].busy_seconds, 0.65);
}

TEST(Scheduler, DeviceSideSeesHeavyUnitsFirst) {
  // With a device batch as large as the queue, the device grabs everything
  // heavy; verify its units are the heaviest ones.
  WorkQueue q({{0, 100}, {1, 90}, {2, 1}, {3, 2}});
  std::set<std::uint32_t> device_ids;
  std::mutex m;
  std::atomic<bool> device_started{false};
  run_heterogeneous(
      q, {.cpu_threads = 1, .cpu_batch = 1, .device_batch = 2},
      [&device_started](const WorkUnit&, unsigned) {
        // The single CPU worker stalls on its first unit, guaranteeing the
        // device gets the first heavy batch even on a one-core host.
        while (!device_started.load()) std::this_thread::yield();
      },
      [&](const WorkUnit& u, unsigned) {
        const std::lock_guard lock(m);
        device_ids.insert(u.id);
        device_started.store(true);
      });
  // The first heavy batch is deterministic: ids 0 and 1.
  EXPECT_TRUE(device_ids.contains(0));
  EXPECT_TRUE(device_ids.contains(1));
}

}  // namespace
}  // namespace eardec::hetero
