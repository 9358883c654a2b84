#include "mcb/mm_mcb.hpp"

#include <atomic>
#include <functional>
#include <optional>
#include <stdexcept>

#include "mcb/cycle_store.hpp"
#include "mcb/fvs.hpp"
#include "mcb/labelled_trees.hpp"
#include "mcb/signed_graph.hpp"
#include "mcb/witness_matrix.hpp"
#include "obs/phase.hpp"

namespace eardec::mcb {
namespace {

/// Steps of fewer units than this run inline: the paper's phases amortize
/// fork/join at its 10K-130K vertex scale, while at this repository's
/// reduced scale the guard keeps the parallel implementations from drowning
/// microsecond steps in thread wakeups.
constexpr std::size_t kSerialBelow = 4;

/// Dispatches fn(i) for i in [0, count) under the execution mode.
/// For the heterogeneous mode, CPU pool threads and a device driver (itself
/// a pool task, so no thread spawn per step) pull chunks dynamically off one
/// shared counter — the both-ends-compete discipline of the work queue.
void dispatch(ExecutionMode mode, hetero::ThreadPool* pool,
              hetero::Device* device, std::size_t count,
              const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  if (mode == ExecutionMode::Sequential || count < kSerialBelow) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  switch (mode) {
    case ExecutionMode::Sequential:  // handled above
      return;
    case ExecutionMode::Multicore:
      pool->parallel_for(0, count, fn);
      return;
    case ExecutionMode::DeviceOnly:
      device->launch(count, fn);
      return;
    case ExecutionMode::Heterogeneous: {
      auto next = std::make_shared<std::atomic<std::size_t>>(0);
      const std::size_t chunk =
          std::max<std::size_t>(1, count / (4 * (pool->size() + 1)));
      pool->submit([next, chunk, count, device, &fn] {
        while (true) {
          const std::size_t begin = next->fetch_add(chunk);
          if (begin >= count) return;
          const std::size_t end = std::min(begin + chunk, count);
          device->launch(end - begin,
                         [&](std::size_t lane) { fn(begin + lane); });
        }
      });
      pool->parallel_for(0, pool->size(), [&, next, chunk](std::size_t) {
        while (true) {
          const std::size_t begin = next->fetch_add(chunk);
          if (begin >= count) return;
          const std::size_t end = std::min(begin + chunk, count);
          for (std::size_t i = begin; i < end; ++i) fn(i);
        }
      });
      pool->wait_idle();  // the device-driver task must also finish
      return;
    }
  }
}

}  // namespace

void McbStats::accumulate(const McbStats& o) {
  reduce_seconds += o.reduce_seconds;
  preprocess_seconds += o.preprocess_seconds;
  labels_seconds += o.labels_seconds;
  search_seconds += o.search_seconds;
  update_seconds += o.update_seconds;
  dimension += o.dimension;
  candidates += o.candidates;
  fallback_searches += o.fallback_searches;
  fvs_size += o.fvs_size;
}

McbResult mm_mcb(const Graph& g, const McbOptions& options,
                 hetero::ThreadPool* pool, hetero::Device* device) {
  McbResult result;
  // Every McbStats field below is filled by obs::ScopedPhase: one clock
  // shared with the "mcb.phase.*" registry gauges and the trace timeline.
  std::optional<SpanningTree> tree;
  std::optional<CycleStore> store;
  std::optional<LabelledTrees> lt;
  std::optional<WitnessMatrix> witness;
  std::size_t f = 0;
  {
    obs::ScopedPhase phase(result.stats.preprocess_seconds, "mcb.preprocess",
                           "mcb.phase.preprocess_s");
    tree.emplace(build_spanning_tree(g));
    f = tree->dimension();
    result.stats.dimension = f;
    if (f == 0) return result;

    const std::vector<VertexId> fvs =
        options.fvs == FvsAlgorithm::BafnaBermanFujito
            ? feedback_vertex_set_2approx(g)
            : feedback_vertex_set(g);
    lt.emplace(g, *tree, fvs);
    result.stats.fvs_size = fvs.size();
    result.stats.candidates = lt->candidates().size();
    store.emplace(static_cast<std::uint32_t>(lt->candidates().size()));

    // The f witnesses live as rows of one bit-sliced arena; row i starts
    // as the unit vector e_i (and as a one-entry sparse support list).
    witness.emplace(f);
  }

  std::vector<std::uint32_t> batch(options.batch_size == 0
                                       ? 256
                                       : options.batch_size);

  Gf2KernelStats gf2;

  for (std::size_t i = 0; i < f; ++i) {
    EARDEC_TRACE_SCOPE("mcb.iteration", "phase", i);
    const WitnessView s = witness->view(i);

    // (1) Labels: one unit of work per FVS tree.
    {
      obs::ScopedPhase phase(result.stats.labels_seconds, "mcb.labels",
                             "mcb.phase.labels_s");
      // Trees are coarse units (O(n) each); parallelize from a handful up.
      dispatch(options.mode, pool, device, lt->num_trees(),
               [&](std::size_t t) { lt->relabel_tree(t, s); });
    }

    // (2) Search: batched scan in weight order, first odd candidate wins.
    std::optional<Cycle> cycle;
    {
      obs::ScopedPhase phase(result.stats.search_seconds, "mcb.search",
                             "mcb.phase.search_s");
      std::uint32_t found_id = 0;
      CycleStore::Cursor cursor = store->begin();
      while (!cycle) {
        const std::size_t got = store->next_batch(cursor, batch);
        if (got == 0) break;
        // Each orthogonality check is O(1): one serial scan with its
        // mid-batch early exit, in every mode.
        const std::size_t hit = lt->first_odd(batch.data(), got, s);
        if (hit < got) {
          found_id = batch[hit];
          cycle = lt->materialize(lt->candidates()[found_id]);
        }
      }
      if (cycle) {
        store->remove(found_id);
      } else {
        // Safety net: the pruned candidate set should always contain an odd
        // cycle per Mehlhorn–Michail; fall back to the exact signed-graph
        // search if a pathological input defeats the pruning.
        cycle = min_odd_cycle(g, *tree, s);
        ++result.stats.fallback_searches;
        if (!cycle) {
          throw std::logic_error("mm_mcb: no odd cycle exists for a witness");
        }
      }
    }

    // (3) Independence test / witness update: one blocked pass over the
    // witness arena (batched dots + masked conditional XOR), on the CPU in
    // every mode. Its sparse-support and word-range skips keep it to a few
    // percent of a solve, and a device or pool split of it measured slower
    // (docs/mcb_perf.md).
    {
      obs::ScopedPhase phase(result.stats.update_seconds, "mcb.update",
                             "mcb.phase.update_s");
      const BitVector ci = restricted_vector(*cycle, *tree);
      gf2.accumulate(witness->orthogonalize(i, ci, i + 1, f));
    }

    result.total_weight += cycle->weight;
    result.basis.push_back(std::move(*cycle));
  }

  // Mirror the run's scalar outcomes into the registry so `--metrics`
  // exports carry them next to the phase gauges.
  gf2.export_to_metrics();
  auto& reg = obs::MetricsRegistry::instance();
  reg.counter("mcb.fallback_searches").add(result.stats.fallback_searches);
  reg.gauge("mcb.dimension").set(static_cast<double>(result.stats.dimension));
  reg.gauge("mcb.candidates").set(static_cast<double>(result.stats.candidates));
  return result;
}

}  // namespace eardec::mcb
