// The parallel Mehlhorn–Michail MCB solver (paper Section 3.3.2): per
// phase, (1) relabel every FVS tree against the current witness, (2) scan
// the weight-sorted candidate store in batches for the first cycle
// non-orthogonal to the witness, (3) update the remaining witnesses. Steps
// (1) and (2) run under the selected execution mode (sequential, CPU pool,
// software device, or the heterogeneous work queue); step (3) is one CPU
// pass in every mode.
#pragma once

#include <cstdint>
#include <vector>

#include "core/ear_apsp.hpp"  // ExecutionMode
#include "hetero/device.hpp"
#include "hetero/thread_pool.hpp"
#include "mcb/cycle.hpp"

namespace eardec::mcb {

using core::ExecutionMode;

/// Which feedback-vertex-set algorithm roots the shortest-path trees.
enum class FvsAlgorithm {
  GreedyPeel,         ///< classic peel-and-pick heuristic (fast, default)
  BafnaBermanFujito,  ///< the 2-approximation the paper cites [3]
};

struct McbOptions {
  ExecutionMode mode = ExecutionMode::Multicore;
  unsigned cpu_threads = 4;
  hetero::DeviceConfig device{};
  /// Candidates checked per scan batch (paper: "logical batches").
  std::uint32_t batch_size = 256;
  /// Contract degree-two chains first (Lemma 3.1). Off = the paper's
  /// "w/o ear-decomposition" columns in Table 2.
  bool use_ear_decomposition = true;
  FvsAlgorithm fvs = FvsAlgorithm::GreedyPeel;
};

struct McbStats {
  double reduce_seconds = 0;      ///< ear decomposition + contraction
  double preprocess_seconds = 0;  ///< spanning tree, FVS, trees, candidates
  double labels_seconds = 0;      ///< Algorithm 3 across all phases
  double search_seconds = 0;      ///< batched candidate scans
  double update_seconds = 0;      ///< witness updates
  std::size_t dimension = 0;      ///< f = total cycles in the basis
  std::size_t candidates = 0;     ///< |A| across components
  std::size_t fallback_searches = 0;  ///< signed-graph fallbacks (safety)
  std::size_t fvs_size = 0;

  [[nodiscard]] double total_seconds() const {
    return reduce_seconds + preprocess_seconds + labels_seconds +
           search_seconds + update_seconds;
  }
  void accumulate(const McbStats& o);
};

struct McbResult {
  std::vector<Cycle> basis;  ///< cycles as edge sets of the input graph
  Weight total_weight = 0;
  McbStats stats;
};

/// MCB of a single (multi)graph via the labelled-tree algorithm. Cycles
/// are reported in g's edge ids. `pool`/`device` may be null when the mode
/// does not need them.
[[nodiscard]] McbResult mm_mcb(const Graph& g, const McbOptions& options,
                               hetero::ThreadPool* pool,
                               hetero::Device* device);

}  // namespace eardec::mcb
