// Ear-decomposition APSP — the paper's primary contribution (Section 2).
//
// Pipeline (general graphs, Section 2.2):
//   Phase 0  split G into biconnected components; build the block-cut tree.
//   Phase I  per component: contract degree-two chains -> reduced graph G^r_i
//            (paper: "Reduce(G)", executed on the device).
//   Phase II per component: all-pairs shortest paths on G^r_i, one SSSP per
//            reduced vertex, scheduled heterogeneously through the work
//            queue (CPU threads run Dijkstra or the batched multi-source
//            kernel, chosen per unit; the device runs delta-stepping bulk
//            launches).
//   Phase III Stage 1: extend S^r_i to the full per-component table A_i with
//            the closed-form left/right formulas (UPDATE_DISTANCE).
//            Stage 2: articulation-point table A over the block-cut tree;
//            cross-component queries route d(n1,a1) + A[a1][a2] + d(a2,n2).
//
// Two query products are offered:
//   * EarApsp          — paper-faithful: materializes every A_i (memory
//                        O(a^2 + Σ n_i^2), Table 1's "Our's Memory").
//   * EarApspEngine    — compact extension: query() reads only the reduced
//                        tables and evaluates the left/right formulas per
//                        query. S^r_i and the AP table are symmetric and
//                        stored as packed lower triangles (TriangleMatrix):
//                        memory O(a^2/2 + Σ (n^r_i)^2/2).
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "connectivity/bcc.hpp"
#include "connectivity/block_cut_tree.hpp"
#include "connectivity/tree_lca.hpp"
#include "core/memory_model.hpp"
#include "graph/graph.hpp"
#include "hetero/device.hpp"
#include "hetero/scheduler.hpp"
#include "reduce/reduced_graph.hpp"
#include "sssp/distance_matrix.hpp"

namespace eardec::core {

using graph::Graph;
using graph::VertexId;
using graph::Weight;
using sssp::DistanceMatrix;
using sssp::TriangleMatrix;

/// Which resources execute phases II/III.
enum class ExecutionMode {
  Sequential,     ///< one thread, no device
  Multicore,      ///< CPU thread pool only
  DeviceOnly,     ///< delta-stepping bulk launches on the software device only
  Heterogeneous,  ///< work queue drained by CPU threads + device (paper mode)
};

struct ApspOptions {
  ExecutionMode mode = ExecutionMode::Heterogeneous;
  unsigned cpu_threads = 4;
  hetero::DeviceConfig device{};
  /// When false, phase I keeps every vertex (no chain contraction): the
  /// pipeline degenerates to the BCC-only decomposition of Banerjee et
  /// al. [4]. Used by that baseline and the w/o-ear ablation.
  bool use_ear_reduction = true;
  /// Sources per work unit in phase II (units are sorted by component size).
  std::uint32_t sources_per_unit = 16;
  std::size_t cpu_batch = 1;
  std::size_t device_batch = 4;
};

/// Wall-clock seconds per phase, for the benches.
struct PhaseTimings {
  double decompose = 0;    ///< BCC + block-cut tree
  double reduce = 0;       ///< Phase I
  double process = 0;      ///< Phase II
  double postprocess = 0;  ///< Phase III stage 1 (only for EarApsp)
  double ap_table = 0;     ///< Phase III stage 2
  [[nodiscard]] double total() const {
    return decompose + reduce + process + postprocess + ap_table;
  }
};

/// How one point-to-point query routes through the decomposition, computed
/// without evaluating any distance. The serving benches use it to measure
/// the route mix of a query workload.
struct QueryRoute {
  enum class Kind : std::uint8_t {
    Trivial,       ///< u == v: distance 0, nothing to evaluate
    Disconnected,  ///< different connected components: +infinity
    SameBlock,     ///< one within-block evaluation
    CrossBlock,    ///< block leg + one AP-table hop + block leg
  };
  Kind kind = Kind::Trivial;
};

/// Shared engine: everything up to and including the reduced-graph APSP
/// tables and the articulation-point table. Both query products build on it.
class EarApspEngine {
 public:
  EarApspEngine(const Graph& g, const ApspOptions& options = {});
  ~EarApspEngine();
  EarApspEngine(EarApspEngine&&) noexcept;
  EarApspEngine& operator=(EarApspEngine&&) noexcept;

  [[nodiscard]] const Graph& original_graph() const;
  [[nodiscard]] std::uint32_t num_components() const;
  [[nodiscard]] const connectivity::BiconnectedComponents& bcc() const;
  [[nodiscard]] const connectivity::BlockCutTree& block_cut_tree() const;
  [[nodiscard]] const reduce::ReducedGraph& reduced(std::uint32_t comp) const;
  /// The component extracted as a standalone graph (local ids).
  [[nodiscard]] const connectivity::SubgraphView& component(
      std::uint32_t comp) const;
  /// S^r table of component `comp` (indexed by reduced-local vertex ids),
  /// packed as a lower triangle.
  [[nodiscard]] const TriangleMatrix& reduced_table(std::uint32_t comp) const;
  /// The articulation-point table, indexed by BlockCutTree cut index.
  [[nodiscard]] const TriangleMatrix& ap_table() const;

  /// Distance between two vertices *inside* component `comp`, given by
  /// component-local ids, evaluated through the reduced table and the
  /// left/right chain formulas (no A_i materialization).
  [[nodiscard]] Weight block_distance(std::uint32_t comp, VertexId local_u,
                                      VertexId local_v) const;

  /// Distance between two articulation points (global vertex ids).
  [[nodiscard]] Weight ap_distance(VertexId ap_u, VertexId ap_v) const;

  /// Full compact query over the original graph: same-component pairs via
  /// block_distance, cross-component pairs via the block-cut tree route.
  [[nodiscard]] Weight query(VertexId u, VertexId v) const;

  /// Classifies the (u, v) query — same routing decision as query(), but
  /// no distance evaluation and no block-cut-tree walk. Throws
  /// std::out_of_range like query().
  [[nodiscard]] QueryRoute route(VertexId u, VertexId v) const;

  /// Component-local id of global vertex `u` inside block `comp`; throws
  /// std::out_of_range when u is not a vertex of that block.
  [[nodiscard]] VertexId component_local(std::uint32_t comp, VertexId u) const;

  /// Distances from u to every vertex, assembled from the per-component
  /// tables by one block-cut-tree traversal: O(Σ n_i + a) — an SSSP
  /// replacement that never touches the edge set again.
  [[nodiscard]] std::vector<Weight> distances_from(VertexId u) const;

  [[nodiscard]] const PhaseTimings& timings() const;
  [[nodiscard]] const MemoryUsage& memory() const;
  /// Aggregate SSSP statistics of phase II (for MTEPS-style reporting).
  [[nodiscard]] std::uint64_t sssp_runs() const;
  [[nodiscard]] hetero::SchedulerStats scheduler_stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  friend class EarApsp;
  friend DistanceMatrix ear_apsp_matrix(const Graph& g,
                                        const ApspOptions& options);
};

/// Paper-faithful product: fully materialized per-component tables A_i.
class EarApsp {
 public:
  EarApsp(const Graph& g, const ApspOptions& options);

  /// O(1) same-component lookups; O(log) cross-component (tree path).
  [[nodiscard]] Weight distance(VertexId u, VertexId v) const;

  /// The materialized table of one component (component-local ids).
  [[nodiscard]] const DistanceMatrix& block_table(std::uint32_t comp) const {
    return block_tables_[comp];
  }

  [[nodiscard]] const EarApspEngine& engine() const { return engine_; }
  [[nodiscard]] const PhaseTimings& timings() const {
    return timings_;
  }

 private:
  EarApspEngine engine_;
  std::vector<DistanceMatrix> block_tables_;
  PhaseTimings timings_;
};

/// Convenience for Algorithm 1 on a biconnected graph: the full n x n
/// distance matrix of g computed through the three-phase pipeline.
[[nodiscard]] DistanceMatrix ear_apsp_matrix(const Graph& g,
                                             const ApspOptions& options);

}  // namespace eardec::core
