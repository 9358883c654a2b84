// Multi-source batched SSSP — the Phase-II CPU bulk kernel.
//
// The paper runs one binary-heap Dijkstra per reduced source because the
// instances are independent (Section 2.1.2); independence also means k
// sources can share a single adjacency traversal. This kernel runs k
// sources ("lanes") at once over one cache-resident workspace: distances
// are stored lane-strided (dist[v * stride + lane], a structure-of-arrays
// block like the bit-sliced GF(2) witness matrix of the MCB overhaul, with
// the stride k rounded up to a power of two, at least 2), and every CSR
// edge scan relaxes all k lanes in one pass, so the graph is streamed once
// per frontier round instead of once per source. The round loop is one
// template over the stride, instantiated for 2, 4, ..., 64, so its lane
// loop has a compile-time trip count. The lane loop is branch-free and
// written on a two-lane GCC vector type: GCC 12 Release at the baseline
// x86-64 ISA emits movupd, addpd, cmpltpd and an andpd/andnpd/orpd select
// per pair of lanes. Enqueuing a relaxed vertex is branch-free too: its id
// is always stored one past the next frontier's end, and the count moves
// over it only when a lane improved a vertex not yet queued.
//
// Algorithmically this is label-correcting (Bellman–Ford with a frontier
// and a per-vertex "queued" flag) rather than label-setting: more raw
// relaxations than Dijkstra, each a vector add+compare over the
// contiguous lane block, and the frontier keeps rounds sparse.
// For non-negative weights every label-correcting fixpoint equals the
// Dijkstra labels bit for bit (rounded addition is monotone, min is
// exact), which the differential suite asserts across every property
// family.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "sssp/distance_matrix.hpp"

namespace eardec::sssp {

using graph::Graph;
using graph::VertexId;
using graph::Weight;

/// Upper bound on sources per batch. It caps a vertex's lane block at
/// 512 bytes (eight cache lines) and lets the range forms keep their lane
/// table on the stack; Phase II splits wider units into several batches.
inline constexpr std::uint32_t kMaxSourceLanes = 64;

/// Reusable lane-strided workspace for APSP-style loops: runs batches of
/// sources repeatedly without reallocating the distance block or the
/// frontier queues. One workspace may serve graphs of different sizes
/// (size it once to the largest via ensure()); the Phase-II scheduler
/// pools one per worker thread so the drain performs no per-unit
/// allocation.
class MultiSourceWorkspace {
 public:
  MultiSourceWorkspace() = default;
  MultiSourceWorkspace(VertexId num_vertices, std::uint32_t lanes) {
    ensure(num_vertices, lanes);
  }

  /// Grows the distance block to cover graphs of up to `num_vertices`
  /// vertices and batches of up to `lanes` sources; never shrinks.
  void ensure(VertexId num_vertices, std::uint32_t lanes);

  /// Computes distances from every source in [src_begin, src_end) and
  /// writes them into the matching rows of `out` (row s = distances from
  /// s). The batch width src_end - src_begin must be <= the ensured lane
  /// count (and <= kMaxSourceLanes). Results are bit-identical to running
  /// sssp::dijkstra per source.
  void distances(const Graph& g, VertexId src_begin, VertexId src_end,
                 DistanceMatrix& out);

  /// Arbitrary-source form: one lane per sources[i] (duplicates allowed),
  /// writing row sources[i] of `out`. The range form above delegates here;
  /// same kernel, same bit-identical-to-Dijkstra contract, only the
  /// lane -> source mapping generalizes. sources.size() must be <= the
  /// ensured lane count.
  void distances(const Graph& g, std::span<const VertexId> sources,
                 DistanceMatrix& out);

  /// Triangle form of the range call: row s keeps only its head [0, s]
  /// (TriangleMatrix). Same kernel; only the transpose is cut short.
  void distances(const Graph& g, VertexId src_begin, VertexId src_end,
                 TriangleMatrix& out);

  /// Frontier rounds used by the last run (diagnostics / bench axes).
  [[nodiscard]] std::uint32_t last_rounds() const noexcept { return rounds_; }

 private:
  /// Validates the batch against the workspace and an output of `out_size`
  /// rows, then runs the kernel into the lane block. False for an empty
  /// batch.
  bool relax(const Graph& g, std::span<const VertexId> sources,
             VertexId out_size);

  std::uint32_t lane_capacity_ = 0;
  std::uint32_t rounds_ = 0;
  std::vector<Weight> dist_;          ///< n * stride, lane-strided
  std::vector<std::uint8_t> queued_;  ///< per-vertex: awaits expansion
  /// The current and next frontier, n + 1 slots each: the round loop
  /// stores one id past the last queued vertex.
  std::vector<VertexId> frontier_;
  std::vector<VertexId> next_;
};

}  // namespace eardec::sssp
