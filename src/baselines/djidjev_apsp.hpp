// Djidjev et al. [12] baseline: partition-based APSP for planar graphs.
//
//   1. Partition G into k parts (BFS region growing — METIS stand-in).
//   2. APSP inside each part's induced subgraph (parallel over parts).
//   3. Build the boundary graph: boundary vertices, cross-partition edges,
//      plus intra-part shortcuts weighted by the within-part distances.
//   4. APSP on the boundary graph (global boundary-to-boundary distances).
//   5. Per-vertex exit tables T[u][b] = min over own-part boundary b1 of
//      D_part(u, b1) + D_boundary(b1, b): global distance from u to every
//      boundary vertex.
// Query: d(u,v) = min( same-part D_part(u,v),
//                      min over b in v's part boundary  T[u][b] + D_part(b, v) ).
//
// Efficient only when the boundary is small relative to n — the planar
// case, which is why the paper (like Djidjev et al. themselves) evaluates
// this baseline on planar inputs only.
#pragma once

#include <vector>

#include "core/ear_apsp.hpp"
#include "partition/bfs_grow.hpp"
#include "sssp/distance_matrix.hpp"

namespace eardec::baselines {

class DjidjevApsp {
 public:
  DjidjevApsp(const graph::Graph& g, std::uint32_t num_parts,
              const core::ApspOptions& options, std::uint64_t seed = 1);

  [[nodiscard]] graph::Weight distance(graph::VertexId u,
                                       graph::VertexId v) const;

  /// Materializes the full n x n distance table — the "extend shortest
  /// paths across partitions" step of the published algorithm, whose cost
  /// (n^2 x per-part boundary size) is part of any fair APSP timing.
  [[nodiscard]] sssp::DistanceMatrix materialize() const;

  [[nodiscard]] const partition::Partition& partition() const {
    return partition_;
  }
  [[nodiscard]] std::size_t boundary_size() const {
    return partition_.boundary.size();
  }

 private:
  graph::Graph g_;
  partition::Partition partition_;
  /// Per part: induced subgraph's vertex list, local ids, distance table.
  struct Part {
    std::vector<graph::VertexId> vertices;        // local -> global
    std::vector<graph::VertexId> boundary_local;  // local ids of boundary
    sssp::DistanceMatrix dist;                    // within induced subgraph
  };
  std::vector<Part> parts_;
  std::vector<graph::VertexId> local_id_;    // global -> local within part
  std::vector<std::uint32_t> boundary_idx_;  // global -> index in boundary, or npos
  sssp::DistanceMatrix boundary_dist_;       // |B| x |B| global distances
  /// n x |B| exit table: global distance from every vertex to every
  /// boundary vertex.
  std::vector<graph::Weight> exit_;

  [[nodiscard]] graph::Weight exit_at(graph::VertexId u,
                                      std::uint32_t b) const {
    return exit_[static_cast<std::size_t>(u) * partition_.boundary.size() + b];
  }
};

}  // namespace eardec::baselines
