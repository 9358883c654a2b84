// Memory accounting for the APSP result storage — the paper's Table 1
// comparison: O(a^2 + Σ n_i^2) for the block-decomposed representation vs
// O(n^2) for the monolithic all-pairs table — and the compact engine's
// packed triangles, O(a^2/2 + Σ (n_i^r)^2/2).
#pragma once

#include <cstdint>

#include "connectivity/bcc.hpp"
#include "graph/graph.hpp"

namespace eardec::core {

struct MemoryUsage {
  /// Bytes for the per-component tables: Σ n_i^2 entries.
  std::uint64_t block_tables_bytes = 0;
  /// Bytes for the articulation-point table: a^2 entries.
  std::uint64_t ap_table_bytes = 0;
  /// Bytes for the compact (reduced-graph) variant's tables: S^r_i is
  /// symmetric and stored as a packed triangle, Σ n_i^r (n_i^r + 1) / 2
  /// entries.
  std::uint64_t compact_tables_bytes = 0;
  /// Bytes for the compact variant's AP table, also a packed triangle:
  /// a (a + 1) / 2 entries.
  std::uint64_t compact_ap_table_bytes = 0;
  /// Bytes a monolithic n x n table would need.
  std::uint64_t full_table_bytes = 0;

  /// The paper's "Our's Memory" column: block tables + AP table.
  [[nodiscard]] std::uint64_t ours_bytes() const {
    return block_tables_bytes + ap_table_bytes;
  }
  [[nodiscard]] double ours_mb() const {
    return static_cast<double>(ours_bytes()) / (1024.0 * 1024.0);
  }
  [[nodiscard]] double full_mb() const {
    return static_cast<double>(full_table_bytes) / (1024.0 * 1024.0);
  }
  [[nodiscard]] double compact_mb() const {
    return static_cast<double>(compact_tables_bytes +
                               compact_ap_table_bytes) /
           (1024.0 * 1024.0);
  }
};

/// Computes the model from a decomposition. `reduced_sizes[i]` is the
/// number of vertices of component i's reduced graph (pass the component
/// sizes themselves to model a reduction-free method).
[[nodiscard]] MemoryUsage compute_memory_usage(
    const graph::Graph& g, const connectivity::BiconnectedComponents& bcc,
    const std::vector<graph::VertexId>& reduced_sizes);

/// Linear memory bound for the *ingestion* path — mmap load + Phase 0
/// (DFS/BCC) + Phase I (chains, ear decomposition, reduction) — as opposed
/// to the quadratic APSP table model above. The scaling bench and the CI
/// RSS gate compare sampled peak RSS against total_bytes(); constants are
/// calibrated in docs/scaling.md and deliberately generous per-term, never
/// super-linear.
struct Phase01Model {
  std::uint64_t csr_bytes = 0;     ///< the four CSR arrays (mmap'd or owned)
  std::uint64_t phase_bytes = 0;   ///< flat Phase 0–I working arrays, c1·n + c2·m
  std::uint64_t runtime_bytes = 0; ///< fixed process allowance (code, stacks, malloc slack)

  [[nodiscard]] std::uint64_t total_bytes() const {
    return csr_bytes + phase_bytes + runtime_bytes;
  }
  [[nodiscard]] double total_mb() const {
    return static_cast<double>(total_bytes()) / (1024.0 * 1024.0);
  }
  [[nodiscard]] double csr_mb() const {
    return static_cast<double>(csr_bytes) / (1024.0 * 1024.0);
  }
};

/// The Phase 0–I bound for a graph with n vertices and m edges.
[[nodiscard]] Phase01Model phase01_memory_model(std::uint64_t n,
                                                std::uint64_t m);

}  // namespace eardec::core
