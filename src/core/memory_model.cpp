#include "core/memory_model.hpp"

#include <stdexcept>

namespace eardec::core {

MemoryUsage compute_memory_usage(
    const graph::Graph& g, const connectivity::BiconnectedComponents& bcc,
    const std::vector<graph::VertexId>& reduced_sizes) {
  if (reduced_sizes.size() != bcc.num_components) {
    throw std::invalid_argument("compute_memory_usage: size mismatch");
  }
  constexpr std::uint64_t kEntry = sizeof(graph::Weight);
  MemoryUsage mu;
  for (std::uint32_t c = 0; c < bcc.num_components; ++c) {
    const std::uint64_t ni = bcc.component_vertices(c).size();
    const std::uint64_t nr = reduced_sizes[c];
    mu.block_tables_bytes += ni * ni * kEntry;
    mu.compact_tables_bytes += nr * (nr + 1) / 2 * kEntry;
  }
  const auto a = static_cast<std::uint64_t>(bcc.num_articulation_points());
  mu.ap_table_bytes = a * a * kEntry;
  mu.compact_ap_table_bytes = a * (a + 1) / 2 * kEntry;
  const std::uint64_t n = g.num_vertices();
  mu.full_table_bytes = n * n * kEntry;
  return mu;
}

Phase01Model phase01_memory_model(std::uint64_t n, std::uint64_t m) {
  Phase01Model p;
  // offsets (n+1)*8 + adjacency 2m*16 + endpoints m*8 + weights m*8.
  p.csr_bytes = 8 * (n + 1) + 48 * m;
  // Per-term budget for the flat working arrays: DFS forest ~20n, BCC flat
  // component arrays ~8n + 12m, chains ~16n + 8m, ear decomposition
  // ~24n + 16m, reduction ~16n + 16m. Rounded up to leave headroom for
  // allocator slack without ever going super-linear.
  p.phase_bytes = 96 * n + 64 * m;
  // Binary + runtime + thread stacks + heap metadata for a cold process.
  p.runtime_bytes = 48ULL << 20;
  return p;
}

}  // namespace eardec::core
