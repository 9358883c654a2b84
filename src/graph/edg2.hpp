// EDG2 — the packed binary graph format behind the million-node ingestion
// path. An EDG2 file stores the final CSR arrays themselves in page-aligned
// sections rather than an edge list that every load would have to rebuild
// into CSR, so loading is an mmap plus pointer fixup: the returned Graph
// borrows the mapped sections directly (see Graph::BorrowedCsr) and no edge
// array is ever copied.
//
// Layout (host-endian, page-aligned):
//   [0, 4096)       header: magic "EDG2", format version, counts
//                   (n, m, self-loops), flags, a 4-entry section table,
//                   a chunked-FNV payload checksum, an FNV header checksum
//                   and a provenance string.
//   section 1       csr offsets    (n+1) x u64
//   section 2       adjacency      2m x HalfEdge {u32 to, u32 edge, f64 w}
//   section 3       endpoints      m x {u32 u, u32 v}, normalized u <= v
//   section 4       weights        m x f64
// Every section starts on a 4096-byte boundary and is zero-padded to one.
//
// Validation tiers: Shallow (the default for mmap loads) verifies the
// header checksum, counts and section geometry only — O(1) pages touched,
// which is what keeps the load zero-copy in practice (RSS grows only as
// algorithms fault pages in). Deep additionally verifies the payload
// checksum and endpoint ranges, touching every page; the test suite and
// `eardec_cli summarize --deep` use it.
//
// docs/scaling.md describes the format, the borrowed-storage lifetime
// rules, and the conversion workflow.
#pragma once

#include <array>
#include <cstdint>
#include <filesystem>
#include <iosfwd>
#include <string>

#include "graph/graph.hpp"
#include "hetero/thread_pool.hpp"

namespace eardec::graph::io {

/// Format revision written by this library. Bump on any layout change.
inline constexpr std::uint32_t kEdg2Version = 1;

/// Header size == section alignment. Sections are mmap'd directly, so they
/// must start page-aligned for any plausible page size up to 4 KiB.
inline constexpr std::size_t kEdg2Align = 4096;

/// How much of the file read_edg2_file() verifies before trusting it.
enum class Edg2Validate {
  /// Header checksum + counts + section geometry. O(1) pages touched —
  /// preserves the zero-copy load (default).
  Shallow,
  /// Shallow plus the payload checksum, endpoint-range scan, and
  /// zero-padding check (every byte of the file accounted for). Touches
  /// every page; use for ingest gates and tests.
  Deep,
};

/// Writes g as an EDG2 file. Deterministic: the same graph (and provenance
/// string) always produces a byte-identical file. `pool` parallelizes the
/// payload checksum over 4 MiB chunks; pass nullptr for serial.
void write_edg2_file(const std::filesystem::path& path, const Graph& g,
                     hetero::ThreadPool* pool = nullptr,
                     const std::string& provenance = "eardec");

/// Maps an EDG2 file and returns a Graph borrowing the mapped sections
/// (Graph::borrowed_storage() == true). The mapping lives as long as any
/// copy of the returned Graph. Throws std::runtime_error on open/mmap
/// failure or validation failure at the requested tier.
[[nodiscard]] Graph read_edg2_file(
    const std::filesystem::path& path,
    Edg2Validate validate = Edg2Validate::Shallow);

/// Stream reader producing owned heap storage with bitwise-identical
/// arrays — the fallback (and differential check) for the mmap path.
/// Always deep-validates (it reads every byte anyway).
[[nodiscard]] Graph read_edg2_stream(std::istream& in);

/// Header fields without loading the payload, for `eardec_cli summarize`
/// and format tooling.
struct Edg2Info {
  std::uint32_t version = 0;
  std::uint64_t num_vertices = 0;
  std::uint64_t num_edges = 0;
  std::uint64_t num_self_loops = 0;
  bool has_parallel_edges = false;
  std::uint64_t file_bytes = 0;
  std::uint64_t payload_bytes = 0;  ///< sum of the four section lengths
  std::string provenance;
};
[[nodiscard]] Edg2Info inspect_edg2_file(const std::filesystem::path& path);

/// Builds a CSR Graph from an edge list with the fill chunked over `pool`
/// — bit-identical to the serial Graph edge-list constructor (each
/// half-edge's slot is a deterministic rank, so the parallel fill writes
/// disjoint slots in any order). The converter and the scale generators use
/// this; at million-edge scale the adjacency fill dominates construction.
[[nodiscard]] Graph build_csr_parallel(VertexId num_vertices,
                                       std::vector<std::pair<VertexId, VertexId>> edges,
                                       std::vector<Weight> weights,
                                       hetero::ThreadPool* pool);

}  // namespace eardec::graph::io
