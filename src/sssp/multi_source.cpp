#include "sssp/multi_source.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <stdexcept>

namespace eardec::sssp {

namespace {

/// Two lanes of the block: GCC lowers arithmetic, comparisons and `?:` on
/// this type to packed SSE2 instructions at the baseline x86-64 ISA (and to
/// scalar code on a target without vectors), so the relaxation loop needs
/// no intrinsics.
using LanePair = Weight __attribute__((vector_size(2 * sizeof(Weight))));
/// Per-lane result of a LanePair comparison: all ones where it holds.
using LaneMask = decltype(LanePair{} < LanePair{});
constexpr std::uint32_t kPairWidth = 2;

/// The lane block's stride for a batch of k sources: k rounded up to a
/// power of two, at least one lane pair. The round loop is compiled once per
/// such stride (2, 4, ..., kMaxSourceLanes); the extra lanes hold +inf at
/// every vertex.
std::uint32_t padded_stride(std::uint32_t k) {
  return std::max(kPairWidth, std::bit_ceil(k));
}

// Unaligned, alias-safe lane access: each memcpy compiles to one unaligned
// 16-byte load or store.
LanePair load_pair(const Weight* p) {
  LanePair x;
  std::memcpy(&x, p, sizeof x);
  return x;
}

void store_pair(Weight* p, LanePair x) { std::memcpy(p, &x, sizeof x); }

/// Frontier rounds of one batch on a lane block of `Stride` lanes per
/// vertex, from `count` queued vertices in `frontier`; returns the rounds.
/// `Stride` is a compile-time constant, so the lane loop has a fixed trip
/// count that the compiler can unroll.
/// The buffers arrive as raw pointers: a byte store through `queued` may
/// alias anything, so members read through `this` would be reloaded after
/// every flag update.
template <std::uint32_t Stride>
std::uint32_t relax_rounds(const Graph& g, Weight* dist, std::uint8_t* queued,
                           VertexId* frontier, VertexId count,
                           VertexId* next) {
  std::uint32_t rounds = 0;
  while (count != 0) {
    ++rounds;
    VertexId queued_next = 0;
    for (VertexId i = 0; i < count; ++i) {
      const VertexId v = frontier[i];
      queued[v] = 0;
      const Weight* dv = dist + static_cast<std::size_t>(v) * Stride;
      for (const graph::HalfEdge& he : g.neighbors(v)) {
        const LanePair w = {he.weight, he.weight};
        Weight* dt = dist + static_cast<std::size_t>(he.to) * Stride;
        // Relax every lane unconditionally and without a branch: the same
        // rounded add and exact min as a per-lane `if (nd < dt[lane])`, so
        // the labels are bit-identical. Relaxation is idempotent, so clean
        // lanes cost only the flops. One mask per edge collects whether any
        // lane improved.
        LaneMask improved{};
        for (std::uint32_t lane = 0; lane < Stride; lane += kPairWidth) {
          const LanePair nd = load_pair(dv + lane) + w;
          const LanePair od = load_pair(dt + lane);
          const auto lt = nd < od;
          store_pair(dt + lane, lt ? nd : od);
          improved |= lt;
        }
        // Enqueue without a branch: the slot past the queue's end always
        // takes he.to, and the count only moves over it when some lane
        // improved a vertex not yet queued. The queue holds the same
        // vertices in the same order as a conditional push_back.
        const auto add = static_cast<std::uint8_t>(
            ((improved[0] | improved[1]) != 0) & (queued[he.to] == 0));
        next[queued_next] = he.to;
        queued_next += add;
        queued[he.to] |= add;
      }
    }
    std::swap(frontier, next);
    count = queued_next;
  }
  return rounds;
}

}  // namespace

void MultiSourceWorkspace::ensure(VertexId num_vertices, std::uint32_t lanes) {
  if (lanes > kMaxSourceLanes) {
    throw std::invalid_argument("MultiSourceWorkspace: lanes > 64");
  }
  lane_capacity_ = std::max(lane_capacity_, lanes);
  const std::size_t want =
      static_cast<std::size_t>(num_vertices) * padded_stride(lane_capacity_);
  if (dist_.size() < want) dist_.resize(want);
  if (queued_.size() < num_vertices) queued_.resize(num_vertices);
  // The queues swap roles every round, and the round loop stores one slot
  // past the last queued vertex: n + 1 slots each.
  if (frontier_.size() <= num_vertices) {
    frontier_.resize(static_cast<std::size_t>(num_vertices) + 1);
    next_.resize(static_cast<std::size_t>(num_vertices) + 1);
  }
}

namespace {

/// The identity lane mapping of a contiguous source range (<= 64 entries).
struct RangeLanes {
  std::array<VertexId, kMaxSourceLanes> sources;
  std::uint32_t k;
  [[nodiscard]] std::span<const VertexId> span() const {
    return {sources.data(), k};
  }
};

RangeLanes range_lanes(const Graph& g, VertexId src_begin, VertexId src_end) {
  if (src_begin >= src_end || src_end > g.num_vertices()) {
    throw std::out_of_range("MultiSourceWorkspace: bad source range");
  }
  if (src_end - src_begin > kMaxSourceLanes) {
    throw std::invalid_argument("MultiSourceWorkspace: range wider than 64");
  }
  RangeLanes r{{}, src_end - src_begin};
  for (std::uint32_t lane = 0; lane < r.k; ++lane) {
    r.sources[lane] = src_begin + lane;
  }
  return r;
}

}  // namespace

void MultiSourceWorkspace::distances(const Graph& g, VertexId src_begin,
                                     VertexId src_end, DistanceMatrix& out) {
  distances(g, range_lanes(g, src_begin, src_end).span(), out);
}

void MultiSourceWorkspace::distances(const Graph& g,
                                     std::span<const VertexId> sources,
                                     DistanceMatrix& out) {
  if (!relax(g, sources, out.size())) return;
  // Transpose the lane block into the row-major output: lane-major so the
  // writes stream sequentially through each row.
  const auto k = static_cast<std::uint32_t>(sources.size());
  const std::uint32_t stride = padded_stride(k);
  const VertexId n = g.num_vertices();
  for (std::uint32_t lane = 0; lane < k; ++lane) {
    const std::span<Weight> row = out.row(sources[lane]);
    const Weight* col = dist_.data() + lane;
    for (VertexId v = 0; v < n; ++v) {
      row[v] = col[static_cast<std::size_t>(v) * stride];
    }
  }
}

void MultiSourceWorkspace::distances(const Graph& g, VertexId src_begin,
                                     VertexId src_end, TriangleMatrix& out) {
  const RangeLanes lanes = range_lanes(g, src_begin, src_end);
  if (!relax(g, lanes.span(), out.size())) return;
  // Row s keeps only its head [0, s]; the lane's cells past s sit in the
  // heads of later rows, which their own sources write.
  const std::uint32_t stride = padded_stride(lanes.k);
  for (std::uint32_t lane = 0; lane < lanes.k; ++lane) {
    const std::span<Weight> head = out.head(lanes.sources[lane]);
    const Weight* col = dist_.data() + lane;
    for (VertexId v = 0; v < head.size(); ++v) {
      head[v] = col[static_cast<std::size_t>(v) * stride];
    }
  }
}

bool MultiSourceWorkspace::relax(const Graph& g,
                                 std::span<const VertexId> sources,
                                 VertexId out_size) {
  const VertexId n = g.num_vertices();
  const auto k = static_cast<std::uint32_t>(sources.size());
  if (k == 0) return false;
  for (const VertexId s : sources) {
    if (s >= n) throw std::out_of_range("MultiSourceWorkspace: bad source");
  }
  const std::uint32_t stride = padded_stride(k);
  if (k > lane_capacity_ || queued_.size() < n || frontier_.size() <= n ||
      dist_.size() < static_cast<std::size_t>(n) * stride) {
    throw std::invalid_argument(
        "MultiSourceWorkspace: ensure() capacity too small for this batch");
  }
  if (out_size != n) {
    throw std::invalid_argument("MultiSourceWorkspace: bad output matrix");
  }

  // Lane-strided init: lane L holds source sources[L]. The block is laid
  // out with the batch's own padded stride (not the capacity's) so one
  // frontier round touches the densest possible cache lines for this
  // batch width. The padding lanes stay +inf: +inf plus any weight is
  // +inf, which is never below +inf, so they never relax.
  Weight* const dist = dist_.data();
  std::uint8_t* const queued = queued_.data();
  VertexId* const frontier = frontier_.data();
  std::fill_n(dist, static_cast<std::size_t>(n) * stride, graph::kInfWeight);
  std::fill_n(queued, n, std::uint8_t{0});
  VertexId count = 0;
  for (std::uint32_t lane = 0; lane < k; ++lane) {
    const VertexId s = sources[lane];
    dist[static_cast<std::size_t>(s) * stride + lane] = 0;
    if (queued[s] == 0) frontier[count++] = s;
    queued[s] = 1;
  }

  VertexId* const next = next_.data();
  switch (stride) {
    case 2:
      rounds_ = relax_rounds<2>(g, dist, queued, frontier, count, next);
      break;
    case 4:
      rounds_ = relax_rounds<4>(g, dist, queued, frontier, count, next);
      break;
    case 8:
      rounds_ = relax_rounds<8>(g, dist, queued, frontier, count, next);
      break;
    case 16:
      rounds_ = relax_rounds<16>(g, dist, queued, frontier, count, next);
      break;
    case 32:
      rounds_ = relax_rounds<32>(g, dist, queued, frontier, count, next);
      break;
    default:
      static_assert(kMaxSourceLanes == 64);
      rounds_ = relax_rounds<64>(g, dist, queued, frontier, count, next);
      break;
  }

  return true;
}

}  // namespace eardec::sssp
