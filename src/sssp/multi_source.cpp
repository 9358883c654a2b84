#include "sssp/multi_source.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

namespace eardec::sssp {

void MultiSourceWorkspace::ensure(VertexId num_vertices, std::uint32_t lanes) {
  if (lanes > kMaxSourceLanes) {
    throw std::invalid_argument("MultiSourceWorkspace: lanes > 64");
  }
  lane_capacity_ = std::max(lane_capacity_, lanes);
  const std::size_t want =
      static_cast<std::size_t>(num_vertices) * lane_capacity_;
  if (dist_.size() < want) dist_.resize(want);
  if (pending_.size() < num_vertices) pending_.resize(num_vertices);
  frontier_.reserve(num_vertices);
  next_.reserve(num_vertices);
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
  const VertexId n = g.num_vertices();
  for (std::uint32_t lane = 0; lane < k; ++lane) {
    const std::span<Weight> row = out.row(sources[lane]);
    const Weight* col = dist_.data() + lane;
    for (VertexId v = 0; v < n; ++v) {
      row[v] = col[static_cast<std::size_t>(v) * k];
    }
  }
}

void MultiSourceWorkspace::distances(const Graph& g, VertexId src_begin,
                                     VertexId src_end, TriangleMatrix& out) {
  const RangeLanes lanes = range_lanes(g, src_begin, src_end);
  if (!relax(g, lanes.span(), out.size())) return;
  // Row s keeps only its head [0, s]; the lane's cells past s sit in the
  // heads of later rows, which their own sources write.
  const std::uint32_t k = lanes.k;
  for (std::uint32_t lane = 0; lane < k; ++lane) {
    const std::span<Weight> head = out.head(lanes.sources[lane]);
    const Weight* col = dist_.data() + lane;
    for (VertexId v = 0; v < head.size(); ++v) {
      head[v] = col[static_cast<std::size_t>(v) * k];
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
  if (k > lane_capacity_ ||
      dist_.size() < static_cast<std::size_t>(n) * lane_capacity_) {
    throw std::invalid_argument(
        "MultiSourceWorkspace: ensure() capacity too small for this batch");
  }
  if (out_size != n) {
    throw std::invalid_argument("MultiSourceWorkspace: bad output matrix");
  }

  // Lane-strided init: lane L holds source sources[L]. The block is laid
  // out with stride k (not lane_capacity_) so one frontier round touches
  // the densest possible cache lines for this batch width.
  std::fill(dist_.begin(), dist_.begin() + static_cast<std::size_t>(n) * k,
            graph::kInfWeight);
  std::fill(pending_.begin(), pending_.begin() + n, 0);
  frontier_.clear();
  next_.clear();
  for (std::uint32_t lane = 0; lane < k; ++lane) {
    const VertexId s = sources[lane];
    dist_[static_cast<std::size_t>(s) * k + lane] = 0;
    if (pending_[s] == 0) frontier_.push_back(s);
    pending_[s] |= std::uint64_t{1} << lane;
  }

  rounds_ = 0;
  while (!frontier_.empty()) {
    ++rounds_;
    for (const VertexId v : frontier_) {
      pending_[v] = 0;
      const Weight* dv = dist_.data() + static_cast<std::size_t>(v) * k;
      for (const graph::HalfEdge& he : g.neighbors(v)) {
        const Weight w = he.weight;
        Weight* dt = dist_.data() + static_cast<std::size_t>(he.to) * k;
        // Relax every lane unconditionally: relaxation is idempotent, so
        // skipping clean lanes is only an optimization, and doing them all
        // keeps the dirty-lane mask out of the loop. GCC 12 Release still
        // emits scalar code here: addsd, comisd and a branch per lane.
        std::uint64_t changed = 0;
        for (std::uint32_t lane = 0; lane < k; ++lane) {
          const Weight nd = dv[lane] + w;
          if (nd < dt[lane]) {
            dt[lane] = nd;
            changed |= std::uint64_t{1} << lane;
          }
        }
        if (changed != 0) {
          if (pending_[he.to] == 0) next_.push_back(he.to);
          pending_[he.to] |= changed;
        }
      }
    }
    frontier_.swap(next_);
    next_.clear();
  }

  return true;
}

}  // namespace eardec::sssp
