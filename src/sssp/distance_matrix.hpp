// The dense n x n distance matrix and its packed lower-triangle form for
// the symmetric snapshot tables (S^r and the AP table). Large tables live
// in their own mapped pages (sssp/page_allocator.hpp).
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>

#include "graph/graph.hpp"
#include "sssp/page_allocator.hpp"

namespace eardec::sssp {

using graph::VertexId;
using graph::Weight;

/// Dense n x n distance matrix with flat row-major storage; large matrices
/// live in their own mapped pages (PageAllocator).
class DistanceMatrix {
 public:
  DistanceMatrix() = default;
  explicit DistanceMatrix(VertexId n)
      : n_(n), data_(static_cast<std::size_t>(n) * n, graph::kInfWeight) {}

  [[nodiscard]] VertexId size() const noexcept { return n_; }
  [[nodiscard]] Weight& at(VertexId i, VertexId j) {
    return data_[static_cast<std::size_t>(i) * n_ + j];
  }
  [[nodiscard]] Weight at(VertexId i, VertexId j) const {
    return data_[static_cast<std::size_t>(i) * n_ + j];
  }
  /// Row i as a contiguous span.
  [[nodiscard]] std::span<Weight> row(VertexId i) {
    return {data_.data() + static_cast<std::size_t>(i) * n_, n_};
  }
  [[nodiscard]] std::span<const Weight> row(VertexId i) const {
    return {data_.data() + static_cast<std::size_t>(i) * n_, n_};
  }
  [[nodiscard]] std::size_t bytes() const noexcept {
    return data_.size() * sizeof(Weight);
  }

 private:
  VertexId n_ = 0;
  PageVector<Weight> data_;
};

/// Packed lower triangle of a symmetric n x n distance table: n(n+1)/2
/// cells, row i holding columns [0, i] at offset i(i+1)/2. A cell (i, j) is
/// read from the row of max(i, j) — one min/max and one multiply, no branch
/// and no row-offset table. Large triangles live in their own mapped pages,
/// as DistanceMatrix does.
class TriangleMatrix {
 public:
  TriangleMatrix() = default;
  explicit TriangleMatrix(VertexId n)
      : n_(n), data_(offset(n), graph::kInfWeight) {}

  [[nodiscard]] VertexId size() const noexcept { return n_; }
  [[nodiscard]] Weight& at(VertexId i, VertexId j) {
    return data_[offset(std::max(i, j)) + std::min(i, j)];
  }
  [[nodiscard]] Weight at(VertexId i, VertexId j) const {
    return data_[offset(std::max(i, j)) + std::min(i, j)];
  }
  /// Columns [0, i] of row i as a contiguous span.
  [[nodiscard]] std::span<Weight> head(VertexId i) {
    return {data_.data() + offset(i), static_cast<std::size_t>(i) + 1};
  }
  [[nodiscard]] std::span<const Weight> head(VertexId i) const {
    return {data_.data() + offset(i), static_cast<std::size_t>(i) + 1};
  }
  [[nodiscard]] std::size_t bytes() const noexcept {
    return data_.size() * sizeof(Weight);
  }

 private:
  /// Cells before row i: i(i+1)/2.
  [[nodiscard]] static std::size_t offset(VertexId i) noexcept {
    return static_cast<std::size_t>(i) * (static_cast<std::size_t>(i) + 1) / 2;
  }

  VertexId n_ = 0;
  PageVector<Weight> data_;
};

}  // namespace eardec::sssp
