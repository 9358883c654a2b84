// The dense n x n distance matrix every APSP table is stored in, and
// textbook Floyd–Warshall, the classical dense baseline the APSP literature
// (Buluc, Matsumoto, Katz — see the paper's related work) builds on. Here it
// is the independent oracle the APSP tests compare against.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "sssp/page_allocator.hpp"

namespace eardec::sssp {

using graph::Graph;
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

/// Adjacency-seeded matrix: 0 diagonal, min parallel-edge weight elsewhere.
[[nodiscard]] DistanceMatrix adjacency_matrix(const Graph& g);

/// Textbook O(n^3) Floyd–Warshall.
[[nodiscard]] DistanceMatrix floyd_warshall(const Graph& g);

}  // namespace eardec::sssp
