#include "testing/metamorphic.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <random>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "core/ear_apsp.hpp"
#include "graph/builder.hpp"
#include "mcb/ear_mcb.hpp"

namespace eardec::testing {
namespace {

/// Both sides of every metamorphic comparison go through the pipeline, so
/// each contributes up to distance_tolerance worth of cancellation error.
Weight pair_tolerance(const Graph& g, const Graph& h) {
  return distance_tolerance(g) + distance_tolerance(h);
}

/// Exact cycle-space dimension m - n + (#components).
std::size_t cycle_dimension(const Graph& g) {
  const VertexId n = g.num_vertices();
  std::vector<bool> visited(n, false);
  std::size_t components = 0;
  std::vector<VertexId> stack;
  for (VertexId s = 0; s < n; ++s) {
    if (visited[s]) continue;
    ++components;
    visited[s] = true;
    stack.push_back(s);
    while (!stack.empty()) {
      const VertexId v = stack.back();
      stack.pop_back();
      for (const graph::HalfEdge& he : g.neighbors(v)) {
        if (!visited[he.to]) {
          visited[he.to] = true;
          stack.push_back(he.to);
        }
      }
    }
  }
  return g.num_edges() + components - n;
}

mcb::McbResult sequential_mcb(const Graph& g) {
  return mcb::minimum_cycle_basis(g,
                                  {.mode = core::ExecutionMode::Sequential});
}

core::ApspOptions sequential_apsp() {
  return {.mode = core::ExecutionMode::Sequential};
}

}  // namespace

Graph reorder_with(const Graph& g, const std::vector<VertexId>& to_new) {
  const VertexId n = g.num_vertices();
  if (to_new.size() != n) {
    throw std::invalid_argument("reorder_with: permutation size mismatch");
  }
  std::vector<bool> taken(n, false);
  for (const VertexId v : to_new) {
    if (v >= n || taken[v]) {
      throw std::invalid_argument("reorder_with: not a permutation");
    }
    taken[v] = true;
  }
  std::vector<std::pair<VertexId, VertexId>> edges;
  std::vector<Weight> weights;
  edges.reserve(g.num_edges());
  weights.reserve(g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto [u, v] = g.endpoints(e);
    edges.emplace_back(to_new[u], to_new[v]);
    weights.push_back(g.weight(e));
  }
  return Graph(n, std::move(edges), std::move(weights));
}

Graph relabel_vertices(const Graph& g, std::uint64_t seed) {
  std::vector<VertexId> to_new(g.num_vertices());
  std::iota(to_new.begin(), to_new.end(), 0u);
  std::mt19937_64 rng(seed);
  std::shuffle(to_new.begin(), to_new.end(), rng);
  return reorder_with(g, to_new);
}

Graph scale_weights(const Graph& g, Weight factor) {
  graph::Builder b(g.num_vertices());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto [u, v] = g.endpoints(e);
    b.add_edge(u, v, g.weight(e) * factor);
  }
  return std::move(b).build();
}

Graph subdivide_edge(const Graph& g, EdgeId e, double t) {
  const auto [u, v] = g.endpoints(e);
  const Weight w = g.weight(e);
  const VertexId x = g.num_vertices();
  graph::Builder b(x + 1);
  for (EdgeId other = 0; other < g.num_edges(); ++other) {
    if (other == e) continue;
    const auto [a, c] = g.endpoints(other);
    b.add_edge(a, c, g.weight(other));
  }
  b.add_edge(u, x, w * t);
  b.add_edge(x, v, w * (1 - t));
  return std::move(b).build();
}

CheckResult check_relabel_invariance(const Graph& g, std::uint64_t seed,
                                     std::size_t mcb_dim_limit) {
  if (g.num_vertices() == 0) return std::nullopt;
  std::vector<VertexId> to_new(g.num_vertices());
  std::iota(to_new.begin(), to_new.end(), 0u);
  std::mt19937_64 rng(seed);
  std::shuffle(to_new.begin(), to_new.end(), rng);
  const Graph h = reorder_with(g, to_new);
  const auto close = [tol = pair_tolerance(g, h)](Weight a, Weight b) {
    return weights_close(a, b, tol);
  };

  const core::EarApspEngine og(g, sequential_apsp());
  const core::EarApspEngine oh(h, sequential_apsp());
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      const Weight dg = og.query(u, v);
      const Weight dh = oh.query(to_new[u], to_new[v]);
      if (!close(dg, dh)) {
        std::ostringstream msg;
        msg.precision(17);
        msg << "relabeling changed distance of pair (" << u << ", " << v
            << "): " << dg << " -> " << dh;
        return msg.str();
      }
    }
  }

  if (mcb_dim_limit == 0 || cycle_dimension(g) <= mcb_dim_limit) {
    const auto rg = sequential_mcb(g);
    const auto rh = sequential_mcb(h);
    if (rg.basis.size() != rh.basis.size() ||
        !close(rg.total_weight, rh.total_weight)) {
      std::ostringstream msg;
      msg.precision(17);
      msg << "relabeling changed the MCB: dim " << rg.basis.size() << " -> "
          << rh.basis.size() << ", weight " << rg.total_weight << " -> "
          << rh.total_weight;
      return msg.str();
    }
  }
  return std::nullopt;
}

CheckResult check_scale_linearity(const Graph& g, std::uint64_t seed,
                                  std::size_t mcb_dim_limit) {
  if (g.num_vertices() == 0) return std::nullopt;
  constexpr Weight kFactors[] = {0.5, 2.0, 3.25, 10.0};
  const Weight factor = kFactors[seed % 4];
  const Graph h = scale_weights(g, factor);
  // The g side's error is scaled by the factor too, and that scaled error
  // equals distance_tolerance(h) because the weight sum scales linearly.
  const auto close = [tol = 2 * distance_tolerance(h) +
                            distance_tolerance(g)](Weight a, Weight b) {
    return weights_close(a, b, tol);
  };

  const core::EarApspEngine og(g, sequential_apsp());
  const core::EarApspEngine oh(h, sequential_apsp());
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      const Weight want = og.query(u, v) * factor;
      const Weight got = oh.query(u, v);
      if (!close(got, want)) {
        std::ostringstream msg;
        msg.precision(17);
        msg << "scaling by " << factor << " broke linearity at pair (" << u
            << ", " << v << "): got " << got << ", want " << want;
        return msg.str();
      }
    }
  }

  if (mcb_dim_limit == 0 || cycle_dimension(g) <= mcb_dim_limit) {
    const auto rg = sequential_mcb(g);
    const auto rh = sequential_mcb(h);
    if (rg.basis.size() != rh.basis.size() ||
        !close(rh.total_weight, rg.total_weight * factor)) {
      std::ostringstream msg;
      msg.precision(17);
      msg << "scaling by " << factor << " broke the MCB: dim "
          << rg.basis.size() << " -> " << rh.basis.size() << ", weight "
          << rg.total_weight << " -> " << rh.total_weight;
      return msg.str();
    }
  }
  return std::nullopt;
}

CheckResult check_subdivision_invariance(const Graph& g, std::uint64_t seed,
                                         std::size_t mcb_dim_limit) {
  if (g.num_edges() == 0) return std::nullopt;
  const EdgeId e = static_cast<EdgeId>(seed % g.num_edges());
  const double t = static_cast<double>((seed >> 8) % 101) / 100.0;
  const Graph h = subdivide_edge(g, e, t);
  const auto close = [tol = pair_tolerance(g, h)](Weight a, Weight b) {
    return weights_close(a, b, tol);
  };

  const core::EarApspEngine og(g, sequential_apsp());
  const core::EarApspEngine oh(h, sequential_apsp());
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      const Weight before = og.query(u, v);
      const Weight after = oh.query(u, v);
      if (!close(before, after)) {
        std::ostringstream msg;
        msg.precision(17);
        msg << "subdividing edge " << e << " (t=" << t
            << ") changed distance of original pair (" << u << ", " << v
            << "): " << before << " -> " << after;
        return msg.str();
      }
    }
  }

  if (mcb_dim_limit == 0 || cycle_dimension(g) <= mcb_dim_limit) {
    const auto rg = sequential_mcb(g);
    const auto rh = sequential_mcb(h);
    if (rg.basis.size() != rh.basis.size() ||
        !close(rg.total_weight, rh.total_weight)) {
      std::ostringstream msg;
      msg.precision(17);
      msg << "subdividing edge " << e << " changed the MCB: dim "
          << rg.basis.size() << " -> " << rh.basis.size() << ", weight "
          << rg.total_weight << " -> " << rh.total_weight;
      return msg.str();
    }
  }
  return std::nullopt;
}

}  // namespace eardec::testing
