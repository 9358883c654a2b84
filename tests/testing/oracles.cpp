#include "testing/oracles.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <sstream>
#include <vector>

#include <cstring>
#include <random>

#include "core/ear_apsp.hpp"
#include "serve/oracle_server.hpp"
#include "mcb/ear_mcb.hpp"
#include "sssp/dijkstra.hpp"
#include "testing/depina.hpp"
#include "testing/floyd_warshall.hpp"
#include "testing/horton.hpp"

namespace eardec::testing {

using graph::EdgeId;
using graph::VertexId;
using graph::Weight;

Weight distance_tolerance(const Graph& g) {
  Weight sum = 0;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (std::isfinite(g.weight(e))) sum += g.weight(e);
  }
  return (64.0 + static_cast<Weight>(g.num_edges())) *
         std::numeric_limits<Weight>::epsilon() * sum;
}

bool weights_close(Weight a, Weight b, Weight abs_tol) {
  if (a == b) return true;  // covers the +inf / +inf unreachable case
  if (std::isinf(a) || std::isinf(b)) return false;
  const Weight scale = std::max<Weight>({1.0, std::abs(a), std::abs(b)});
  return std::abs(a - b) <= 1e-9 * scale + abs_tol;
}

namespace {

std::string describe_mismatch(std::string_view what, VertexId u, VertexId v,
                              Weight got, Weight want) {
  std::ostringstream msg;
  msg.precision(17);
  msg << what << " mismatch at pair (" << u << ", " << v << "): got " << got
      << ", reference " << want;
  return msg.str();
}

}  // namespace

CheckResult check_apsp_vs_dijkstra(const Graph& g,
                                   const core::ApspOptions& options) {
  if (g.num_vertices() == 0) return std::nullopt;
  const auto close = [tol = distance_tolerance(g)](Weight a, Weight b) {
    return weights_close(a, b, tol);
  };
  const core::EarApspEngine oracle(g, options);
  for (VertexId s = 0; s < g.num_vertices(); ++s) {
    const auto ref = sssp::dijkstra(g, s);
    const auto row = oracle.distances_from(s);
    for (VertexId t = 0; t < g.num_vertices(); ++t) {
      if (!close(oracle.query(s, t), ref.dist[t])) {
        return describe_mismatch("EarApspEngine::query", s, t,
                                 oracle.query(s, t), ref.dist[t]);
      }
      if (!close(row[t], ref.dist[t])) {
        return describe_mismatch("distances_from", s, t, row[t], ref.dist[t]);
      }
    }
  }
  return std::nullopt;
}

CheckResult check_apsp_vs_floyd_warshall(const Graph& g) {
  if (g.num_vertices() == 0) return std::nullopt;
  const auto close = [tol = distance_tolerance(g)](Weight a, Weight b) {
    return weights_close(a, b, tol);
  };
  const auto ours = core::ear_apsp_matrix(
      g, {.mode = core::ExecutionMode::Sequential});
  const auto ref = floyd_warshall(g);
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      if (!close(ours.at(u, v), ref.at(u, v))) {
        return describe_mismatch("ear_apsp_matrix", u, v, ours.at(u, v),
                                 ref.at(u, v));
      }
    }
  }
  return std::nullopt;
}

namespace {

CheckResult compare_mcb(const Graph& g, const mcb::McbResult& ours,
                        std::size_t ref_dim, Weight ref_weight,
                        std::string_view ref_name) {
  const auto close = [tol = distance_tolerance(g)](Weight a, Weight b) {
    return weights_close(a, b, tol);
  };
  if (ours.basis.size() != ref_dim) {
    std::ostringstream msg;
    msg << "MCB dimension mismatch vs " << ref_name << ": got "
        << ours.basis.size() << ", reference " << ref_dim;
    return msg.str();
  }
  if (!close(ours.total_weight, ref_weight)) {
    std::ostringstream msg;
    msg.precision(17);
    msg << "MCB weight mismatch vs " << ref_name << ": got "
        << ours.total_weight << ", reference " << ref_weight;
    return msg.str();
  }
  if (!mcb::validate_basis(g, ours)) {
    return std::string("MCB result is not a valid cycle basis (vs ") +
           std::string(ref_name) + ")";
  }
  return std::nullopt;
}

}  // namespace

CheckResult check_mcb_vs_horton(const Graph& g) {
  const auto ours = mcb::minimum_cycle_basis(
      g, {.mode = core::ExecutionMode::Sequential});
  const auto ref = horton_mcb(g);
  return compare_mcb(g, ours, ref.basis.size(), ref.total_weight, "Horton");
}

CheckResult check_mcb_vs_depina(const Graph& g) {
  const auto with_ears = mcb::minimum_cycle_basis(
      g, {.mode = core::ExecutionMode::Sequential,
          .use_ear_decomposition = true});
  const auto ref = depina_mcb(g);
  if (auto fail = compare_mcb(g, with_ears, ref.basis.size(),
                              ref.total_weight, "DePina")) {
    return fail;
  }
  // Lemma 3.1: contraction must not change dimension or weight.
  const auto without = mcb::minimum_cycle_basis(
      g, {.mode = core::ExecutionMode::Sequential,
          .use_ear_decomposition = false});
  if (with_ears.basis.size() != without.basis.size() ||
      !weights_close(with_ears.total_weight, without.total_weight,
                     distance_tolerance(g))) {
    std::ostringstream msg;
    msg.precision(17);
    msg << "ear contraction changed the MCB: with ears dim="
        << with_ears.basis.size() << " weight=" << with_ears.total_weight
        << ", without dim=" << without.basis.size()
        << " weight=" << without.total_weight;
    return msg.str();
  }
  return std::nullopt;
}

CheckResult check_depina_vs_scalar_reference(const Graph& g) {
  const auto ref = depina_mcb_reference(g);
  const auto opt = depina_mcb(g);
  if (opt.basis.size() != ref.basis.size()) {
    std::ostringstream msg;
    msg << "optimized De Pina dimension " << opt.basis.size()
        << " != scalar reference " << ref.basis.size();
    return msg.str();
  }
  if (opt.total_weight != ref.total_weight) {  // bit-for-bit, no tolerance
    std::ostringstream msg;
    msg.precision(17);
    msg << "optimized De Pina weight " << opt.total_weight
        << " != scalar reference " << ref.total_weight;
    return msg.str();
  }
  // Phase order and the signed-graph search are deterministic, so the two
  // drivers must select the very same cycles, not just equal totals.
  for (std::size_t i = 0; i < ref.basis.size(); ++i) {
    if (opt.basis[i].edges != ref.basis[i].edges) {
      std::ostringstream msg;
      msg << "optimized De Pina picked a different cycle at phase " << i
          << " (" << opt.basis[i].edges.size() << " vs "
          << ref.basis[i].edges.size() << " edges)";
      return msg.str();
    }
  }
  // The Mehlhorn–Michail driver shares the new GF(2) kernels; its basis
  // selection differs (candidate store vs signed graph) but dimension and
  // minimum weight are unique.
  const auto mm = mcb::minimum_cycle_basis(
      g, {.mode = core::ExecutionMode::Sequential,
          .use_ear_decomposition = false});
  return compare_mcb(g, mm, ref.basis.size(), ref.total_weight,
                     "scalar DePina");
}

CheckResult check_served_queries_vs_dijkstra(const Graph& g,
                                             std::uint64_t seed) {
  if (g.num_vertices() == 0) return std::nullopt;
  const auto close = [tol = distance_tolerance(g)](Weight a, Weight b) {
    return weights_close(a, b, tol);
  };

  const serve::OracleServer sequential(
      g, {.build = {.mode = core::ExecutionMode::Sequential}});
  const serve::OracleServer multicore(
      g, {.build = {.mode = core::ExecutionMode::Multicore,
                    .cpu_threads = 3}});

  // Every pair once, in seed-shuffled order: batch composition must not
  // affect any answer.
  std::vector<serve::Query> batch;
  batch.reserve(static_cast<std::size_t>(g.num_vertices()) *
                g.num_vertices());
  for (VertexId s = 0; s < g.num_vertices(); ++s) {
    for (VertexId t = 0; t < g.num_vertices(); ++t) {
      batch.push_back({s, t});
    }
  }
  std::shuffle(batch.begin(), batch.end(), std::mt19937_64(seed));

  const std::vector<Weight> via_sequential = sequential.query_batch(batch);
  const std::vector<Weight> via_multicore = multicore.query_batch(batch);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const serve::Query q = batch[i];
    const Weight scalar = sequential.query(q.s, q.t);
    // Serving determinism: every serve path bitwise-identical.
    if (std::memcmp(&via_sequential[i], &scalar, sizeof(Weight)) != 0) {
      return describe_mismatch("served batch (Sequential) vs scalar", q.s,
                               q.t, via_sequential[i], scalar);
    }
    if (std::memcmp(&via_multicore[i], &scalar, sizeof(Weight)) != 0) {
      return describe_mismatch("served batch (Multicore) vs scalar", q.s,
                               q.t, via_multicore[i], scalar);
    }
  }
  // Correctness: scalar answers vs an independent Dijkstra per source.
  for (VertexId s = 0; s < g.num_vertices(); ++s) {
    const auto ref = sssp::dijkstra(g, s);
    for (VertexId t = 0; t < g.num_vertices(); ++t) {
      const Weight got = sequential.query(s, t);
      if (!close(got, ref.dist[t])) {
        return describe_mismatch("served scalar vs Dijkstra", s, t, got,
                                 ref.dist[t]);
      }
    }
  }
  return std::nullopt;
}

namespace {

/// The deliberately broken SSSP: per vertex, only the first half-edge to
/// each distinct neighbour is relaxed, so later-added parallel edges are
/// invisible. Self-loops are skipped (they never relax anything anyway).
std::vector<Weight> buggy_first_edge_dijkstra(const Graph& g, VertexId s) {
  std::vector<Weight> dist(g.num_vertices(), graph::kInfWeight);
  using Item = std::pair<Weight, VertexId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
  dist[s] = 0;
  pq.emplace(0, s);
  std::vector<bool> seen(g.num_vertices(), false);
  while (!pq.empty()) {
    const auto [d, v] = pq.top();
    pq.pop();
    if (d > dist[v]) continue;
    std::fill(seen.begin(), seen.end(), false);
    for (const graph::HalfEdge& he : g.neighbors(v)) {
      if (he.to == v) continue;
      if (seen[he.to]) continue;  // THE BUG: later parallels never relax
      seen[he.to] = true;
      if (d + he.weight < dist[he.to]) {
        dist[he.to] = d + he.weight;
        pq.emplace(dist[he.to], he.to);
      }
    }
  }
  return dist;
}

}  // namespace

CheckResult check_injected_parallel_bug(const Graph& g) {
  const auto close = [tol = distance_tolerance(g)](Weight a, Weight b) {
    return weights_close(a, b, tol);
  };
  for (VertexId s = 0; s < g.num_vertices(); ++s) {
    const auto ref = sssp::dijkstra(g, s);
    const auto buggy = buggy_first_edge_dijkstra(g, s);
    for (VertexId t = 0; t < g.num_vertices(); ++t) {
      if (!close(buggy[t], ref.dist[t])) {
        return describe_mismatch("injected first-parallel-edge bug", s, t,
                                 buggy[t], ref.dist[t]);
      }
    }
  }
  return std::nullopt;
}

}  // namespace eardec::testing
