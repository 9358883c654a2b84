#include "core/ear_apsp.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>
#include <unordered_map>

#include "connectivity/dfs.hpp"
#include "obs/phase.hpp"
#include "obs/trace.hpp"
#include "sssp/delta_stepping.hpp"
#include "sssp/dijkstra.hpp"
#include "sssp/multi_source.hpp"

namespace eardec::core {
namespace {

/// Phase-II CPU kernel choice: units at least this wide on components at
/// least this large run the multi-source lane block, the rest per-source
/// Dijkstra. The batched kernel measures ahead from these up (the
/// BM_Crossover* cells of bench_sssp_kernels); below them the two are
/// mixed (docs/sssp_perf.md).
constexpr VertexId kMultiSourceMinLanes = 4;
constexpr VertexId kMultiSourceMinVertices = 24;

/// (anchor reduced-id, distance-to-anchor) pairs through which a component-
/// local vertex reaches the reduced graph: itself at 0 if kept, otherwise
/// its chain's left/right anchors.
struct Exits {
  std::array<std::pair<VertexId, Weight>, 2> e;
  std::size_t count;
};

/// The head [0, s] of a full distance row from source s.
void keep_head(std::span<const Weight> row, std::span<Weight> head) {
  std::copy_n(row.begin(), head.size(), head.begin());
}

/// Calls f(v, S(e, v)) for every v of the triangle's row e: the head of
/// row e for v <= e, then one cell of each later row.
template <typename F>
void sweep_row(const TriangleMatrix& s, VertexId e, const F& f) {
  const std::span<const Weight> head = s.head(e);
  for (VertexId v = 0; v <= e; ++v) f(v, head[v]);
  for (VertexId v = e + 1; v < s.size(); ++v) f(v, s.at(v, e));
}

Exits exits_of(const reduce::ReducedGraph& r, VertexId local) {
  const VertexId ru = r.to_reduced(local);
  if (ru != graph::kNullVertex) {
    return {{{{ru, 0.0}, {0, 0.0}}}, 1};
  }
  const reduce::ChainSet& cs = r.chains();
  return {{{{r.to_reduced(cs.left(local)), cs.dist_left(local)},
            {r.to_reduced(cs.right(local)), cs.dist_right(local)}}},
          2};
}

}  // namespace

struct EarApspEngine::Impl {
  Graph g;
  ApspOptions opts;
  connectivity::BiconnectedComponents bcc;
  connectivity::ConnectedComponents cc;
  std::optional<connectivity::BlockCutTree> bct;
  std::optional<connectivity::TreeLca> lca;
  std::vector<connectivity::SubgraphView> views;
  std::vector<reduce::ReducedGraph> reduced;
  /// S^r per component, packed: S^r is symmetric, so row s keeps [0, s].
  std::vector<TriangleMatrix> rtables;
  std::vector<std::unordered_map<VertexId, VertexId>> local_of;
  /// Per component, per component-local vertex: its reduced-graph exits,
  /// precomputed once in phase I so block_distance never re-derives chain
  /// anchors in its inner loop.
  std::vector<std::vector<Exits>> exits;
  TriangleMatrix ap_table;  // by cut index
  std::optional<hetero::Device> device;
  /// One pool shared by every parallel phase (0, I, III) and reused by the
  /// EarApsp block-table materialization.
  std::optional<hetero::ThreadPool> pool;
  PhaseTimings timings;
  MemoryUsage memory;
  std::uint64_t sssp_runs = 0;
  hetero::SchedulerStats sched_stats{};

  explicit Impl(const Graph& graph, const ApspOptions& options)
      : g(graph), opts(options) {
    if (opts.mode == ExecutionMode::DeviceOnly ||
        opts.mode == ExecutionMode::Heterogeneous) {
      device.emplace(opts.device);
    }
    if (opts.mode == ExecutionMode::Multicore ||
        opts.mode == ExecutionMode::Heterogeneous) {
      pool.emplace(opts.cpu_threads);
    }
    decompose();
    reduce_components();
    process();
    build_ap_table();
    finalize_memory();
  }

  /// Runs fn(i) for i in [0, count) on whatever parallel resource the mode
  /// provides: the shared pool, the device grid, or the calling thread.
  void parallel_over(std::size_t count,
                     const std::function<void(std::size_t)>& fn) {
    if (count == 0) return;
    if (pool && count > 1) {
      pool->parallel_for(0, count, fn);
    } else if (device && opts.mode == ExecutionMode::DeviceOnly && count > 1) {
      device->launch(count, fn);
    } else {
      for (std::size_t i = 0; i < count; ++i) fn(i);
    }
  }

  // Phase 0: biconnected components, block-cut tree, LCA tables. The
  // component extraction and local-id maps are independent per component
  // and run across the pool. Timing (here and in every phase below) runs
  // through obs::ScopedPhase: one clock feeds the PhaseTimings field, the
  // "apsp.phase.*" registry gauge, and the trace span.
  void decompose() {
    obs::ScopedPhase phase(timings.decompose, "apsp.decompose",
                           "apsp.phase.decompose_s");
    bcc = connectivity::biconnected_components(g);
    cc = connectivity::connected_components(g);
    bct.emplace(g, bcc);
    std::vector<std::vector<std::uint32_t>> tree_adj(bct->num_nodes());
    for (std::uint32_t node = 0; node < bct->num_nodes(); ++node) {
      tree_adj[node] = bct->neighbors(node);
    }
    lca.emplace(tree_adj);
    views.resize(bcc.num_components);
    local_of.resize(bcc.num_components);
    parallel_over(bcc.num_components, [&](std::size_t c) {
      views[c] = connectivity::extract_component(
          g, bcc, static_cast<std::uint32_t>(c));
      auto& map = local_of[c];
      map.reserve(views[c].to_parent.size() * 2);
      for (VertexId l = 0; l < views[c].to_parent.size(); ++l) {
        map.emplace(views[c].to_parent[l], l);
      }
    });
  }

  // Phase I: per-component chain contraction, parallel across components.
  // Vertices whose *global* degree differs from their in-component degree
  // (articulation points, self-loop endpoints) are pinned so
  // cross-component routing stays exact. Also materializes the per-vertex
  // exit cache that phase III and every query read.
  void reduce_components() {
    obs::ScopedPhase phase(timings.reduce, "apsp.reduce",
                           "apsp.phase.reduce_s");
    std::vector<std::optional<reduce::ReducedGraph>> built(views.size());
    exits.resize(views.size());
    parallel_over(views.size(), [&](std::size_t c) {
      const auto& view = views[c];
      std::vector<bool> keep(view.graph.num_vertices(),
                             !opts.use_ear_reduction);
      if (opts.use_ear_reduction) {
        for (VertexId l = 0; l < view.graph.num_vertices(); ++l) {
          keep[l] = g.degree(view.to_parent[l]) != view.graph.degree(l);
        }
      }
      built[c].emplace(view.graph, reduce::ReduceMode::ForApsp, &keep);
      exits[c].resize(view.graph.num_vertices());
      for (VertexId l = 0; l < view.graph.num_vertices(); ++l) {
        exits[c][l] = exits_of(*built[c], l);
      }
    });
    reduced.reserve(built.size());
    for (auto& r : built) reduced.push_back(std::move(*r));
  }

  // Phase II: APSP over every reduced graph. Work units are blocks of
  // sources of one component, sized by component for the sorted queue.
  // Every worker thread owns pre-sized workspaces and a scratch row
  // (largest reduced component), so the drain performs no per-unit
  // allocation.
  void process() {
    obs::ScopedPhase phase(timings.process, "apsp.process",
                           "apsp.phase.process_s");
    rtables.resize(reduced.size());
    struct Unit {
      std::uint32_t comp;
      VertexId src_begin, src_end;
    };
    std::vector<Unit> units;
    std::vector<hetero::WorkUnit> queue_units;
    VertexId max_nr = 0;
    for (std::uint32_t c = 0; c < reduced.size(); ++c) {
      const VertexId nr = reduced[c].graph().num_vertices();
      max_nr = std::max(max_nr, nr);
      rtables[c] = TriangleMatrix(nr);
      sssp_runs += nr;
      for (VertexId s = 0; s < nr; s += opts.sources_per_unit) {
        const auto id = static_cast<std::uint32_t>(units.size());
        units.push_back(
            {c, s, std::min<VertexId>(s + opts.sources_per_unit, nr)});
        queue_units.push_back({id, views[c].graph.num_vertices()});
      }
    }

    // The batched kernel processes at most kMaxSourceLanes sources per
    // sweep; wider units are split into lane-block passes inside cpu_fn.
    const std::uint32_t ms_lanes =
        std::min<std::uint32_t>(std::max<std::uint32_t>(
                                    opts.sources_per_unit, 1),
                                sssp::kMaxSourceLanes);
    // One per CPU worker, each on its own cache lines: the kernels write
    // their workspaces' vector headers in every frontier round, and with
    // neighbouring workers' workspaces sharing a line phase II ran about
    // 12 % slower at 4 threads on table1_scale(20000).
    struct alignas(64) CpuWorker {
      sssp::DijkstraWorkspace dijkstra;
      sssp::MultiSourceWorkspace multi_source;
      /// Dijkstra fills a whole row; row s keeps only its head [0, s].
      std::vector<Weight> row;
    };
    std::vector<CpuWorker> cpu_workers(pool ? std::max(1u, opts.cpu_threads)
                                            : 1);
    for (CpuWorker& w : cpu_workers) {
      w.dijkstra.ensure(max_nr);
      w.multi_source.ensure(max_nr, ms_lanes);
      w.row.resize(max_nr);
    }
    sssp::DeltaSteppingWorkspace device_ws;  // single device driver thread
    std::vector<Weight> device_row;
    if (device) {
      device_ws.ensure(max_nr);
      device_row.resize(max_nr);
    }

    const auto cpu_fn = [&](const hetero::WorkUnit& wu, unsigned worker) {
      EARDEC_TRACE_SCOPE("apsp.sssp_block", "comp", units[wu.id].comp);
      const Unit& u = units[wu.id];
      const Graph& rg = reduced[u.comp].graph();
      CpuWorker& w = cpu_workers[worker];
      if (u.src_end - u.src_begin >= kMultiSourceMinLanes &&
          rg.num_vertices() >= kMultiSourceMinVertices) {
        for (VertexId s = u.src_begin; s < u.src_end; s += ms_lanes) {
          w.multi_source.distances(
              rg, s, std::min<VertexId>(s + ms_lanes, u.src_end),
              rtables[u.comp]);
        }
      } else {
        const std::span<Weight> row(w.row.data(), rg.num_vertices());
        for (VertexId s = u.src_begin; s < u.src_end; ++s) {
          w.dijkstra.distances(rg, s, row);
          keep_head(row, rtables[u.comp].head(s));
        }
      }
    };
    const auto device_fn = [&](const hetero::WorkUnit& wu, unsigned) {
      EARDEC_TRACE_SCOPE("apsp.sssp_block", "comp", units[wu.id].comp);
      const Unit& u = units[wu.id];
      const Graph& rg = reduced[u.comp].graph();
      const std::span<Weight> row(device_row.data(), rg.num_vertices());
      for (VertexId s = u.src_begin; s < u.src_end; ++s) {
        device_ws.distances(rg, s, row, 0, nullptr, &*device);
        keep_head(row, rtables[u.comp].head(s));
      }
    };

    switch (opts.mode) {
      case ExecutionMode::Sequential: {
        for (const auto& qu : queue_units) cpu_fn(qu, 0);
        sched_stats.cpu_units += queue_units.size();
        break;
      }
      case ExecutionMode::Multicore: {
        hetero::WorkQueue queue(std::move(queue_units));
        sched_stats = hetero::run_cpu_only(queue, opts.cpu_threads, cpu_fn,
                                           opts.cpu_batch);
        break;
      }
      case ExecutionMode::DeviceOnly: {
        hetero::WorkQueue queue(std::move(queue_units));
        while (true) {
          const auto batch = queue.take_heavy(opts.device_batch);
          if (batch.empty()) break;
          for (const auto& wu : batch) device_fn(wu, 0);
          sched_stats.device_units += batch.size();
        }
        break;
      }
      case ExecutionMode::Heterogeneous: {
        hetero::WorkQueue queue(std::move(queue_units));
        sched_stats = hetero::run_heterogeneous(
            queue,
            {.cpu_threads = opts.cpu_threads,
             .cpu_batch = opts.cpu_batch,
             .device_batch = opts.device_batch},
            cpu_fn, device_fn);
        break;
      }
    }
  }

  [[nodiscard]] Weight block_distance(std::uint32_t comp, VertexId lu,
                                      VertexId lv) const {
    if (lu == lv) return 0;
    const reduce::ReducedGraph& r = reduced[comp];
    const TriangleMatrix& s = rtables[comp];
    const Exits& eu = exits[comp][lu];
    const Exits& ev = exits[comp][lv];
    Weight best = graph::kInfWeight;
    for (std::size_t i = 0; i < eu.count; ++i) {
      for (std::size_t j = 0; j < ev.count; ++j) {
        const Weight cand = eu.e[i].second + s.at(eu.e[i].first, ev.e[j].first) +
                            ev.e[j].second;
        best = std::min(best, cand);
      }
    }
    // Same-chain pairs also have the direct in-chain path.
    const reduce::ChainSet& cs = r.chains();
    if (cs.chain_of[lu] != reduce::kNoChain &&
        cs.chain_of[lu] == cs.chain_of[lv]) {
      const reduce::Chain& chain = cs.chains[cs.chain_of[lu]];
      const Weight direct = std::abs(chain.prefix[cs.position[lu]] -
                                     chain.prefix[cs.position[lv]]);
      best = std::min(best, direct);
    }
    return best;
  }

  // Row form of block_distance: d(lu, lv) for every lv of the component in
  // one sweep. Instead of evaluating the 2x2 anchor formula per pair, the
  // row's exit distances are folded into a per-reduced-vertex array once
  // (anchor_row[rv] = min_i d(lu, exit_i) + S(exit_i, rv)), then every
  // chain contributes its interior by walking the prefix array linearly —
  // a branch-free two-term min per vertex — and lu's own chain adds the
  // direct in-chain candidate with one more prefix walk. Cache-linear and
  // vectorizable where the per-pair form was a gather per cell.
  //
  // Bit-identical to per-pair block_distance: the sweep preserves each
  // candidate's addition order ((d_exit + S) + d_entry), min is exact, and
  // rounded addition is monotone, so folding the min early cannot change
  // the final min.
  void block_distance_row(std::uint32_t comp, VertexId lu,
                          std::span<Weight> out,
                          std::vector<Weight>& anchor_row) const {
    const reduce::ReducedGraph& r = reduced[comp];
    const TriangleMatrix& s = rtables[comp];
    const VertexId nr = r.graph().num_vertices();
    const Exits& eu = exits[comp][lu];

    anchor_row.resize(nr);
    const Weight d0 = eu.e[0].second;
    sweep_row(s, eu.e[0].first, [&](VertexId rv, Weight w) {
      anchor_row[rv] = d0 + w;
    });
    if (eu.count == 2) {
      const Weight d1 = eu.e[1].second;
      sweep_row(s, eu.e[1].first, [&](VertexId rv, Weight w) {
        anchor_row[rv] = std::min(anchor_row[rv], d1 + w);
      });
    }

    // Kept vertices read their reduced entry directly; chain interiors
    // enter through either anchor.
    for (VertexId rv = 0; rv < nr; ++rv) {
      out[r.to_original(rv)] = anchor_row[rv];
    }
    const reduce::ChainSet& cs = r.chains();
    for (const reduce::Chain& chain : cs.chains) {
      const Weight dl = anchor_row[r.to_reduced(chain.left)];
      const Weight dr = anchor_row[r.to_reduced(chain.right)];
      const Weight total = chain.total;
      const std::size_t len = chain.interior.size();
      for (std::size_t i = 0; i < len; ++i) {
        out[chain.interior[i]] = std::min(dl + chain.prefix[i],
                                          dr + (total - chain.prefix[i]));
      }
    }
    if (cs.chain_of[lu] != reduce::kNoChain) {
      const reduce::Chain& chain = cs.chains[cs.chain_of[lu]];
      const Weight pu = chain.prefix[cs.position[lu]];
      const std::size_t len = chain.interior.size();
      for (std::size_t i = 0; i < len; ++i) {
        out[chain.interior[i]] =
            std::min(out[chain.interior[i]], std::abs(pu - chain.prefix[i]));
      }
    }
    out[lu] = 0;
  }

  // Phase III stage 2: distances between all articulation points, in two
  // passes over the AP triangle.
  //
  // Pass 1 (parallel over blocks) writes every same-block pair of cuts.
  // Cuts are kept vertices, so such a distance is one S^r cell, equal bit
  // for bit to block_distance. Each block reads its cut rows in ascending
  // reduced id, so every read is a head read. Two cuts share at most one
  // block, so the blocks write disjoint cells.
  //
  // Pass 2 (parallel over source APs) walks the block-cut tree from each
  // source, accumulating the pass-1 legs along the unique tree path, and
  // writes only the cross-block cells of its own row (the columns below
  // it). Pass 2 reads only same-block cells, so its reads and writes never
  // meet.
  void build_ap_table() {
    obs::ScopedPhase phase(timings.ap_table, "apsp.ap_table",
                           "apsp.phase.ap_table_s");
    const auto& cuts = bct->cut_vertices();
    const auto a = static_cast<std::uint32_t>(cuts.size());
    const std::uint32_t num_blocks = bct->num_blocks();
    ap_table = TriangleMatrix(a);

    parallel_over(num_blocks, [&](std::size_t block) {
      const auto b = static_cast<std::uint32_t>(block);
      // (reduced id, cut index) of every cut of block b.
      static thread_local std::vector<std::pair<VertexId, std::uint32_t>>
          block_cuts;
      block_cuts.clear();
      for (const std::uint32_t nb : bct->neighbors(b)) {
        const std::uint32_t ci = nb - num_blocks;
        block_cuts.emplace_back(
            reduced[b].to_reduced(local_of[b].at(cuts[ci])), ci);
      }
      std::sort(block_cuts.begin(), block_cuts.end());
      const TriangleMatrix& s = rtables[b];
      for (std::size_t i = 1; i < block_cuts.size(); ++i) {
        const std::span<const Weight> head = s.head(block_cuts[i].first);
        for (std::size_t j = 0; j < i; ++j) {
          ap_table.at(block_cuts[i].second, block_cuts[j].second) =
              head[block_cuts[j].first];
        }
      }
    });

    const auto source_walk = [&](std::size_t ai) {
      EARDEC_TRACE_SCOPE("apsp.ap_source_walk", "source", ai);
      const auto source = static_cast<std::uint32_t>(ai);
      const std::span<Weight> row = ap_table.head(source);
      row[source] = 0;
      // DFS over tree nodes, carrying the distance at the entry cut.
      struct Frame {
        std::uint32_t node;
        std::uint32_t from;
        Weight dist;  // distance from source AP to this node's entry cut
      };
      constexpr std::uint32_t kNone = UINT32_MAX;
      const std::uint32_t source_node = bct->cut_node(source);
      std::vector<Frame> stack{{source_node, kNone, 0.0}};
      while (!stack.empty()) {
        const Frame f = stack.back();
        stack.pop_back();
        if (f.node < num_blocks) {
          // Block node entered through cut `from` (always a cut node id).
          const std::uint32_t entry = f.from - num_blocks;
          for (const std::uint32_t nb : bct->neighbors(f.node)) {
            if (nb == f.from) continue;
            const std::uint32_t ci = nb - num_blocks;
            const Weight d = f.dist + ap_table.at(entry, ci);
            // Blocks next to the source hold its same-block pairs (pass 1).
            if (ci < source && f.from != source_node) row[ci] = d;
            stack.push_back({nb, f.node, d});
          }
        } else {
          // Cut node: continue into every adjacent block.
          for (const std::uint32_t nb : bct->neighbors(f.node)) {
            if (nb == f.from) continue;
            stack.push_back({nb, f.node, f.dist});
          }
        }
      }
    };

    parallel_over(a, source_walk);
  }

  void finalize_memory() {
    std::vector<VertexId> reduced_sizes;
    reduced_sizes.reserve(reduced.size());
    for (const auto& r : reduced) {
      reduced_sizes.push_back(r.graph().num_vertices());
    }
    memory = compute_memory_usage(g, bcc, reduced_sizes);
  }

  [[nodiscard]] std::vector<Weight> distances_from(VertexId u) const {
    if (u >= g.num_vertices()) {
      throw std::out_of_range("distances_from: vertex out of range");
    }
    std::vector<Weight> out(g.num_vertices(), graph::kInfWeight);
    out[u] = 0;
    if (g.num_vertices() == 0 || bct->block_of(u) == connectivity::kNoComponent) {
      return out;  // isolated vertex
    }

    // Fill a whole block given the distance to one of its vertices: one
    // chain-prefix row sweep, then merge the offsets into the output.
    const auto fill_block = [&](std::uint32_t b, VertexId entry_local,
                                Weight entry_dist) {
      const auto& verts = views[b].to_parent;
      static thread_local std::vector<Weight> row, anchor_row;
      row.resize(verts.size());
      block_distance_row(b, entry_local, row, anchor_row);
      for (VertexId lv = 0; lv < verts.size(); ++lv) {
        const Weight d = entry_dist + row[lv];
        if (d < out[verts[lv]]) out[verts[lv]] = d;
      }
    };

    // Start node: u's cut node if u is an articulation point, else its
    // unique block. DFS over the block-cut tree carrying the distance at
    // each entry cut, exactly as in build_ap_table but from one vertex.
    const std::uint32_t cu = bct->cut_index(u);
    struct Frame {
      std::uint32_t node;
      std::uint32_t from;
      Weight dist;  // distance from u to this node's entry cut
    };
    constexpr std::uint32_t kNone = UINT32_MAX;
    std::vector<Frame> stack;
    if (cu != connectivity::kNoComponent) {
      stack.push_back({bct->cut_node(cu), kNone, 0.0});
    } else {
      const std::uint32_t b = bct->block_of(u);
      fill_block(b, local_of[b].at(u), 0.0);
      for (const std::uint32_t nb : bct->neighbors(b)) {
        const VertexId cut = bct->cut_vertices()[nb - bct->num_blocks()];
        stack.push_back({nb, b, out[cut]});
      }
    }
    while (!stack.empty()) {
      const Frame f = stack.back();
      stack.pop_back();
      if (f.node < bct->num_blocks()) {
        const std::uint32_t b = f.node;
        const VertexId entry =
            bct->cut_vertices()[f.from - bct->num_blocks()];
        fill_block(b, local_of[b].at(entry), f.dist);
        for (const std::uint32_t nb : bct->neighbors(f.node)) {
          if (nb == f.from) continue;
          const VertexId cut = bct->cut_vertices()[nb - bct->num_blocks()];
          stack.push_back({nb, f.node, out[cut]});
        }
      } else {
        for (const std::uint32_t nb : bct->neighbors(f.node)) {
          if (nb == f.from) continue;
          stack.push_back({nb, f.node, f.dist});
        }
      }
    }
    return out;
  }

  [[nodiscard]] Weight ap_distance(VertexId u, VertexId v) const {
    return ap_table.at(bct->cut_index(u), bct->cut_index(v));
  }

  /// The one copy of the closed-form point-to-point routing. Same-block
  /// pairs go straight to `bd`; cross-block pairs route through the first
  /// and last articulation points of the block-cut tree path (c_first /
  /// c_last) and the AP table. `bd(block, lu, lv)` supplies the
  /// within-block metric — formula evaluation for the compact engine,
  /// materialized-table lookup for EarApsp.
  template <typename BlockDist>
  [[nodiscard]] Weight routed_distance(VertexId u, VertexId v,
                                       const BlockDist& bd) const {
    if (u >= g.num_vertices() || v >= g.num_vertices()) {
      throw std::out_of_range("EarApsp: vertex out of range");
    }
    if (u == v) return 0;
    if (cc.component[u] != cc.component[v]) return graph::kInfWeight;

    const std::uint32_t cu = bct->cut_index(u);
    const std::uint32_t cv = bct->cut_index(v);
    const std::uint32_t nu =
        cu != connectivity::kNoComponent ? bct->cut_node(cu) : bct->block_of(u);
    const std::uint32_t nv =
        cv != connectivity::kNoComponent ? bct->cut_node(cv) : bct->block_of(v);
    if (nu == nv) {  // both plain vertices of the same block
      return bd(nu, local_of[nu].at(u), local_of[nv].at(v));
    }
    // First / last articulation points on the block-cut tree path.
    const VertexId c_first =
        cu != connectivity::kNoComponent
            ? u
            : bct->cut_vertices()[lca->next_on_path(nu, nv) -
                                  bct->num_blocks()];
    const VertexId c_last =
        cv != connectivity::kNoComponent
            ? v
            : bct->cut_vertices()[lca->next_on_path(nv, nu) -
                                  bct->num_blocks()];
    const Weight du = cu != connectivity::kNoComponent
                          ? 0
                          : bd(nu, local_of[nu].at(u),
                               local_of[nu].at(c_first));
    const Weight dv = cv != connectivity::kNoComponent
                          ? 0
                          : bd(nv, local_of[nv].at(v),
                               local_of[nv].at(c_last));
    return du + ap_distance(c_first, c_last) + dv;
  }

  [[nodiscard]] Weight query(VertexId u, VertexId v) const {
    return routed_distance(
        u, v, [this](std::uint32_t b, VertexId lu, VertexId lv) {
          return block_distance(b, lu, lv);
        });
  }

  // The classification half of routed_distance: the same tree-node
  // derivation, but no distance evaluation.
  [[nodiscard]] QueryRoute route(VertexId u, VertexId v) const {
    if (u >= g.num_vertices() || v >= g.num_vertices()) {
      throw std::out_of_range("EarApsp: vertex out of range");
    }
    QueryRoute rt;
    if (u == v) return rt;  // Trivial
    if (cc.component[u] != cc.component[v]) {
      rt.kind = QueryRoute::Kind::Disconnected;
      return rt;
    }
    const std::uint32_t cu = bct->cut_index(u);
    const std::uint32_t cv = bct->cut_index(v);
    const std::uint32_t nu =
        cu != connectivity::kNoComponent ? bct->cut_node(cu) : bct->block_of(u);
    const std::uint32_t nv =
        cv != connectivity::kNoComponent ? bct->cut_node(cv) : bct->block_of(v);
    // nu == nv: both plain vertices of the same block.
    rt.kind = nu == nv ? QueryRoute::Kind::SameBlock
                       : QueryRoute::Kind::CrossBlock;
    return rt;
  }
};

EarApspEngine::EarApspEngine(const Graph& g, const ApspOptions& options)
    : impl_(std::make_unique<Impl>(g, options)) {}
EarApspEngine::~EarApspEngine() = default;
EarApspEngine::EarApspEngine(EarApspEngine&&) noexcept = default;
EarApspEngine& EarApspEngine::operator=(EarApspEngine&&) noexcept = default;

const Graph& EarApspEngine::original_graph() const { return impl_->g; }
std::uint32_t EarApspEngine::num_components() const {
  return impl_->bcc.num_components;
}
const connectivity::BiconnectedComponents& EarApspEngine::bcc() const {
  return impl_->bcc;
}
const connectivity::BlockCutTree& EarApspEngine::block_cut_tree() const {
  return *impl_->bct;
}
const reduce::ReducedGraph& EarApspEngine::reduced(std::uint32_t comp) const {
  return impl_->reduced.at(comp);
}
const connectivity::SubgraphView& EarApspEngine::component(
    std::uint32_t comp) const {
  return impl_->views.at(comp);
}
const TriangleMatrix& EarApspEngine::reduced_table(std::uint32_t comp) const {
  return impl_->rtables.at(comp);
}
const TriangleMatrix& EarApspEngine::ap_table() const {
  return impl_->ap_table;
}
Weight EarApspEngine::block_distance(std::uint32_t comp, VertexId local_u,
                                     VertexId local_v) const {
  return impl_->block_distance(comp, local_u, local_v);
}
Weight EarApspEngine::ap_distance(VertexId ap_u, VertexId ap_v) const {
  return impl_->ap_distance(ap_u, ap_v);
}
Weight EarApspEngine::query(VertexId u, VertexId v) const {
  return impl_->query(u, v);
}
QueryRoute EarApspEngine::route(VertexId u, VertexId v) const {
  return impl_->route(u, v);
}
VertexId EarApspEngine::component_local(std::uint32_t comp, VertexId u) const {
  return impl_->local_of.at(comp).at(u);
}
std::vector<Weight> EarApspEngine::distances_from(VertexId u) const {
  return impl_->distances_from(u);
}
const PhaseTimings& EarApspEngine::timings() const { return impl_->timings; }
const MemoryUsage& EarApspEngine::memory() const { return impl_->memory; }
std::uint64_t EarApspEngine::sssp_runs() const { return impl_->sssp_runs; }
hetero::SchedulerStats EarApspEngine::scheduler_stats() const {
  return impl_->sched_stats;
}

EarApsp::EarApsp(const Graph& g, const ApspOptions& options)
    : engine_(g, options) {
  // Phase III stage 1: materialize every per-component table A_i by
  // evaluating the UPDATE_DISTANCE formulas row by row. Rows of *all*
  // components are flattened into one index space and spread over the
  // engine's shared pool, so many small components don't serialize behind
  // per-component fork/join barriers.
  auto& impl = *engine_.impl_;
  timings_ = impl.timings;
  obs::ScopedPhase phase(timings_.postprocess, "apsp.postprocess",
                         "apsp.phase.postprocess_s");
  block_tables_.resize(impl.views.size());
  std::vector<std::pair<std::uint32_t, VertexId>> jobs;  // (component, row)
  for (std::uint32_t c = 0; c < impl.views.size(); ++c) {
    const VertexId n = impl.views[c].graph.num_vertices();
    block_tables_[c] = DistanceMatrix(n);
    for (VertexId lu = 0; lu < n; ++lu) jobs.emplace_back(c, lu);
  }
  impl.parallel_over(jobs.size(), [&](std::size_t j) {
    const auto [c, lu] = jobs[j];
    static thread_local std::vector<Weight> anchor_row;
    impl.block_distance_row(c, lu, block_tables_[c].row(lu), anchor_row);
  });
}

Weight EarApsp::distance(VertexId u, VertexId v) const {
  // Same route as the engine's compact query; the within-block metric is
  // an O(1) lookup into the materialized A_i tables.
  return engine_.impl_->routed_distance(
      u, v, [this](std::uint32_t b, VertexId lu, VertexId lv) {
        return block_tables_[b].at(lu, lv);
      });
}

DistanceMatrix ear_apsp_matrix(const Graph& g, const ApspOptions& options) {
  // The engine alone suffices: each row is one distances_from() block-cut
  // tree sweep (O(Σ n_i + a)), instead of n per-pair queries that redo the
  // LCA and cut-index routing for every cell — and the A_i tables of
  // EarApsp never need materializing. Rows are independent and run across
  // the engine's shared pool.
  const EarApspEngine engine(g, options);
  EARDEC_TRACE_SCOPE("apsp.matrix", "n", g.num_vertices());
  DistanceMatrix d(g.num_vertices());
  engine.impl_->parallel_over(g.num_vertices(), [&](std::size_t u) {
    const auto row = d.row(static_cast<VertexId>(u));
    const std::vector<Weight> dist =
        engine.distances_from(static_cast<VertexId>(u));
    std::copy(dist.begin(), dist.end(), row.begin());
  });
  return d;
}

}  // namespace eardec::core
