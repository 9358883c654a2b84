#include "testing/runner.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <ostream>
#include <set>
#include <sstream>
#include <stdexcept>

#include "core/ear_apsp.hpp"
#include "mcb/ear_mcb.hpp"
#include "obs/metrics.hpp"
#include "testing/depina.hpp"
#include "testing/metamorphic.hpp"
#include "testing/shrink.hpp"

namespace eardec::testing {
namespace {

using graph::VertexId;
using graph::Weight;

constexpr std::size_t kMcbDimLimit = 40;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// ------------------------------------------------- fault-injection checks

/// One adversarial scheduler configuration, derived from the run seed.
core::ApspOptions adversarial_apsp_options(std::uint64_t seed, int which) {
  core::ApspOptions o;
  switch (which) {
    case 0:
      o.mode = core::ExecutionMode::Sequential;
      break;
    case 1:  // forced CPU-only with the most contended settings
      o.mode = core::ExecutionMode::Multicore;
      o.cpu_threads = static_cast<unsigned>(1 + seed % 4);
      o.cpu_batch = 1;
      o.sources_per_unit = 1;
      break;
    case 2:  // forced device-only, tiny warps
      o.mode = core::ExecutionMode::DeviceOnly;
      o.device.workers = static_cast<unsigned>(1 + (seed >> 2) % 3);
      o.device.warp_size = 1u << ((seed >> 4) % 4);  // 1, 2, 4, or 8
      o.sources_per_unit = static_cast<std::uint32_t>(1 + (seed >> 6) % 5);
      break;
    default:  // heterogeneous with adversarial batch geometry
      o.mode = core::ExecutionMode::Heterogeneous;
      o.cpu_threads = static_cast<unsigned>(1 + (seed >> 8) % 3);
      o.device.workers = static_cast<unsigned>(1 + (seed >> 10) % 2);
      o.device.warp_size = static_cast<unsigned>(1 + (seed >> 12) % 7);
      o.cpu_batch = static_cast<std::size_t>(1 + (seed >> 14) % 7);
      o.device_batch = static_cast<std::size_t>(1 + (seed >> 17) % 5);
      o.sources_per_unit = static_cast<std::uint32_t>(1 + (seed >> 20) % 9);
      break;
  }
  return o;
}

std::string describe(const core::ApspOptions& o) {
  std::ostringstream s;
  const char* mode = o.mode == core::ExecutionMode::Sequential ? "seq"
                     : o.mode == core::ExecutionMode::Multicore ? "mc"
                     : o.mode == core::ExecutionMode::DeviceOnly ? "dev"
                                                                 : "hetero";
  s << "mode=" << mode << " threads=" << o.cpu_threads
    << " dev.workers=" << o.device.workers << " warp=" << o.device.warp_size
    << " cpu_batch=" << o.cpu_batch << " device_batch=" << o.device_batch
    << " sources_per_unit=" << o.sources_per_unit;
  return s.str();
}

/// Drives the hetero scheduler through adversarial configurations and
/// checks every one against Dijkstra, plus a bitwise same-config
/// determinism run for the heterogeneous configuration.
CheckResult check_scheduler_apsp(const Graph& g, std::uint64_t seed) {
  for (int which = 0; which < 4; ++which) {
    const auto options = adversarial_apsp_options(seed, which);
    if (auto fail = check_apsp_vs_dijkstra(g, options)) {
      return *fail + " [" + describe(options) + "]";
    }
  }
  const auto options = adversarial_apsp_options(seed, 3);
  const core::EarApspEngine a(g, options);
  const core::EarApspEngine b(g, options);
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      if (a.query(u, v) != b.query(u, v)) {  // bitwise, intentionally
        std::ostringstream msg;
        msg.precision(17);
        msg << "scheduler nondeterminism at pair (" << u << ", " << v
            << "): " << a.query(u, v) << " vs " << b.query(u, v)
            << " [" << describe(options) << "]";
        return msg.str();
      }
    }
  }
  return std::nullopt;
}

mcb::McbOptions adversarial_mcb_options(std::uint64_t seed, int which) {
  mcb::McbOptions o;
  o.cpu_threads = static_cast<unsigned>(1 + (seed >> 3) % 3);
  o.device.workers = static_cast<unsigned>(1 + (seed >> 5) % 2);
  o.device.warp_size = 1u << ((seed >> 7) % 4);
  // Degenerate logical batches.
  o.batch_size = static_cast<std::uint32_t>(1 + (seed >> 9) % 5);
  switch (which) {
    case 0: o.mode = core::ExecutionMode::Sequential; break;
    case 1: o.mode = core::ExecutionMode::Multicore; break;
    case 2: o.mode = core::ExecutionMode::DeviceOnly; break;
    default: o.mode = core::ExecutionMode::Heterogeneous; break;
  }
  return o;
}

CheckResult check_scheduler_mcb(const Graph& g, std::uint64_t seed) {
  const auto ref = depina_mcb(g);
  for (int which = 0; which < 4; ++which) {
    const auto options = adversarial_mcb_options(seed, which);
    const auto r = mcb::minimum_cycle_basis(g, options);
    if (r.basis.size() != ref.basis.size()) {
      std::ostringstream msg;
      msg << "MCB dimension " << r.basis.size() << " != DePina "
          << ref.basis.size() << " under adversarial config " << which;
      return msg.str();
    }
    if (!weights_close(r.total_weight, ref.total_weight,
                       distance_tolerance(g))) {
      std::ostringstream msg;
      msg.precision(17);
      msg << "MCB weight " << r.total_weight << " != DePina "
          << ref.total_weight << " under adversarial config " << which;
      return msg.str();
    }
  }
  // Same-config determinism, including the cycle edge sets.
  const auto options = adversarial_mcb_options(seed, 3);
  const auto r1 = mcb::minimum_cycle_basis(g, options);
  const auto r2 = mcb::minimum_cycle_basis(g, options);
  if (r1.basis.size() != r2.basis.size()) {
    return std::string("MCB scheduler nondeterminism: basis sizes differ");
  }
  for (std::size_t i = 0; i < r1.basis.size(); ++i) {
    if (r1.basis[i].edges != r2.basis[i].edges) {
      std::ostringstream msg;
      msg << "MCB scheduler nondeterminism: cycle " << i
          << " differs between identical runs";
      return msg.str();
    }
  }
  return std::nullopt;
}

// ---------------------------------------------------------------- registry

std::vector<PropertyCheck> build_checks() {
  std::vector<PropertyCheck> r;
  r.push_back({.name = "apsp_dijkstra",
               .description = "EarApspEngine + distances_from vs Dijkstra",
               .kind = CheckKind::Differential,
               .size_hint = 28,
               .run = [](const Graph& g, std::uint64_t) {
                 return check_apsp_vs_dijkstra(
                     g, {.mode = core::ExecutionMode::Sequential});
               }});
  r.push_back({.name = "apsp_floyd",
               .description = "ear_apsp_matrix vs Floyd-Warshall",
               .kind = CheckKind::Differential,
               .size_hint = 20,
               .run = [](const Graph& g, std::uint64_t) {
                 return check_apsp_vs_floyd_warshall(g);
               }});
  r.push_back({.name = "mcb_horton",
               .description = "ear MCB weight+dimension vs Horton",
               .kind = CheckKind::Differential,
               .skip_degenerate_weights = true,
               .size_hint = 18,
               .run = [](const Graph& g, std::uint64_t) {
                 return check_mcb_vs_horton(g);
               }});
  r.push_back({.name = "mcb_depina",
               .description =
                   "ear MCB weight+dimension vs DePina (+ Lemma 3.1)",
               .kind = CheckKind::Differential,
               .size_hint = 16,
               .run = [](const Graph& g, std::uint64_t) {
                 return check_mcb_vs_depina(g);
               }});
  r.push_back({.name = "mcb_depina_scalar",
               .description =
                   "bit-sliced De Pina bit-for-bit vs pre-overhaul scalar loop",
               .kind = CheckKind::Differential,
               .size_hint = 14,
               .run = [](const Graph& g, std::uint64_t) {
                 return check_depina_vs_scalar_reference(g);
               }});
  r.push_back({.name = "serve_mix",
               .description =
                   "OracleServer scalar/batched(Sequential)/"
                   "batched(Multicore) vs Dijkstra; serve paths "
                   "bitwise-identical",
               .kind = CheckKind::Differential,
               .size_hint = 22,
               .run = [](const Graph& g, std::uint64_t seed) {
                 return check_served_queries_vs_dijkstra(g, seed);
               }});
  r.push_back({.name = "relabel",
               .description = "vertex-relabeling invariance (APSP + MCB)",
               .kind = CheckKind::Metamorphic,
               .size_hint = 18,
               .run = [](const Graph& g, std::uint64_t seed) {
                 return check_relabel_invariance(g, seed, kMcbDimLimit);
               }});
  r.push_back({.name = "scale",
               .description = "uniform weight-scaling linearity (APSP + MCB)",
               .kind = CheckKind::Metamorphic,
               .size_hint = 18,
               .run = [](const Graph& g, std::uint64_t seed) {
                 return check_scale_linearity(g, seed, kMcbDimLimit);
               }});
  r.push_back({.name = "subdivide",
               .description =
                   "edge-subdivision invariance of distances and MCB",
               .kind = CheckKind::Metamorphic,
               .size_hint = 18,
               .run = [](const Graph& g, std::uint64_t seed) {
                 return check_subdivision_invariance(g, seed, kMcbDimLimit);
               }});
  r.push_back({.name = "sched_apsp",
               .description =
                   "hetero scheduler fault injection: adversarial batch "
                   "sizes, thread counts, CPU-only/device-only splits",
               .kind = CheckKind::Fault,
               .default_enabled = false,
               .size_hint = 24,
               .run = check_scheduler_apsp});
  r.push_back({.name = "sched_mcb",
               .description =
                   "MCB scheduler fault injection across execution modes",
               .kind = CheckKind::Fault,
               .default_enabled = false,
               .size_hint = 14,
               .run = check_scheduler_mcb});
  r.push_back({.name = "injected_parallel_bug",
               .description =
                   "deliberately broken Dijkstra (first parallel edge "
                   "only) - validates catch + shrink",
               .kind = CheckKind::Injected,
               .default_enabled = false,
               .size_hint = 20,
               .run = [](const Graph& g, std::uint64_t) {
                 return check_injected_parallel_bug(g);
               }});
  return r;
}

obs::Counter& fuzz_counter(const std::string& name) {
  return obs::MetricsRegistry::instance().counter(name);
}

}  // namespace

const std::vector<PropertyCheck>& property_checks() {
  static const std::vector<PropertyCheck> registry = build_checks();
  return registry;
}

const PropertyCheck& property_check(std::string_view name) {
  for (const PropertyCheck& c : property_checks()) {
    if (c.name == name) return c;
  }
  std::ostringstream msg;
  msg << "unknown property check '" << name << "'; valid checks:";
  for (const PropertyCheck& c : property_checks()) msg << ' ' << c.name;
  throw std::invalid_argument(msg.str());
}

std::uint64_t derive_seed(std::uint64_t master, std::uint32_t run_index) {
  return run_index == 0 ? master : splitmix64(master + run_index);
}

RunnerReport run_properties(const RunnerOptions& options) {
  // Resolve selections up front (throws on unknown names).
  std::vector<const GraphFamily*> fams;
  if (options.families.empty()) {
    for (const GraphFamily& f : families()) fams.push_back(&f);
  } else {
    for (const std::string& name : options.families)
      fams.push_back(&family(name));
  }
  std::vector<const PropertyCheck*> checks;
  if (options.checks.empty()) {
    for (const PropertyCheck& c : property_checks()) {
      if (c.default_enabled ||
          (options.fault_injection && c.kind == CheckKind::Fault)) {
        checks.push_back(&c);
      }
    }
  } else {
    for (const std::string& name : options.checks)
      checks.push_back(&property_check(name));
  }

  RunnerReport report;
  std::map<std::string, std::set<std::string>> families_seen;

  for (const PropertyCheck* chk : checks) {
    for (const GraphFamily* fam : fams) {
      if ((chk->skip_multigraph && fam->tags.multigraph) ||
          (chk->skip_degenerate_weights && fam->tags.degenerate_weights)) {
        continue;
      }
      const std::uint32_t size =
          options.size != 0 ? options.size : chk->size_hint;
      std::uint64_t pair_failures = 0;
      for (std::uint32_t i = 0; i < options.runs; ++i) {
        const std::uint64_t seed = derive_seed(options.seed, i);
        const Graph g = fam->make(seed, size);
        CheckResult result;
        try {
          result = chk->run(g, seed);
        } catch (const std::exception& e) {
          result = std::string("exception: ") + e.what();
        }
        ++report.runs_executed;
        ++report.family_runs[fam->name];
        ++report.check_runs[chk->name];
        families_seen[chk->name].insert(fam->name);
        fuzz_counter("fuzz.runs").add();
        fuzz_counter("fuzz.family." + fam->name + ".runs").add();
        fuzz_counter("fuzz.check." + chk->name + ".runs").add();
        if (!result) continue;

        ++pair_failures;
        fuzz_counter("fuzz.failures").add();
        Counterexample cex;
        cex.family = fam->name;
        cex.check = chk->name;
        cex.seed = seed;
        cex.message = *result;
        cex.minimal = g;
        if (options.shrink) {
          const auto sr =
              shrink(g,
                     [&](const Graph& candidate) {
                       return chk->run(candidate, seed).has_value();
                     },
                     {.max_attempts = options.max_shrink_attempts});
          cex.minimal = sr.minimal;
          cex.shrink_steps = sr.steps;
          cex.shrink_attempts = sr.attempts;
          fuzz_counter("fuzz.shrink.total_steps").add(sr.steps);
          obs::MetricsRegistry::instance()
              .histogram("fuzz.shrink.steps")
              .record(sr.steps);
        }
        try {
          if (auto minimal_result = chk->run(cex.minimal, seed)) {
            cex.minimal_message = *minimal_result;
          }
        } catch (const std::exception& e) {
          cex.minimal_message = std::string("exception: ") + e.what();
        }
        report.failures.push_back(std::move(cex));
      }
      if (options.out) {
        *options.out << "[" << fam->name << " x " << chk->name
                     << "] runs=" << options.runs
                     << " failures=" << pair_failures << '\n';
      }
    }
  }
  for (const auto& [check, seen] : families_seen) {
    report.families_per_check[check] = seen.size();
  }
  return report;
}

void write_report(std::ostream& out, const RunnerOptions& options,
                  const RunnerReport& report) {
  out << "eardec property fuzz: seed=" << options.seed
      << " runs=" << options.runs << " size="
      << (options.size != 0 ? std::to_string(options.size)
                            : std::string("per-check"))
      << " fault_injection=" << (options.fault_injection ? 1 : 0)
      << " shrink=" << (options.shrink ? 1 : 0) << '\n';
  out << "coverage:\n";
  for (const auto& [check, runs] : report.check_runs) {
    out << "  check " << check << ": runs=" << runs
        << " families=" << report.families_per_check.at(check) << '\n';
  }
  for (const auto& [fam, runs] : report.family_runs) {
    out << "  family " << fam << ": runs=" << runs << '\n';
  }
  for (const Counterexample& cex : report.failures) {
    out << "FAILURE family=" << cex.family << " check=" << cex.check
        << " seed=" << cex.seed << '\n';
    out << "  message: " << cex.message << '\n';
    if (!cex.minimal_message.empty() && cex.minimal_message != cex.message) {
      out << "  shrunken message: " << cex.minimal_message << '\n';
    }
    out << "  shrunk to n=" << cex.minimal.num_vertices()
        << " m=" << cex.minimal.num_edges() << " in " << cex.shrink_steps
        << " steps (" << cex.shrink_attempts << " attempts)\n";
    out << "  counterexample (n m, then u v w per edge):\n";
    std::istringstream lines(format_graph(cex.minimal));
    for (std::string line; std::getline(lines, line);) {
      out << "    " << line << '\n';
    }
    out << "  replay: eardec_fuzz --seed " << cex.seed
        << " --runs 1 --family " << cex.family << " --check " << cex.check
        << " --size "
        << (options.size != 0 ? options.size
                              : property_check(cex.check).size_hint)
        << '\n';
  }
  out << "total: runs=" << report.runs_executed
      << " failures=" << report.failures.size() << '\n';
  out << (report.ok() ? "PROPERTIES OK" : "PROPERTIES FAILED") << '\n';
}

}  // namespace eardec::testing
