// Property suite for the online serving layer: the serve_mix differential
// check replays every (s, t) pair through OracleServer's scalar path and
// its batched path on Sequential- and Multicore-built snapshots in
// seed-shuffled batch order, comparing against per-source Dijkstra —
// across every seeded graph family. The check rides the standard harness,
// so a failure is shrunk to a minimal counterexample and replays
// bit-identically from its printed seed
// (`eardec_fuzz --seed S --family F --check serve_mix --runs 1`).
#include <gtest/gtest.h>

#include <sstream>

#include "testing/runner.hpp"
#include "testing/shrink.hpp"

namespace et = eardec::testing;

namespace {

std::string failure_digest(const et::RunnerReport& report) {
  std::ostringstream out;
  for (const auto& f : report.failures) {
    out << f.family << '/' << f.check << " seed=" << f.seed << ": "
        << f.message << '\n'
        << et::format_graph(f.minimal);
  }
  return out.str();
}

}  // namespace

TEST(PropertyServe, ServedAnswersMatchDijkstraAcrossAllFamilies) {
  et::RunnerOptions options;
  options.seed = 4242;
  options.runs = 3;
  options.checks = {"serve_mix"};
  const auto report = et::run_properties(options);
  EXPECT_TRUE(report.ok()) << failure_digest(report);
  // All 13 seeded families must exercise the serving paths — including the
  // multigraph and degenerate-weight ones (the serve layer makes no
  // genericity assumptions).
  EXPECT_GE(report.families_per_check.at("serve_mix"), 13u);
}

TEST(PropertyServe, AdversarialFamiliesServeCorrectly) {
  // The families that historically broke routing: self-loop pseudo-blocks,
  // catastrophic weight ranges, multiple connected components.
  et::RunnerOptions options;
  options.seed = 31337;
  options.runs = 3;
  options.families = {"parallel_multi", "degenerate_weights", "disconnected"};
  options.checks = {"serve_mix"};
  const auto report = et::run_properties(options);
  EXPECT_TRUE(report.ok()) << failure_digest(report);
  EXPECT_EQ(report.family_runs.size(), 3u);
}

TEST(PropertyServe, SeedReplayIsBitDeterministic) {
  // The --seed replay contract holds for the serving check: the same
  // options yield a bit-identical report (same graphs, same batch
  // shuffles, same answers).
  et::RunnerOptions options;
  options.seed = 777;
  options.runs = 2;
  options.families = {"theta", "block_cut", "lollipop"};
  options.checks = {"serve_mix"};
  const auto r1 = et::run_properties(options);
  const auto r2 = et::run_properties(options);
  std::ostringstream a, b;
  et::write_report(a, options, r1);
  et::write_report(b, options, r2);
  EXPECT_EQ(a.str(), b.str());
}
