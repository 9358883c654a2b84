// Figure 5 reproduction: relative speedup of the Multi-Core, GPU, and
// CPU+GPU MCB implementations over the Sequential one (with ear
// decomposition). The paper reports averages of 3x, 9x, and 11x on a
// 20-core Xeon + Tesla K40c; EXPERIMENTS.md has the per-phase numbers
// measured on a 4-vCPU host.
#include <cstdio>

#include "mcb_sweep.hpp"

int main() {
  const eardec::bench::ObservabilitySession obs_session;
  using namespace eardec;
  const auto rows = bench::run_mcb_sweep();

  std::printf("=== Figure 5: speedup over Sequential (with ears) ===\n");
  std::printf("%-15s %12s %12s %12s\n", "Graph", "Multi-Core", "GPU",
              "CPU+GPU");
  bench::print_rule(56);
  double sums[3] = {};
  for (const auto& r : rows) {
    const double seq = r.seconds[0][0];
    std::printf("%-15s %11.2fx %11.2fx %11.2fx\n", r.graph.c_str(),
                seq / r.seconds[1][0], seq / r.seconds[2][0],
                seq / r.seconds[3][0]);
    for (int m = 0; m < 3; ++m) sums[m] += seq / r.seconds[m + 1][0];
  }
  bench::print_rule(56);
  std::printf("%-15s %11.2fx %11.2fx %11.2fx   (paper: 3x, 9x, 11x)\n",
              "average", sums[0] / static_cast<double>(rows.size()),
              sums[1] / static_cast<double>(rows.size()),
              sums[2] / static_cast<double>(rows.size()));
  std::printf("note: all four modes compute identical bases. On a 4-vCPU\n"
              "host only the device label fan-out speeds up, and only on\n"
              "the largest graphs; see EXPERIMENTS.md (Figure 5) for the\n"
              "per-phase table.\n");
  return 0;
}
