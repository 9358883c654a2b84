// Ablation: the bit-sliced GF(2) witness kernels vs the naive
// one-BitVector-per-witness loop they replaced. Sweeps witness count ×
// cycle-vector density over a synthetic De Pina orthogonalization schedule
// (phase i updates rows i+1..f against a random cycle vector), with both
// implementations fed the exact same vectors from a fixed seed:
//
//   naive       — std::vector<BitVector>, per-row dot + xor_assign
//   matrix_cpu  — WitnessMatrix blocked CPU sweep (sparse supports,
//                 word-range pruning, 4-way unrolled XOR)
//
// Emits bench_results/mcb_gf2.json (schema_version + git_sha). `--smoke`
// shrinks the sweep to one cell per implementation for CI.
#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "mcb/gf2.hpp"
#include "mcb/witness_matrix.hpp"

namespace {

using eardec::mcb::BitVector;
using eardec::mcb::Gf2KernelStats;
using eardec::mcb::WitnessMatrix;

/// One deterministic cycle-vector schedule, shared by every implementation
/// in a (f, density) cell so the timings compare identical work.
std::vector<BitVector> make_schedule(std::size_t f, double density,
                                     std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::bernoulli_distribution bit(density);
  std::vector<BitVector> cis;
  cis.reserve(f);
  for (std::size_t i = 0; i < f; ++i) {
    BitVector ci(f);
    for (std::size_t b = 0; b < f; ++b) {
      if (bit(rng)) ci.set(b, true);
    }
    cis.push_back(std::move(ci));
  }
  return cis;
}

double run_naive(std::size_t f, const std::vector<BitVector>& cis) {
  std::vector<BitVector> rows;
  rows.reserve(f);
  for (std::size_t i = 0; i < f; ++i) rows.push_back(BitVector::unit(f, i));
  return eardec::bench::time_seconds([&] {
    for (std::size_t i = 0; i + 1 < f; ++i) {
      for (std::size_t j = i + 1; j < f; ++j) {
        if (cis[i].dot(rows[j])) rows[j].xor_assign(rows[i]);
      }
    }
  });
}

double run_matrix_cpu(std::size_t f, const std::vector<BitVector>& cis,
                      Gf2KernelStats& stats) {
  WitnessMatrix m(f);
  return eardec::bench::time_seconds([&] {
    for (std::size_t i = 0; i + 1 < f; ++i) {
      stats.accumulate(m.orthogonalize(i, cis[i], i + 1, f));
    }
  });
}

struct Cell {
  std::size_t f;
  double density;
  std::string impl;
  double seconds;
  Gf2KernelStats stats;
};

void emit_json(const std::vector<Cell>& cells, bool smoke) {
  const std::string path = eardec::bench::sweep_path("mcb_gf2.json");
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(out, "{\n");
  eardec::bench::json_stamp(out);
  std::fprintf(out, "  \"smoke\": %s,\n  \"cells\": [\n",
               smoke ? "true" : "false");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    std::fprintf(
        out,
        "    {\"witnesses\": %zu, \"density\": %.2f, \"impl\": \"%s\", "
        "\"seconds\": %.6f, "
        "\"dots\": %llu, \"sparse_dots\": %llu, \"words_xored\": %llu, "
        "\"range_skips\": %llu, \"promotions\": %llu}%s\n",
        c.f, c.density, c.impl.c_str(), c.seconds,
        static_cast<unsigned long long>(c.stats.dots),
        static_cast<unsigned long long>(c.stats.sparse_dots),
        static_cast<unsigned long long>(c.stats.words_xored),
        static_cast<unsigned long long>(c.stats.range_skips),
        static_cast<unsigned long long>(c.stats.promotions),
        i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const eardec::bench::ObservabilitySession obs_session;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  const std::vector<std::size_t> counts =
      smoke ? std::vector<std::size_t>{256}
            : std::vector<std::size_t>{128, 512, 2048};
  const std::vector<double> densities =
      smoke ? std::vector<double>{0.1}
            : std::vector<double>{0.01, 0.1, 0.5};

  std::vector<Cell> cells;
  std::printf("%-10s %-8s %-14s %-10s\n", "witnesses", "density", "impl",
              "seconds");
  for (const std::size_t f : counts) {
    for (const double density : densities) {
      const auto cis = make_schedule(f, density, /*seed=*/0x6f2e);
      const auto record = [&](std::string impl, double seconds,
                              Gf2KernelStats stats) {
        std::printf("%-10zu %-8.2f %-14s %10.6f\n", f, density,
                    impl.c_str(), seconds);
        cells.push_back({f, density, std::move(impl), seconds, stats});
      };
      record("naive", run_naive(f, cis), {});
      Gf2KernelStats cpu_stats;
      record("matrix_cpu", run_matrix_cpu(f, cis, cpu_stats), cpu_stats);
    }
  }
  emit_json(cells, smoke);
  return 0;
}
