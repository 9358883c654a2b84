// The bit-sliced GF(2) witness kernels vs the naive BitVector loop they
// replaced: randomized batched dot/XOR equivalence, sparse<->dense
// promotion round-trips and the word-range early-exit. Labelled `hetero`,
// so CI's TSan job runs it next to the execution-mode suites.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "mcb/gf2.hpp"
#include "mcb/witness_matrix.hpp"

namespace {

using eardec::mcb::BitVector;
using eardec::mcb::Gf2KernelStats;
using eardec::mcb::WitnessMatrix;
using eardec::mcb::WitnessView;

/// The pre-overhaul scalar model: f unit BitVectors, per-vector dot/xor.
struct ScalarModel {
  std::vector<BitVector> rows;

  explicit ScalarModel(std::size_t f) {
    rows.reserve(f);
    for (std::size_t i = 0; i < f; ++i) {
      rows.push_back(BitVector::unit(f, i));
    }
  }

  void orthogonalize(std::size_t pivot, const BitVector& ci,
                     std::size_t begin, std::size_t end) {
    for (std::size_t j = begin; j < end; ++j) {
      if (j == pivot) continue;
      if (ci.dot(rows[j])) rows[j].xor_assign(rows[pivot]);
    }
  }
};

BitVector random_vector(std::size_t bits, double density,
                        std::mt19937_64& rng) {
  BitVector v(bits);
  std::bernoulli_distribution bit(density);
  for (std::size_t i = 0; i < bits; ++i) {
    if (bit(rng)) v.set(i, true);
  }
  return v;
}

void expect_rows_equal(const WitnessMatrix& m, const ScalarModel& model,
                       std::size_t f) {
  for (std::size_t j = 0; j < f; ++j) {
    for (std::size_t i = 0; i < f; ++i) {
      ASSERT_EQ(m.get(j, i), model.rows[j].get(i))
          << "row " << j << " bit " << i;
    }
    if (m.row_sparse(j)) {
      // A sparse row's support list must be exactly its set bits, sorted.
      const WitnessView view = m.view(j);
      ASSERT_TRUE(view.has_support());
      std::vector<std::uint32_t> expected;
      for (std::size_t i = 0; i < f; ++i) {
        if (model.rows[j].get(i)) {
          expected.push_back(static_cast<std::uint32_t>(i));
        }
      }
      const auto got = view.support();
      ASSERT_EQ(std::vector<std::uint32_t>(got.begin(), got.end()), expected)
          << "row " << j;
    }
  }
}

TEST(WitnessMatrix, StartsAsSparseIdentity) {
  WitnessMatrix m(130);
  EXPECT_EQ(m.rows(), 130u);
  EXPECT_EQ(m.words_per_row(), 3u);
  for (std::size_t i = 0; i < 130; ++i) {
    EXPECT_TRUE(m.row_sparse(i));
    EXPECT_EQ(m.support_size(i), 1u);
    EXPECT_EQ(m.popcount(i), 1u);
    EXPECT_TRUE(m.get(i, i));
  }
}

TEST(WitnessMatrix, DotMatchesBitVector) {
  std::mt19937_64 rng(11);
  WitnessMatrix m(190);
  ScalarModel model(190);
  // Densify some rows first so both sparse and dense dots are exercised.
  for (std::size_t round = 0; round < 40; ++round) {
    const auto ci = random_vector(190, 0.3, rng);
    const std::size_t pivot = round % 150;
    m.orthogonalize(pivot, ci, pivot + 1, 190);
    model.orthogonalize(pivot, ci, pivot + 1, 190);
  }
  for (std::size_t trial = 0; trial < 50; ++trial) {
    const auto v = random_vector(190, 0.2, rng);
    for (std::size_t j = 0; j < 190; ++j) {
      ASSERT_EQ(m.dot(j, v), model.rows[j].dot(v)) << "row " << j;
    }
  }
}

TEST(WitnessMatrix, RandomizedOrthogonalizeMatchesScalarLoop) {
  for (const std::uint64_t seed : {1ull, 7ull, 2026ull}) {
    std::mt19937_64 rng(seed);
    for (const std::size_t f : {5ull, 64ull, 65ull, 200ull}) {
      WitnessMatrix m(f);
      ScalarModel model(f);
      std::uniform_real_distribution<double> density(0.01, 0.6);
      for (std::size_t i = 0; i + 1 < f; ++i) {
        const auto ci = random_vector(f, density(rng), rng);
        const auto st = m.orthogonalize(i, ci, i + 1, f);
        model.orthogonalize(i, ci, i + 1, f);
        EXPECT_LE(st.dots + st.range_skips, f - i - 1);
      }
      expect_rows_equal(m, model, f);
    }
  }
}

TEST(WitnessMatrix, SparsePromotionRoundTrip) {
  // Repeatedly XOR dense pivots into a sparse row: the row must promote
  // exactly once, keep bit-identical content, and never demote back.
  std::mt19937_64 rng(3);
  const std::size_t f = 96;
  WitnessMatrix m(f);
  ScalarModel model(f);
  Gf2KernelStats total;
  for (std::size_t round = 0; round < 60; ++round) {
    const auto ci = random_vector(f, 0.5, rng);
    const std::size_t pivot = round % (f - 1);
    total.accumulate(m.orthogonalize(pivot, ci, pivot + 1, f));
    model.orthogonalize(pivot, ci, pivot + 1, f);
  }
  expect_rows_equal(m, model, f);
  EXPECT_GT(total.promotions, 0u);
  std::size_t dense = 0;
  for (std::size_t j = 0; j < f; ++j) {
    if (!m.row_sparse(j)) ++dense;
  }
  // Promotions counts each one-way densification exactly once.
  EXPECT_EQ(total.promotions, dense);
}

TEST(WitnessMatrix, SparseMergesStaySparseBelowCrossover) {
  // Two sparse rows merging below the crossover must keep their support
  // lists (symmetric difference), with no promotion.
  WitnessMatrix m(128, /*crossover=*/8);
  BitVector ci(128);
  ci.set(5, true);  // <C, e_5> = 1, so row 5 gets the pivot XORed in
  const auto st = m.orthogonalize(2, ci, 5, 6);
  EXPECT_EQ(st.rows_updated, 1u);
  EXPECT_EQ(st.promotions, 0u);
  EXPECT_TRUE(m.row_sparse(5));
  EXPECT_EQ(m.support_size(5), 2u);  // {2, 5}
  EXPECT_TRUE(m.get(5, 2));
  EXPECT_TRUE(m.get(5, 5));
}

TEST(WitnessMatrix, DisjointRangeEarlyExitTouchesNothing) {
  WitnessMatrix m(512);
  // All rows still unit vectors; ci lives in word 0 only, rows 256.. in
  // words 4+. The sweep must skip them without a single inner product.
  BitVector ci(512);
  ci.set(3, true);
  const auto st = m.orthogonalize(3, ci, 300, 512);
  EXPECT_EQ(st.dots, 0u);
  EXPECT_EQ(st.range_skips, 212u);
  EXPECT_EQ(st.rows_updated, 0u);
  EXPECT_EQ(st.words_xored, 0u);
}

TEST(WitnessMatrix, SelfPairIsSkipped) {
  WitnessMatrix m(64);
  BitVector ci(64);
  ci.set(7, true);
  // Range deliberately includes the pivot: row 7 must survive unzeroed.
  const auto st = m.orthogonalize(7, ci, 0, 64);
  EXPECT_TRUE(m.get(7, 7));
  EXPECT_EQ(m.popcount(7), 1u);
  // Every other row j gained bit 7 iff <ci, e_j> = 1, i.e. never (ci only
  // hits bit 7, which only row 7 carries) — except none; all unit rows
  // with j != 7 have a zero product.
  EXPECT_EQ(st.rows_updated, 0u);
}

TEST(WitnessMatrix, EmptyCycleVectorIsANoOp) {
  WitnessMatrix m(100);
  const BitVector ci(100);  // all zero
  const auto st = m.orthogonalize(0, ci, 1, 100);
  EXPECT_EQ(st.dots, 0u);
  EXPECT_EQ(st.range_skips, 99u);
}

TEST(WitnessMatrix, StatsAccumulate) {
  Gf2KernelStats a;
  a.dots = 3;
  a.words_xored = 10;
  a.promotions = 1;
  Gf2KernelStats b;
  b.dots = 2;
  b.cpu_rows = 7;
  a.accumulate(b);
  EXPECT_EQ(a.dots, 5u);
  EXPECT_EQ(a.words_xored, 10u);
  EXPECT_EQ(a.cpu_rows, 7u);
  EXPECT_EQ(a.promotions, 1u);
}

}  // namespace
