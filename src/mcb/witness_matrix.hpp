// Bit-sliced GF(2) witness storage for De Pina-style MCB solvers.
//
// The f witnesses live as rows of one contiguous row-major arena of packed
// uint64_t words (f rows x ceil(f/64) words), so the post-selection
// orthogonalization — "make every later witness orthogonal to C_i" — runs
// as one blocked pass over adjacent rows instead of f-i pointer-chasing
// BitVector calls: batched AND+popcount-parity inner products, then a
// masked conditional-XOR row sweep, unrolled four words at a time.
//
// On top of the dense arena each row carries a hybrid sparse-support
// representation: witnesses start as unit vectors and stay near-sparse for
// many phases (the same front-biased pattern Ablation C measured for
// CycleStore), so below a crossover cardinality a row also keeps a sorted
// support list and the kernels iterate it instead of scanning zero words.
// Promotion to dense-only is automatic and one-way. Rows additionally track
// a conservative [lo, hi) live word range, which gives the cheap
// disjointness early-exit of the orthogonalization sweep.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "mcb/gf2.hpp"

namespace eardec::mcb {

/// Work counters of the GF(2) kernels, accumulated per solve and exported
/// to the obs metrics registry as the mcb.gf2.* counters.
struct Gf2KernelStats {
  std::uint64_t dots = 0;          ///< inner products evaluated (batched)
  std::uint64_t sparse_dots = 0;   ///< of which via a support list
  std::uint64_t rows_updated = 0;  ///< conditional XORs applied
  std::uint64_t words_xored = 0;   ///< 64-bit words written by XOR sweeps
  std::uint64_t range_skips = 0;   ///< rows skipped by the word-range check
  std::uint64_t promotions = 0;    ///< sparse -> dense densifications
  std::uint64_t cpu_rows = 0;      ///< rows swept

  void accumulate(const Gf2KernelStats& o);
  /// Adds every non-zero counter into the process-wide metrics registry.
  void export_to_metrics() const;
};

/// Read-only view of one witness row (or of a standalone BitVector, so the
/// signed-graph search and labelled trees take one vector type).
class WitnessView {
 public:
  WitnessView() = default;
  WitnessView(std::span<const std::uint64_t> words, std::size_t bits,
              const std::vector<std::uint32_t>* support)
      : words_(words), bits_(bits), support_(support) {}
  explicit WitnessView(const BitVector& v)
      : words_(v.words()), bits_(v.size()) {}

  [[nodiscard]] std::size_t size() const noexcept { return bits_; }
  [[nodiscard]] bool get(std::size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }
  [[nodiscard]] std::span<const std::uint64_t> words() const noexcept {
    return words_;
  }
  /// When true, support() is the exact sorted list of set bit positions.
  [[nodiscard]] bool has_support() const noexcept {
    return support_ != nullptr;
  }
  [[nodiscard]] std::span<const std::uint32_t> support() const {
    return *support_;
  }

 private:
  std::span<const std::uint64_t> words_;
  std::size_t bits_ = 0;
  const std::vector<std::uint32_t>* support_ = nullptr;
};

class WitnessMatrix {
 public:
  /// Ceiling on the support cardinality at or below which a row keeps its
  /// sorted support list. 32 keeps the list within one cache line while
  /// covering the front-biased early phases where most rows hold a handful
  /// of bits.
  static constexpr std::size_t kDefaultSparseCrossover = 32;
  /// Sentinel: pick the crossover from the row width —
  /// min(kDefaultSparseCrossover, 2 * words_per_row). A support list only
  /// beats the dense unrolled sweep while it is shorter than the words it
  /// replaces, so narrow matrices (few witnesses) densify almost
  /// immediately instead of churning through list merges.
  static constexpr std::size_t kAutoCrossover = static_cast<std::size_t>(-1);

  /// f x f identity over GF(2): row i = unit vector e_i (every row sparse).
  /// crossover == 0 disables the sparse representation entirely.
  explicit WitnessMatrix(std::size_t bits,
                         std::size_t crossover = kAutoCrossover);

  [[nodiscard]] std::size_t rows() const noexcept { return bits_; }
  [[nodiscard]] std::size_t bits() const noexcept { return bits_; }
  [[nodiscard]] std::size_t words_per_row() const noexcept { return wpr_; }

  [[nodiscard]] WitnessView view(std::size_t j) const;
  [[nodiscard]] bool get(std::size_t j, std::size_t i) const;
  [[nodiscard]] bool row_sparse(std::size_t j) const {
    return meta_[j].sparse;
  }
  [[nodiscard]] std::size_t support_size(std::size_t j) const {
    return support_[j].size();
  }
  [[nodiscard]] std::size_t popcount(std::size_t j) const;
  /// GF(2) inner product <row j, v> (tests and sanitize-build invariants).
  [[nodiscard]] bool dot(std::size_t j, const BitVector& v) const;

  /// The blocked orthogonalization pass of De Pina's update step: for every
  /// row j in [begin, end), if <C_i, w_j> = 1 then w_j ^= w_pivot. Rows
  /// whose live word range is disjoint from ci's are skipped without
  /// touching their words; j == pivot is skipped (the self-pair would zero
  /// the pivot). Returns the work counters of this call.
  Gf2KernelStats orthogonalize(std::size_t pivot, const BitVector& ci,
                               std::size_t begin, std::size_t end);

 private:
  /// Conservative superset [lo, hi) of the row's non-zero words; lo == hi
  /// encodes an all-zero row. `sparse` iff support_[row] is the exact
  /// sorted set-bit list.
  struct RowMeta {
    std::uint32_t lo = 0;
    std::uint32_t hi = 0;
    bool sparse = true;
  };

  [[nodiscard]] const std::uint64_t* row_ptr(std::size_t j) const {
    return words_.data() + j * wpr_;
  }
  [[nodiscard]] std::uint64_t* row_ptr(std::size_t j) {
    return words_.data() + j * wpr_;
  }

  /// w_j ^= w_pivot plus all metadata maintenance (range union, support
  /// symmetric difference or promotion). `merge_scratch` is the sweep's
  /// reuse buffer for the sparse-sparse merge.
  void xor_pivot_into(std::size_t pivot, std::size_t j, Gf2KernelStats& st,
                      std::vector<std::uint32_t>& merge_scratch);

  std::size_t bits_ = 0;
  std::size_t wpr_ = 0;  ///< words per row
  std::size_t crossover_;
  std::vector<std::uint64_t> words_;  ///< the arena: rows() * wpr_ words
  std::vector<RowMeta> meta_;
  std::vector<std::vector<std::uint32_t>> support_;
};

}  // namespace eardec::mcb
