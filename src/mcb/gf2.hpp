// Packed GF(2) vectors — witnesses and restricted cycle vectors live in
// {0,1}^f with f = |E'| (non-tree edges). Inner products and symmetric
// differences are the inner loops of De Pina's algorithm, so they are
// word-parallel.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace eardec::mcb {

class BitVector {
 public:
  BitVector() = default;
  explicit BitVector(std::size_t bits)
      : bits_(bits), words_((bits + 63) / 64, 0) {}

  /// Unit vector e_i in {0,1}^bits.
  static BitVector unit(std::size_t bits, std::size_t i) {
    BitVector v(bits);
    v.set(i, true);
    return v;
  }

  [[nodiscard]] std::size_t size() const noexcept { return bits_; }

  void set(std::size_t i, bool value) {
    const std::uint64_t mask = 1ull << (i & 63);
    if (value) {
      words_[i >> 6] |= mask;
    } else {
      words_[i >> 6] &= ~mask;
    }
  }
  [[nodiscard]] bool get(std::size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }

  /// this ^= other (symmetric difference; De Pina's witness update).
  void xor_assign(const BitVector& other);

  /// GF(2) inner product: parity of the AND of the two vectors.
  [[nodiscard]] bool dot(const BitVector& other) const;

  [[nodiscard]] std::size_t popcount() const;
  [[nodiscard]] bool any() const;

  /// Raw 64-bit words (for the witness matrix and tests).
  [[nodiscard]] std::span<const std::uint64_t> words() const noexcept {
    return words_;
  }
  [[nodiscard]] std::span<std::uint64_t> words() noexcept { return words_; }

  bool operator==(const BitVector&) const = default;

 private:
  std::size_t bits_ = 0;
  std::vector<std::uint64_t> words_;
};

/// Rank of a set of vectors over GF(2) (destructive Gaussian elimination on
/// a copy). Used to validate basis independence.
[[nodiscard]] std::size_t gf2_rank(std::vector<BitVector> vectors);

/// True iff the vectors are linearly independent over GF(2).
[[nodiscard]] bool gf2_independent(const std::vector<BitVector>& vectors);

}  // namespace eardec::mcb
