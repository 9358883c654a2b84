#include "mcb/witness_matrix.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace eardec::mcb {
namespace {

/// Live word range [lo, hi) of a packed vector; (0, 0) when all-zero.
std::pair<std::uint32_t, std::uint32_t> word_range(
    std::span<const std::uint64_t> words) {
  std::uint32_t lo = 0;
  std::uint32_t hi = static_cast<std::uint32_t>(words.size());
  while (lo < hi && words[lo] == 0) ++lo;
  while (hi > lo && words[hi - 1] == 0) --hi;
  if (lo >= hi) return {0, 0};
  return {lo, hi};
}

/// Sorted symmetric difference of two sorted index lists, into `out`.
void symmetric_difference(std::span<const std::uint32_t> a,
                          std::span<const std::uint32_t> b,
                          std::vector<std::uint32_t>& out) {
  out.clear();
  out.reserve(a.size() + b.size());
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      out.push_back(a[i++]);
    } else if (b[j] < a[i]) {
      out.push_back(b[j++]);
    } else {
      ++i;
      ++j;
    }
  }
  out.insert(out.end(), a.begin() + static_cast<std::ptrdiff_t>(i), a.end());
  out.insert(out.end(), b.begin() + static_cast<std::ptrdiff_t>(j), b.end());
}

}  // namespace

void Gf2KernelStats::accumulate(const Gf2KernelStats& o) {
  dots += o.dots;
  sparse_dots += o.sparse_dots;
  rows_updated += o.rows_updated;
  words_xored += o.words_xored;
  range_skips += o.range_skips;
  promotions += o.promotions;
  cpu_rows += o.cpu_rows;
}

void Gf2KernelStats::export_to_metrics() const {
  // One registry hit per solve, not per kernel call: callers accumulate a
  // local Gf2KernelStats and export once.
  auto& reg = obs::MetricsRegistry::instance();
  static obs::Counter& dots_c = reg.counter("mcb.gf2.dots");
  static obs::Counter& sparse_dots_c = reg.counter("mcb.gf2.sparse_dots");
  static obs::Counter& rows_updated_c = reg.counter("mcb.gf2.rows_updated");
  static obs::Counter& words_xored_c = reg.counter("mcb.gf2.words_xored");
  static obs::Counter& range_skips_c = reg.counter("mcb.gf2.range_skips");
  static obs::Counter& promotions_c = reg.counter("mcb.gf2.sparse_promotions");
  static obs::Counter& cpu_rows_c = reg.counter("mcb.gf2.cpu_rows");
  if (dots != 0) dots_c.add(dots);
  if (sparse_dots != 0) sparse_dots_c.add(sparse_dots);
  if (rows_updated != 0) rows_updated_c.add(rows_updated);
  if (words_xored != 0) words_xored_c.add(words_xored);
  if (range_skips != 0) range_skips_c.add(range_skips);
  if (promotions != 0) promotions_c.add(promotions);
  if (cpu_rows != 0) cpu_rows_c.add(cpu_rows);
}

WitnessMatrix::WitnessMatrix(std::size_t bits, std::size_t crossover)
    : bits_(bits),
      wpr_((bits + 63) / 64),
      crossover_(crossover == kAutoCrossover
                     ? std::min(kDefaultSparseCrossover, 2 * ((bits + 63) / 64))
                     : crossover),
      words_(bits * ((bits + 63) / 64), 0),
      meta_(bits),
      support_(bits) {
  for (std::size_t i = 0; i < bits_; ++i) {
    row_ptr(i)[i >> 6] = 1ull << (i & 63);
    meta_[i].lo = static_cast<std::uint32_t>(i >> 6);
    meta_[i].hi = meta_[i].lo + 1;
    meta_[i].sparse = crossover_ > 0;
    if (meta_[i].sparse) support_[i] = {static_cast<std::uint32_t>(i)};
  }
}

WitnessView WitnessMatrix::view(std::size_t j) const {
  return WitnessView({row_ptr(j), wpr_}, bits_,
                     meta_[j].sparse ? &support_[j] : nullptr);
}

bool WitnessMatrix::get(std::size_t j, std::size_t i) const {
  return (row_ptr(j)[i >> 6] >> (i & 63)) & 1u;
}

std::size_t WitnessMatrix::popcount(std::size_t j) const {
  std::size_t n = 0;
  const std::uint64_t* r = row_ptr(j);
  for (std::size_t w = meta_[j].lo; w < meta_[j].hi; ++w) {
    n += static_cast<std::size_t>(std::popcount(r[w]));
  }
  return n;
}

bool WitnessMatrix::dot(std::size_t j, const BitVector& v) const {
  const auto vw = v.words();
  const std::uint64_t* r = row_ptr(j);
  const std::size_t words = std::min<std::size_t>(wpr_, vw.size());
  std::uint64_t acc = 0;
  for (std::size_t w = 0; w < words; ++w) acc ^= r[w] & vw[w];
  return (std::popcount(acc) & 1) != 0;
}

void WitnessMatrix::xor_pivot_into(std::size_t pivot, std::size_t j,
                                   Gf2KernelStats& st,
                                   std::vector<std::uint32_t>& merge_scratch) {
  const RowMeta pm = meta_[pivot];  // copy: meta_[j] updates must not alias
  RowMeta& m = meta_[j];
  std::uint64_t* rj = row_ptr(j);

  if (pm.sparse) {
    // A handful of bit flips beats streaming the pivot's word range.
    for (const std::uint32_t b : support_[pivot]) {
      rj[b >> 6] ^= 1ull << (b & 63);
    }
    st.words_xored += support_[pivot].size();
  } else {
    const std::uint64_t* rp = row_ptr(pivot);
    std::size_t w = pm.lo;
    // Four independent streams per step keep the XOR sweep ahead of the
    // load latency.
    for (; w + 4 <= pm.hi; w += 4) {
      rj[w] ^= rp[w];
      rj[w + 1] ^= rp[w + 1];
      rj[w + 2] ^= rp[w + 2];
      rj[w + 3] ^= rp[w + 3];
    }
    for (; w < pm.hi; ++w) rj[w] ^= rp[w];
    st.words_xored += pm.hi - pm.lo;
  }

  if (m.sparse) {
    if (pm.sparse) {
      symmetric_difference(support_[j], support_[pivot], merge_scratch);
      if (merge_scratch.size() <= crossover_) {
        if (merge_scratch.empty()) {
          m.lo = 0;
          m.hi = 0;
        } else {
          m.lo = merge_scratch.front() >> 6;
          m.hi = (merge_scratch.back() >> 6) + 1;
        }
        support_[j].swap(merge_scratch);
        ++st.rows_updated;
        return;
      }
    }
    // Densify: the list either crossed the threshold or the pivot has no
    // list to merge. One-way — once dense, a row stays dense.
    m.sparse = false;
    support_[j].clear();
    support_[j].shrink_to_fit();
    ++st.promotions;
  }
  if (m.lo >= m.hi) {
    m.lo = pm.lo;
    m.hi = pm.hi;
  } else if (pm.lo < pm.hi) {
    m.lo = std::min(m.lo, pm.lo);
    m.hi = std::max(m.hi, pm.hi);
  }
  ++st.rows_updated;
}

Gf2KernelStats WitnessMatrix::orthogonalize(std::size_t pivot,
                                            const BitVector& ci,
                                            std::size_t begin,
                                            std::size_t end) {
  Gf2KernelStats st;
  if (begin >= end) return st;
  EARDEC_TRACE_SCOPE("mcb.gf2.orthogonalize", "rows", end - begin);
  st.cpu_rows += end - begin;

  const auto cw = ci.words();
  const auto [clo, chi] = word_range(cw);
  if (clo >= chi) {
    // C_i restricted to E' is empty: every inner product is 0.
    st.range_skips += end - begin;
    return st;
  }

  // Early-exit: if C_i's word range misses every remaining row's live
  // range, the whole sweep is a no-op and no row words are touched.
  bool any_overlap = false;
  for (std::size_t j = begin; j < end; ++j) {
    if (j == pivot) continue;
    if (meta_[j].lo < chi && meta_[j].hi > clo) {
      any_overlap = true;
      break;
    }
  }
  if (!any_overlap) {
    st.range_skips += end - begin;
    return st;
  }

  std::vector<std::uint32_t> merge_scratch;
  for (std::size_t j = begin; j < end; ++j) {
    if (j == pivot) continue;  // the self-pair would zero the pivot
    const RowMeta& m = meta_[j];
    if (m.lo >= chi || m.hi <= clo) {
      ++st.range_skips;
      continue;
    }
    ++st.dots;
    bool odd = false;
    if (m.sparse) {
      ++st.sparse_dots;
      unsigned parity = 0;
      for (const std::uint32_t b : support_[j]) {
        parity ^= static_cast<unsigned>((cw[b >> 6] >> (b & 63)) & 1u);
      }
      odd = parity != 0;
    } else {
      const std::uint32_t lo = std::max(m.lo, clo);
      const std::uint32_t hi = std::min(m.hi, chi);
      const std::uint64_t* r = row_ptr(j);
      std::uint64_t a0 = 0;
      std::uint64_t a1 = 0;
      std::uint64_t a2 = 0;
      std::uint64_t a3 = 0;
      std::size_t w = lo;
      for (; w + 4 <= hi; w += 4) {
        a0 ^= r[w] & cw[w];
        a1 ^= r[w + 1] & cw[w + 1];
        a2 ^= r[w + 2] & cw[w + 2];
        a3 ^= r[w + 3] & cw[w + 3];
      }
      for (; w < hi; ++w) a0 ^= r[w] & cw[w];
      odd = (std::popcount(a0 ^ a1 ^ a2 ^ a3) & 1) != 0;
    }
    if (odd) xor_pivot_into(pivot, j, st, merge_scratch);
  }
  return st;
}

}  // namespace eardec::mcb
