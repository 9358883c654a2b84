// The double-ended dynamic work queue of Indarapu et al. [19], as used by
// the paper (Sections 2.3 and 3.4): work units are sorted by size so the
// throughput device starts on the biggest units while CPU threads consume
// small ones from the other end; both sides remove units in batches whose
// size reflects their thread counts. The queue, not a static split, decides
// the final CPU/GPU proportion — that is the paper's "dynamic work
// balancing".
//
// Implementation: the sorted unit array is immutable after construction and
// both ends are claimed through one packed atomic word (head index in the
// low half, light-end count in the high half) with a CAS loop — a claim is
// a single successful compare-exchange, never a lock. Because claimed
// ranges are contiguous slices of the frozen array, take_heavy/take_light
// hand back zero-copy spans instead of freshly allocated vectors.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

namespace eardec::hetero {

/// An opaque unit of work: caller-defined id plus a size estimate used for
/// the sorted ordering (e.g. |V| or |E| of a biconnected component).
struct WorkUnit {
  std::uint32_t id = 0;
  std::uint64_t size = 0;
};

class WorkQueue {
 public:
  /// Builds the queue; units are ordered heaviest-first internally.
  explicit WorkQueue(std::vector<WorkUnit> units);

  /// Claims up to `batch` units from the heavy end (device side). The span
  /// aliases the queue's internal storage and stays valid for the queue's
  /// lifetime; units within it are ordered heaviest-first.
  [[nodiscard]] std::span<const WorkUnit> take_heavy(std::size_t batch);

  /// Claims up to `batch` units from the light end (CPU side). Units within
  /// the span are ordered heaviest-first, i.e. the batch's lightest unit
  /// comes last.
  [[nodiscard]] std::span<const WorkUnit> take_light(std::size_t batch);

  /// True once every unit has been claimed.
  [[nodiscard]] bool empty() const;

  /// Units not yet claimed.
  [[nodiscard]] std::size_t remaining() const;

  [[nodiscard]] std::size_t total() const noexcept { return units_.size(); }

  /// Number of CAS retries across all claims so far — a direct measure of
  /// claim contention (0 in single-threaded drains; grows only when two
  /// claimants race on the same queue state).
  [[nodiscard]] std::uint64_t contention_events() const noexcept {
    return cas_retries_.load(std::memory_order_relaxed);
  }

 private:
  [[nodiscard]] std::span<const WorkUnit> claim(std::size_t batch, bool heavy);

  std::vector<WorkUnit> units_;  // sorted heaviest-first, frozen after ctor
  /// Low 32 bits: units claimed off the heavy end (next heavy index).
  /// High 32 bits: units claimed off the light end.
  std::atomic<std::uint64_t> state_{0};
  std::atomic<std::uint64_t> cas_retries_{0};
};

}  // namespace eardec::hetero
