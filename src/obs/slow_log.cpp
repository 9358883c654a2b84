#include "obs/slow_log.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <sstream>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

#if defined(__GNUC__) && !defined(__clang__) && defined(__SANITIZE_THREAD__)
// GCC's TSan pass has no fence instrumentation and rejects
// std::atomic_thread_fence under -Werror (-Wtsan). The per-slot seqlock is
// deliberately fence-based — readers must stay lock-free against the
// serving path — so under TSan the fences compile uninstrumented; the
// labeled tests quiesce writers before dumping, which is the coverage that
// configuration is after.
#pragma GCC diagnostic ignored "-Wtsan"
#endif

namespace eardec::obs {
namespace {

const char* keep_name(SlowLog::Keep reason) noexcept {
  switch (reason) {
    case SlowLog::Keep::kSlowTail: return "p99";
    case SlowLog::Keep::kUniform: return "sample";
    default: return "none";
  }
}

std::uint64_t total_ns(const ServedRequest& req) noexcept {
  return req.done_ns - req.arrival_ns;
}

/// The request's components, in kAttrComponentNames order.
std::array<std::uint64_t, kNumAttrComponents> components(
    const ServedRequest& req) noexcept {
  return {req.call_ns - req.arrival_ns, req.ret_ns - req.call_ns,
          req.done_ns - req.ret_ns};
}

}  // namespace

void record_served(const ServedRequest& req) noexcept {
  // Registry instruments are leaked singletons: resolve them once.
  static const std::array<Histogram*, kNumAttrComponents> hists = [] {
    std::array<Histogram*, kNumAttrComponents> out{};
    for (std::size_t i = 0; i < kNumAttrComponents; ++i) {
      out[i] = &MetricsRegistry::instance().histogram(
          std::string("oracle.serve.attr.") + kAttrComponentNames[i] + "_ns");
    }
    return out;
  }();
  const auto attr = components(req);
  for (std::size_t i = 0; i < kNumAttrComponents; ++i) {
    hists[i]->record_n(attr[i], req.count);
  }
  SlowLog& slow = SlowLog::instance();
  const SlowLog::Keep keep = slow.observe(total_ns(req));
  if (keep != SlowLog::Keep::kNo) slow.retain(req, keep);
}

struct SlowLog::Impl {
  struct Exemplar {
    std::uint64_t arrival_ns = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t epoch = 0;
    std::uint64_t attr_ns[kNumAttrComponents] = {};
    std::uint32_t s = 0;
    std::uint32_t t = 0;
    std::uint32_t batch = 0;
    Keep reason = Keep::kNo;
  };

  struct Slot {
    std::atomic<std::uint32_t> seq{0};  ///< seqlock: odd while writing
    Exemplar exemplar;
  };

  std::atomic<bool> armed{false};
  std::atomic<std::uint64_t> uniform_stride{0};
  std::atomic<std::uint64_t> observed{0};
  std::atomic<std::uint64_t> threshold_ns{~std::uint64_t{0}};
  std::atomic<std::uint64_t> lat_buckets[Histogram::kNumBuckets] = {};
  std::atomic<std::uint64_t> cursor{0};
  Slot ring[kRingSlots];

  /// Recomputes the cached p99 threshold from the log2 histogram. Called
  /// every 256 observations by whichever serving thread lands on the
  /// stride; racing recomputes are harmless (same data, same answer).
  void recompute_threshold() noexcept {
    std::uint64_t counts[Histogram::kNumBuckets];
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < Histogram::kNumBuckets; ++i) {
      counts[i] = lat_buckets[i].load(std::memory_order_relaxed);
      total += counts[i];
    }
    if (total == 0) return;
    const std::uint64_t target =
        std::max<std::uint64_t>(1, static_cast<std::uint64_t>(
                                       0.99 * static_cast<double>(total)));
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < Histogram::kNumBuckets; ++i) {
      cum += counts[i];
      if (cum >= target) {
        threshold_ns.store(Histogram::bucket_min(i), std::memory_order_relaxed);
        return;
      }
    }
  }
};

SlowLog::SlowLog() : impl_(new Impl) {}

SlowLog& SlowLog::instance() {
  // Leaked like the Tracer: serving threads may observe() arbitrarily late.
  static SlowLog* store = new SlowLog();
  return *store;
}

void SlowLog::arm(std::uint64_t uniform_stride) noexcept {
  if constexpr (!kTracingEnabled) return;
  impl_->uniform_stride.store(uniform_stride, std::memory_order_relaxed);
  impl_->armed.store(true, std::memory_order_relaxed);
}

void SlowLog::disarm() noexcept {
  impl_->armed.store(false, std::memory_order_relaxed);
}

bool SlowLog::armed() const noexcept {
  if constexpr (!kTracingEnabled) return false;
  return impl_->armed.load(std::memory_order_relaxed);
}

SlowLog::Keep SlowLog::observe(std::uint64_t total_ns) noexcept {
  if (!armed()) return Keep::kNo;
  impl_->lat_buckets[Histogram::bucket_index(total_ns)].fetch_add(
      1, std::memory_order_relaxed);
  const std::uint64_t n =
      impl_->observed.fetch_add(1, std::memory_order_relaxed) + 1;
  if (n >= kWarmupObservations && n % 256 == 0) impl_->recompute_threshold();
  if (n >= kWarmupObservations &&
      total_ns >= impl_->threshold_ns.load(std::memory_order_relaxed)) {
    return Keep::kSlowTail;
  }
  const std::uint64_t stride =
      impl_->uniform_stride.load(std::memory_order_relaxed);
  if (stride != 0 && n % stride == 0) return Keep::kUniform;
  return Keep::kNo;
}

void SlowLog::retain(const ServedRequest& req, Keep reason) noexcept {
  if (!armed() || reason == Keep::kNo) return;
  const std::uint64_t cur =
      impl_->cursor.fetch_add(1, std::memory_order_relaxed);
  Impl::Slot& slot = impl_->ring[cur % kRingSlots];
  slot.seq.fetch_add(1, std::memory_order_relaxed);  // odd: write in flight
  std::atomic_thread_fence(std::memory_order_release);
  Impl::Exemplar& ex = slot.exemplar;
  ex.arrival_ns = req.arrival_ns;
  ex.total_ns = total_ns(req);
  ex.epoch = req.epoch;
  const auto attr = components(req);
  std::copy(attr.begin(), attr.end(), ex.attr_ns);
  ex.s = req.s;
  ex.t = req.t;
  ex.batch = req.count;
  ex.reason = reason;
  slot.seq.fetch_add(1, std::memory_order_release);  // even: stable
}

std::string SlowLog::dump_json() const {
  std::ostringstream out;
  const std::uint64_t cur = impl_->cursor.load(std::memory_order_acquire);
  const std::uint64_t n = std::min<std::uint64_t>(cur, kRingSlots);
  out << "{\"armed\":" << (armed() ? "true" : "false")
      << ",\"observed\":" << observed()
      << ",\"threshold_ns\":";
  const std::uint64_t thr = threshold_ns();
  if (thr == ~std::uint64_t{0}) {
    out << "null";
  } else {
    out << thr;
  }
  out << ",\"retained\":" << n << ",\"exemplars\":[";
  bool first = true;
  for (std::uint64_t i = cur - n; i < cur; ++i) {
    const Impl::Slot& slot = impl_->ring[i % kRingSlots];
    const std::uint32_t seq1 = slot.seq.load(std::memory_order_acquire);
    if ((seq1 & 1u) != 0) continue;  // mid-write: skip
    Impl::Exemplar ex = slot.exemplar;  // copy, then validate
    std::atomic_thread_fence(std::memory_order_acquire);
    if (slot.seq.load(std::memory_order_relaxed) != seq1) continue;
    if (!first) out << ",";
    first = false;
    out << "{\"reason\":\"" << keep_name(ex.reason)
        << "\",\"total_ns\":" << ex.total_ns
        << ",\"arrival_ns\":" << ex.arrival_ns << ",\"epoch\":" << ex.epoch
        << ",\"s\":" << ex.s << ",\"t\":" << ex.t
        << ",\"batch\":" << ex.batch << ",\"attr_ns\":{";
    for (std::size_t c = 0; c < kNumAttrComponents; ++c) {
      if (c != 0) out << ",";
      out << "\"" << kAttrComponentNames[c] << "\":" << ex.attr_ns[c];
    }
    out << "}}";
  }
  out << "]}";
  return out.str();
}

std::size_t SlowLog::retained() const noexcept {
  return static_cast<std::size_t>(std::min<std::uint64_t>(
      impl_->cursor.load(std::memory_order_relaxed), kRingSlots));
}

std::uint64_t SlowLog::observed() const noexcept {
  return impl_->observed.load(std::memory_order_relaxed);
}

std::uint64_t SlowLog::threshold_ns() const noexcept {
  return impl_->threshold_ns.load(std::memory_order_relaxed);
}

void SlowLog::clear() noexcept {
  for (auto& bucket : impl_->lat_buckets) {
    bucket.store(0, std::memory_order_relaxed);
  }
  impl_->observed.store(0, std::memory_order_relaxed);
  impl_->threshold_ns.store(~std::uint64_t{0}, std::memory_order_relaxed);
  impl_->cursor.store(0, std::memory_order_relaxed);
  for (auto& slot : impl_->ring) {
    slot.seq.fetch_add(2, std::memory_order_release);
    slot.exemplar = {};
  }
}

}  // namespace eardec::obs
