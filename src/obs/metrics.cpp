#include "obs/metrics.hpp"

#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <utility>
#include <vector>

namespace eardec::obs {

namespace {

/// Slot ids held by live threads; slot i is taken iff held[i].
struct SlotTable {
  std::mutex mutex;
  std::vector<bool> held;
};

SlotTable& slot_table() {
  // Leaked: threads may exit during static destruction.
  static SlotTable* table = new SlotTable;
  return *table;
}

/// Hands the calling thread's slot back when the thread exits. The thread
/// keeps its cached id for any instrument update later in its exit path:
/// a new thread that reuses the id only shares shards with it, which the
/// atomics make safe.
struct SlotRelease {
  std::size_t slot;
  ~SlotRelease() {
    SlotTable& table = slot_table();
    const std::lock_guard lock(table.mutex);
    table.held[slot] = false;
  }
};

}  // namespace

std::size_t detail::claim_thread_slot() noexcept {
  SlotTable& table = slot_table();
  std::size_t slot = 0;
  {
    const std::lock_guard lock(table.mutex);
    while (slot < table.held.size() && table.held[slot]) ++slot;
    if (slot == table.held.size()) {
      table.held.push_back(true);
    } else {
      table.held[slot] = true;
    }
  }
  thread_local const SlotRelease release{slot};
  t_thread_slot = slot;
  return slot;
}

std::uint64_t Histogram::count() const noexcept {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < kNumBuckets; ++i) total += bucket_count(i);
  return total;
}

std::uint64_t Histogram::sum() const noexcept {
  std::uint64_t total = 0;
  for (const Shard& s : shards_) total += s.sum.load(std::memory_order_relaxed);
  return total;
}

std::uint64_t Histogram::bucket_count(std::size_t i) const noexcept {
  std::uint64_t total = 0;
  for (const Shard& s : shards_) {
    total += s.buckets[i].load(std::memory_order_relaxed);
  }
  return total;
}

void Histogram::reset() noexcept {
  for (Shard& s : shards_) {
    for (auto& b : s.buckets) b.store(0, std::memory_order_relaxed);
    s.sum.store(0, std::memory_order_relaxed);
  }
}

double Histogram::quantile(double q) const noexcept {
  // One coherent-ish snapshot: the per-bucket loads are relaxed, so a
  // concurrent record() can land between them — acceptable for telemetry.
  std::uint64_t counts[kNumBuckets];
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < kNumBuckets; ++i) {
    counts[i] = bucket_count(i);
    total += counts[i];
  }
  if (total == 0) return 0.0;
  if (!(q > 0.0)) q = 0.0;  // also catches NaN
  if (q > 1.0) q = 1.0;
  const double target = q * static_cast<double>(total);
  double cum = 0.0;
  std::size_t last_nonempty = 0;
  for (std::size_t i = 0; i < kNumBuckets; ++i) {
    if (counts[i] == 0) continue;
    last_nonempty = i;
    const auto n = static_cast<double>(counts[i]);
    if (cum + n >= target) {
      // Fraction of this bucket's mass below the target rank, linearly
      // spread over the bucket's value range.
      const double frac = (target - cum) / n;
      const auto lo = static_cast<double>(bucket_min(i));
      const auto hi = static_cast<double>(bucket_max(i));
      return lo + frac * (hi - lo);
    }
    cum += n;
  }
  // Rounding pushed the target past the accumulated mass: clamp to the top
  // of the last populated bucket (the q = 1 answer).
  return static_cast<double>(bucket_max(last_nonempty));
}

struct MetricsRegistry::Impl {
  mutable std::mutex mutex;  ///< guards the maps, not the instrument values
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms;

  template <typename T>
  static T& find_or_create(
      std::map<std::string, std::unique_ptr<T>, std::less<>>& map,
      std::string_view name) {
    const auto it = map.find(name);
    if (it != map.end()) return *it->second;
    return *map.emplace(std::string(name), std::make_unique<T>())
                .first->second;
  }
};

MetricsRegistry::MetricsRegistry() : impl_(new Impl) {}

MetricsRegistry& MetricsRegistry::instance() {
  // Intentionally leaked: instruments are referenced from function-local
  // statics that may fire during static destruction.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  const std::lock_guard lock(impl_->mutex);
  return Impl::find_or_create(impl_->counters, name);
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  const std::lock_guard lock(impl_->mutex);
  return Impl::find_or_create(impl_->gauges, name);
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  const std::lock_guard lock(impl_->mutex);
  return Impl::find_or_create(impl_->histograms, name);
}

double MetricsRegistry::gauge_value(std::string_view name) const {
  const std::lock_guard lock(impl_->mutex);
  const auto it = impl_->gauges.find(name);
  return it != impl_->gauges.end() ? it->second->value() : 0.0;
}

void MetricsRegistry::reset_values() {
  const std::lock_guard lock(impl_->mutex);
  for (const auto& [name, c] : impl_->counters) c->reset();
  for (const auto& [name, g] : impl_->gauges) g->reset();
  for (const auto& [name, h] : impl_->histograms) h->reset();
}

void MetricsRegistry::write_json(std::ostream& out) const {
  const std::lock_guard lock(impl_->mutex);
  out << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, c] : impl_->counters) {
    out << (first ? "" : ",") << "\n    \"" << name << "\": " << c->value();
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : impl_->gauges) {
    out << (first ? "" : ",") << "\n    \"" << name << "\": " << g->value();
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : impl_->histograms) {
    out << (first ? "" : ",") << "\n    \"" << name
        << "\": {\"count\": " << h->count() << ", \"sum\": " << h->sum()
        << ", \"p50\": " << h->quantile(0.50)
        << ", \"p90\": " << h->quantile(0.90)
        << ", \"p99\": " << h->quantile(0.99) << ", \"buckets\": [";
    bool first_bucket = true;
    for (std::size_t i = 0; i < Histogram::kNumBuckets; ++i) {
      const std::uint64_t n = h->bucket_count(i);
      if (n == 0) continue;
      out << (first_bucket ? "" : ", ") << "{\"le\": "
          << Histogram::bucket_max(i) << ", \"count\": " << n << "}";
      first_bucket = false;
    }
    out << "]}";
    first = false;
  }
  out << (first ? "" : "\n  ") << "}\n}\n";
}

namespace {

/// Mangles a registry name into a legal Prometheus metric name:
/// `eardec_` prefix, every character outside [a-zA-Z0-9_] becomes '_'.
std::string prometheus_name(const std::string& name) {
  std::string out = "eardec_";
  out.reserve(out.size() + name.size());
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out.push_back(ok ? c : '_');
  }
  return out;
}

}  // namespace

void MetricsRegistry::write_prometheus(std::ostream& out) const {
  const std::lock_guard lock(impl_->mutex);
  out.precision(10);
  for (const auto& [name, c] : impl_->counters) {
    const std::string p = prometheus_name(name);
    out << "# TYPE " << p << " counter\n" << p << ' ' << c->value() << '\n';
  }
  for (const auto& [name, g] : impl_->gauges) {
    const std::string p = prometheus_name(name);
    out << "# TYPE " << p << " gauge\n" << p << ' ' << g->value() << '\n';
  }
  for (const auto& [name, h] : impl_->histograms) {
    const std::string p = prometheus_name(name);
    out << "# TYPE " << p << " histogram\n";
    // Prometheus buckets are cumulative. Snapshot the bucket counts once so
    // the le series stays monotone and agrees with +Inf/_count even while
    // other threads keep recording.
    std::uint64_t counts[Histogram::kNumBuckets];
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < Histogram::kNumBuckets; ++i) {
      counts[i] = h->bucket_count(i);
      total += counts[i];
    }
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < Histogram::kNumBuckets; ++i) {
      if (counts[i] == 0) continue;
      cum += counts[i];
      out << p << "_bucket{le=\"" << Histogram::bucket_max(i) << "\"} " << cum
          << '\n';
    }
    out << p << "_bucket{le=\"+Inf\"} " << total << '\n';
    out << p << "_sum " << h->sum() << '\n';
    out << p << "_count " << total << '\n';
    // Derived quantile gauges: Prometheus histograms carry no quantiles of
    // their own, and the log2 buckets make server-side estimation coarse;
    // exporting the library's own interpolated estimates keeps dashboards
    // and the JSON exporter in agreement.
    for (const auto& [suffix, q] :
         {std::pair<const char*, double>{"_p50", 0.50},
          {"_p90", 0.90},
          {"_p99", 0.99}}) {
      out << "# TYPE " << p << suffix << " gauge\n"
          << p << suffix << ' ' << h->quantile(q) << '\n';
    }
  }
}

bool MetricsRegistry::write_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  write_json(out);
  return static_cast<bool>(out);
}

}  // namespace eardec::obs
