// ScopedPhase — the one clock behind every phase timing in the library.
//
// PhaseTimings (core), SchedulerStats (hetero) and McbStats (mcb) used to
// each hand-roll steady_clock arithmetic; they now all route through this
// RAII helper, which on scope exit does three things at once:
//   1. accumulates the elapsed seconds into the caller's stats field
//      (so repeated phases — MCB iterations — sum naturally),
//   2. publishes the accumulated total to a named registry gauge,
//   3. records a span on the tracer timeline (when tracing is on).
// One measurement, three consumers — the struct fields, `--metrics`, and
// `--trace` can never disagree about a phase again.
#pragma once

#include <cstdint>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace eardec::obs {

class ScopedPhase {
 public:
  /// `accumulate_into` += elapsed on destruction; `span_name` labels the
  /// trace span; `gauge_name` is the registry gauge that receives the
  /// accumulated total. Both names must be static-lifetime strings.
  ScopedPhase(double& accumulate_into, const char* span_name,
              const char* gauge_name)
      : out_(accumulate_into),
        gauge_name_(gauge_name),
        start_ns_(Tracer::now_ns()),
        span_(span_name) {}

  ~ScopedPhase() {
    const std::uint64_t end_ns = Tracer::now_ns();
    out_ += static_cast<double>(end_ns - start_ns_) * 1e-9;
    MetricsRegistry::instance().gauge(gauge_name_).set(out_);
    // span_ records itself right after this body: it is the last member,
    // so it is destroyed first.
  }

  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  double& out_;
  const char* gauge_name_;
  std::uint64_t start_ns_;
  ScopedSpan span_;  // keep last: must destruct before the fields above
};

}  // namespace eardec::obs
