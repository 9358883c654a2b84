// Always-on flight recorder: crash-safe postmortems for serving and bench
// runs (docs/observability.md, "Per-query tracing & flight recorder").
//
// Once armed, the recorder installs SIGSEGV/SIGABRT handlers (chaining to
// whatever was installed before) and, on a crash, writes the newest
// trace-ring contents to `eardec-flight-<pid>.json`
// through Tracer::write_flight_dump — an async-signal-safe path built on
// open(2)/write(2) and hand-rolled formatting only. An optional stall
// watchdog thread does the same when the serving loop stops calling
// heartbeat() for longer than the configured stall budget, so hung runs
// leave evidence too.
//
// Signal-safety notes: the handler never allocates, locks, or calls stdio;
// the dump walks a lock-free lane registry inside the tracer (ThreadBuffer
// allocations are stable for process lifetime) and tolerates torn reads of
// in-flight events by sanitizing names. After dumping, the previous
// handler is restored and the signal re-raised, so default crash semantics
// (core dumps, exit codes) are preserved.
//
// Under EARDEC_ENABLE_TRACING=OFF everything here compiles to no-op stubs.
#pragma once

#include <cstdint>
#include <string>

namespace eardec::obs {

class FlightRecorder {
 public:
  /// The process-wide recorder. Never destroyed.
  static FlightRecorder& instance();

  /// Installs the SIGSEGV/SIGABRT handlers and remembers the dump path
  /// ("" -> "eardec-flight-<pid>.json" in the working directory).
  /// Idempotent; later calls only update the path. No-op (returns false)
  /// when tracing is compiled out or on non-POSIX hosts.
  bool arm(const std::string& path = "");

  /// arm() unless the EARDEC_FLIGHT env var says "off"/"0". Returns
  /// whether the recorder ended up armed. This is what the benches
  /// (bench_common.hpp) and `eardec_cli serve` call.
  bool configure_from_env();

  [[nodiscard]] bool armed() const noexcept;

  /// Dump destination ("" until armed).
  [[nodiscard]] const std::string& path() const noexcept;

  /// Starts the stall watchdog: a background thread that calls dump_now
  /// ("stall-watchdog") when heartbeat() has not been called for
  /// `stall_ms`. One dump per stall episode; a later heartbeat re-arms it.
  void start_watchdog(std::uint64_t stall_ms);
  void stop_watchdog();

  /// Liveness pump for the watchdog; async-signal-safe, wait-free.
  void heartbeat() noexcept;

  /// Writes the flight file immediately (tests, the watchdog, operator
  /// tooling). Safe from signal handlers. Returns false on I/O error or
  /// when unarmed.
  bool dump_now(const char* reason) noexcept;

 private:
  FlightRecorder() = default;
  ~FlightRecorder() = delete;  // leaked singleton
};

}  // namespace eardec::obs
