// Resident-set-size readings from /proc: the stats server's
// `eardec_process_rss_mb` gauge, the CLI's --rss-gate and the scaling
// bench read them.
#pragma once

namespace eardec::obs {

/// Resident set size in MiB from /proc/self/statm, or a negative value
/// when unavailable (non-Linux).
[[nodiscard]] double read_rss_mb();

/// Peak resident set size in MiB (VmHWM from /proc/self/status), or a
/// negative value when unavailable. The scaling bench and the CLI RSS gate
/// compare this against the Phase 0–I memory model.
[[nodiscard]] double read_peak_rss_mb();

}  // namespace eardec::obs
