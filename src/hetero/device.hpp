// Software throughput device — the stand-in for the paper's Tesla K40c.
//
// The paper's GPU usage that this repository reproduces reduces to two
// idioms:
//   1. bulk kernel launches over a 1D grid (one lane per vertex/edge),
//   2. level-synchronous frontier kernels (Harish–Narayanan SSSP).
// Its third, the block-per-witness XOR reduction of the MCB witness update,
// lost to the CPU pass in every measurement and is not reproduced (see
// docs/mcb_perf.md).
// `Device` reproduces both idioms faithfully in software: a launch executes
// `grid` lanes in warps of `warp_size`, striped over a private worker pool,
// and returns only when every lane finished (bulk-synchronous, like a CUDA
// kernel followed by cudaDeviceSynchronize). All algorithm code written
// against Device is phrased exactly as the CUDA kernels would be, so the
// heterogeneous work-partitioning logic of the paper is exercised unchanged;
// only absolute throughput differs (see DESIGN.md §2).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>

#include "hetero/thread_pool.hpp"

namespace eardec::hetero {

/// Configuration of the simulated device.
struct DeviceConfig {
  /// Host threads emulating the SMs. Defaults to 2 (the host CPU side of
  /// the hetero runs uses the remaining threads).
  unsigned workers = 2;
  /// Lanes per warp; kernels are chunked warp-by-warp.
  unsigned warp_size = 32;
};

class Device {
 public:
  explicit Device(DeviceConfig config = {});

  [[nodiscard]] const DeviceConfig& config() const noexcept { return config_; }

  /// Launches `grid` lanes of `kernel`; blocks until every lane completed.
  /// Lanes are grouped into warps executed together on one worker, matching
  /// SIMT scheduling granularity.
  void launch(std::size_t grid, const std::function<void(std::size_t)>& kernel);

  /// Kernel-launch counter (diagnostics / tests).
  [[nodiscard]] std::uint64_t kernels_launched() const noexcept {
    return kernels_.load();
  }

 private:
  DeviceConfig config_;
  ThreadPool pool_;
  std::atomic<std::uint64_t> kernels_{0};
};

}  // namespace eardec::hetero
