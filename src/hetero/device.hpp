// Software throughput device — the stand-in for the paper's Tesla K40c.
//
// The paper's GPU usage reduces to three idioms:
//   1. bulk kernel launches over a 1D grid (one lane per vertex/edge),
//   2. level-synchronous frontier kernels (Harish–Narayanan SSSP),
//   3. block-wide XOR reductions (MCB witness inner products).
// `Device` reproduces those idioms faithfully in software: a launch executes
// `grid` lanes in warps of `kWarpSize`, striped over a private worker pool,
// and returns only when every lane finished (bulk-synchronous, like a CUDA
// kernel followed by cudaDeviceSynchronize). All algorithm code written
// against Device is phrased exactly as the CUDA kernels would be, so the
// heterogeneous work-partitioning logic of the paper is exercised unchanged;
// only absolute throughput differs (see DESIGN.md §2).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>

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

  /// Cooperative block context handed to launch_blocks kernels: per-block
  /// shared scratch plus lane iteration with an implicit barrier between
  /// consecutive for_each_lane passes — the software analogue of a CUDA
  /// thread block with __shared__ memory and __syncthreads().
  class Block {
   public:
    Block(std::size_t id, std::span<std::uint64_t> shared)
        : id_(id), shared_(shared) {}

    [[nodiscard]] std::size_t id() const noexcept { return id_; }
    /// Shared scratch, zeroed before the kernel body runs.
    [[nodiscard]] std::span<std::uint64_t> shared() noexcept { return shared_; }

    /// One cooperative pass: body(lane) for lane in [0, lanes). All lanes
    /// of a pass complete before the call returns (the barrier).
    void for_each_lane(std::size_t lanes,
                       const std::function<void(std::size_t)>& body) const {
      for (std::size_t lane = 0; lane < lanes; ++lane) body(lane);
    }

   private:
    std::size_t id_;
    std::span<std::uint64_t> shared_;
  };

  /// Launches `num_blocks` cooperative blocks, each with `shared_words` of
  /// zeroed shared scratch; blocks are distributed over the device workers
  /// and may run concurrently, while lanes within one block run on one
  /// worker in barrier-separated passes. Blocks until all blocks retire.
  void launch_blocks(std::size_t num_blocks, std::size_t shared_words,
                     const std::function<void(Block&)>& kernel);

  /// Completion handle of an asynchronous block launch. Default-constructed
  /// handles are valid and already complete; wait() is idempotent.
  class Async {
   public:
    Async() = default;
    /// Blocks until every block of the launch retired.
    void wait();

   private:
    friend class Device;
    struct State {
      std::mutex mutex;
      std::condition_variable done_cv;
      bool done = false;
    };
    explicit Async(std::shared_ptr<State> state) : state_(std::move(state)) {}
    std::shared_ptr<State> state_;
  };

  /// launch_blocks without the final synchronize: the grid is driven by a
  /// device worker while the caller keeps running — the software analogue
  /// of an async CUDA launch on a side stream. The heterogeneous MCB
  /// driver uses this to overlap CPU candidate search with device witness
  /// maintenance. The returned handle must be waited on before any data
  /// the kernel touches is read or freed.
  Async launch_blocks_async(std::size_t num_blocks, std::size_t shared_words,
                            std::function<void(Block&)> kernel);

  /// Kernel-launch counter (diagnostics / tests).
  [[nodiscard]] std::uint64_t kernels_launched() const noexcept {
    return kernels_.load();
  }

 private:
  /// Shared body of launch_blocks / launch_blocks_async. `allow_parallel`
  /// is false when the caller already occupies the last device worker (the
  /// async driver on a one-worker device), where fanning out would
  /// deadlock the pool.
  void run_blocks(std::size_t num_blocks, std::size_t shared_words,
                  const std::function<void(Block&)>& kernel,
                  bool allow_parallel);

  DeviceConfig config_;
  ThreadPool pool_;
  std::atomic<std::uint64_t> kernels_{0};
};

}  // namespace eardec::hetero
