#include "hetero/device.hpp"

namespace eardec::hetero {

Device::Device(DeviceConfig config)
    : config_(std::move(config)),
      pool_(config_.workers == 0 ? 1 : config_.workers) {}

void Device::launch(std::size_t grid,
                    const std::function<void(std::size_t)>& kernel) {
  kernels_.fetch_add(1, std::memory_order_relaxed);
  if (grid == 0) return;
  // Warp-granular dynamic striping over the device workers.
  pool_.parallel_for(0, grid, kernel, config_.warp_size);
}

}  // namespace eardec::hetero
