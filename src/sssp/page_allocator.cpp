#include "sssp/page_allocator.hpp"

#if defined(__linux__)
#include <sys/mman.h>
#include <unistd.h>

#include <array>
#include <mutex>
#include <utility>

namespace eardec::sssp::detail {
namespace {

struct Mapping {
  void* p = nullptr;
  std::size_t bytes = 0;  ///< 0 marks a free slot
};

/// Retired mappings, at most one per size; the oldest makes room.
struct Retired {
  std::mutex mu;
  std::array<Mapping, kRetiredMappings> slots;
  std::size_t next_victim = 0;
};

Retired& retired() {
  // Intentionally leaked: tables owned by other statics may retire during
  // exit.
  static auto* r = new Retired;
  return *r;
}

/// Mappings of one size in pages serve each other's requests.
bool same_pages(std::size_t a, std::size_t b) {
  static const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  return (a + page - 1) / page == (b + page - 1) / page;
}

}  // namespace

void* map_table(std::size_t bytes) {
  {
    Retired& r = retired();
    const std::lock_guard lock(r.mu);
    for (Mapping& m : r.slots) {
      if (m.bytes != 0 && same_pages(m.bytes, bytes)) {
        void* p = m.p;
        m = {};
        return p;
      }
    }
  }
  // The caller fills every table right after allocating it, so fault its
  // pages in one call rather than one trap per page.
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_POPULATE, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  return p;
}

void unmap_table(void* p, std::size_t bytes) noexcept {
  Mapping out{p, bytes};  // kept, or else unmapped below
  {
    Retired& r = retired();
    const std::lock_guard lock(r.mu);
    Mapping* slot = nullptr;
    for (Mapping& m : r.slots) {
      // The newer of one size is kept.
      if (m.bytes != 0 && same_pages(m.bytes, bytes)) slot = &m;
    }
    for (Mapping& m : r.slots) {
      if (slot == nullptr && m.bytes == 0) slot = &m;
    }
    if (slot == nullptr) {
      slot = &r.slots[r.next_victim];
      r.next_victim = (r.next_victim + 1) % r.slots.size();
    }
    std::swap(*slot, out);
  }
  if (out.bytes != 0) ::munmap(out.p, out.bytes);
}

}  // namespace eardec::sssp::detail
#endif  // __linux__
