// Page-backed storage for the snapshot-sized distance tables.
//
// Each serving epoch allocates its tables once and frees them when the epoch
// retires. Through malloc, glibc's dynamic mmap threshold rises after the
// first large free, so later tables of the same size come from the brk heap,
// and retired epochs leave resident holes there: RSS climbs across rebuilds
// while the heap in use stays flat. Here each large table is its own
// anonymous mapping instead. A retired table is kept for the next table of
// the same size (a rebuild of the same graph asks for exactly the sizes its
// last epoch freed), so that build reuses resident pages rather than
// faulting in fresh ones; at most kRetiredMappings are kept, one per size,
// and every other retired mapping goes straight back to the OS.
//
// Under AddressSanitizer, and off Linux, every allocation goes through
// operator new instead, so the tables stay bounds-checked under ASan.
#pragma once

#include <cstddef>
#include <new>
#include <vector>

namespace eardec::sssp {

/// Whether large tables are mapped pages. Follows from the target and the
/// compiler's own ASan macros only; nothing on the command line selects it.
#if !defined(__linux__) || defined(__SANITIZE_ADDRESS__)
inline constexpr bool kPageBackedTables = false;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
inline constexpr bool kPageBackedTables = false;
#else
inline constexpr bool kPageBackedTables = true;
#endif
#else
inline constexpr bool kPageBackedTables = true;
#endif

/// Allocations of at least this many bytes are mapped pages.
inline constexpr std::size_t kMapBytes = std::size_t{64} << 10;
/// Retired mappings kept for reuse, at most one per size.
inline constexpr std::size_t kRetiredMappings = 4;

// Defined only where kPageBackedTables holds (page_allocator.cpp).
namespace detail {
/// A mapping of `bytes` (>= kMapBytes): a kept retired one of the same size
/// if there is one, else fresh pages. Throws std::bad_alloc.
[[nodiscard]] void* map_table(std::size_t bytes);
/// Keeps a mapping from map_table() for reuse or unmaps it.
void unmap_table(void* p, std::size_t bytes) noexcept;
}  // namespace detail

template <class T>
class PageAllocator {
 public:
  using value_type = T;

  PageAllocator() = default;
  template <class U>
  PageAllocator(const PageAllocator<U>& /*other*/) noexcept {}

  [[nodiscard]] T* allocate(std::size_t n) {
    if (n > static_cast<std::size_t>(-1) / sizeof(T)) throw std::bad_alloc();
    const std::size_t bytes = n * sizeof(T);
    if constexpr (kPageBackedTables) {
      if (bytes >= kMapBytes) return static_cast<T*>(detail::map_table(bytes));
    }
    return static_cast<T*>(::operator new(bytes));
  }

  void deallocate(T* p, std::size_t n) noexcept {
    const std::size_t bytes = n * sizeof(T);
    if constexpr (kPageBackedTables) {
      if (bytes >= kMapBytes) {
        detail::unmap_table(p, bytes);
        return;
      }
    }
    ::operator delete(p, bytes);
  }

  friend bool operator==(const PageAllocator& /*a*/,
                         const PageAllocator& /*b*/) noexcept {
    return true;
  }
};

/// A vector whose large buffers are page-backed (see PageAllocator).
template <class T>
using PageVector = std::vector<T, PageAllocator<T>>;

}  // namespace eardec::sssp
