#include "obs/rss.hpp"

#include <cstdio>

#if defined(__linux__)
#include <unistd.h>
#endif

namespace eardec::obs {

double read_rss_mb() {
#if defined(__linux__)
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return -1.0;
  unsigned long total_pages = 0;  // NOLINT(google-runtime-int): scanf ABI
  unsigned long resident_pages = 0;
  const int matched = std::fscanf(f, "%lu %lu", &total_pages, &resident_pages);
  std::fclose(f);
  if (matched != 2) return -1.0;
  const long page = sysconf(_SC_PAGESIZE);
  if (page <= 0) return -1.0;
  return static_cast<double>(resident_pages) * static_cast<double>(page) /
         (1024.0 * 1024.0);
#else
  return -1.0;
#endif
}

double read_peak_rss_mb() {
#if defined(__linux__)
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1.0;
  char line[256];
  double peak_mb = -1.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    unsigned long kb = 0;  // NOLINT(google-runtime-int): scanf ABI
    if (std::sscanf(line, "VmHWM: %lu kB", &kb) == 1) {
      peak_mb = static_cast<double>(kb) / 1024.0;
      break;
    }
  }
  std::fclose(f);
  return peak_mb;
#else
  return -1.0;
#endif
}

}  // namespace eardec::obs
