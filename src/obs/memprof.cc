#include "obs/memprof.h"

#if defined(__linux__)
#include <cstdio>
#include <cstring>
#endif
#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace widen::obs {

namespace {

#if defined(__linux__)
// Reads a "Vm...:  <kB> kB" field from /proc/self/status; -1 when absent.
int64_t ReadProcStatusKb(const char* field) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1;
  char line[256];
  const size_t field_len = std::strlen(field);
  int64_t kb = -1;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, field, field_len) == 0 && line[field_len] == ':') {
      long long value = 0;
      if (std::sscanf(line + field_len + 1, "%lld", &value) == 1) kb = value;
      break;
    }
  }
  std::fclose(f);
  return kb;
}
#endif

}  // namespace

int64_t ReadPeakRssBytes() {
#if defined(__linux__)
  const int64_t kb = ReadProcStatusKb("VmHWM");
  if (kb >= 0) return kb * 1024;
#endif
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) == 0) {
#if defined(__APPLE__)
    return static_cast<int64_t>(usage.ru_maxrss);  // bytes on macOS
#else
    return static_cast<int64_t>(usage.ru_maxrss) * 1024;  // kB elsewhere
#endif
  }
#endif
  return 0;
}

int64_t ReadCurrentRssBytes() {
#if defined(__linux__)
  const int64_t kb = ReadProcStatusKb("VmRSS");
  if (kb >= 0) return kb * 1024;
#endif
  return 0;
}

}  // namespace widen::obs
