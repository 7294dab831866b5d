// Small string helpers (gcc 12 lacks std::format, so these fill the gap).
#ifndef CONCLAVE_COMMON_STRINGS_H_
#define CONCLAVE_COMMON_STRINGS_H_

#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace conclave {

// printf into a std::string.
inline std::string StrFormat(const char* format, ...)
    __attribute__((format(printf, 1, 2)));

inline std::string StrFormat(const char* format, ...) {
  va_list args;
  va_start(args, format);
  va_list args_copy;
  va_copy(args_copy, args);
  const int size = std::vsnprintf(nullptr, 0, format, args);
  va_end(args);
  std::string result;
  if (size > 0) {
    result.resize(static_cast<size_t>(size));
    std::vsnprintf(result.data(), result.size() + 1, format, args_copy);
  }
  va_end(args_copy);
  return result;
}

template <typename Container>
std::string StrJoin(const Container& parts, const std::string& separator) {
  std::string result;
  bool first = true;
  for (const auto& part : parts) {
    if (!first) {
      result += separator;
    }
    result += part;
    first = false;
  }
  return result;
}

// "1.5 GB", "23.4 MB", "512 B"; up to "16.0 EB" (UINT64_MAX).
inline std::string HumanBytes(uint64_t bytes) {
  constexpr const char* kUnits[] = {"B", "KB", "MB", "GB", "TB", "PB", "EB"};
  double value = static_cast<double>(bytes);
  size_t unit = 0;
  while (value >= 1024.0 && unit + 1 < sizeof(kUnits) / sizeof(kUnits[0])) {
    value /= 1024.0;
    ++unit;
  }
  if (unit == 0) {
    return StrFormat("%llu B", static_cast<unsigned long long>(bytes));
  }
  return StrFormat("%.1f %s", value, kUnits[unit]);
}

// "2.5 h", "3.2 min", "42.1 s", "13.4 ms".
inline std::string HumanSeconds(double seconds) {
  if (seconds >= 3600.0) {
    return StrFormat("%.2f h", seconds / 3600.0);
  }
  if (seconds >= 60.0) {
    return StrFormat("%.2f min", seconds / 60.0);
  }
  if (seconds >= 1.0) {
    return StrFormat("%.2f s", seconds);
  }
  return StrFormat("%.2f ms", seconds * 1000.0);
}

// "1B", "300M", "10k" style labels for log-scale sweep axes.
inline std::string HumanCount(uint64_t count) {
  if (count >= 1000000000ULL && count % 1000000000ULL == 0) {
    return StrFormat("%lluB", static_cast<unsigned long long>(count / 1000000000ULL));
  }
  if (count >= 1000000ULL && count % 1000000ULL == 0) {
    return StrFormat("%lluM", static_cast<unsigned long long>(count / 1000000ULL));
  }
  if (count >= 1000ULL && count % 1000ULL == 0) {
    return StrFormat("%lluk", static_cast<unsigned long long>(count / 1000ULL));
  }
  return StrFormat("%llu", static_cast<unsigned long long>(count));
}

}  // namespace conclave

#endif  // CONCLAVE_COMMON_STRINGS_H_
