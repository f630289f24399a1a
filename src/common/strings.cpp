#include "common/strings.hpp"

#include <cstdio>

namespace pooch {

namespace {

std::string printf_string(const char* fmt, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, v);
  return std::string(buf);
}

}  // namespace

std::string format_bytes(std::size_t bytes) {
  const double b = static_cast<double>(bytes);
  if (bytes >= (std::size_t{1} << 30)) {
    return printf_string("%.2f GiB", b / static_cast<double>(1ULL << 30));
  }
  if (bytes >= (std::size_t{1} << 20)) {
    return printf_string("%.2f MiB", b / static_cast<double>(1ULL << 20));
  }
  if (bytes >= (std::size_t{1} << 10)) {
    return printf_string("%.2f KiB", b / static_cast<double>(1ULL << 10));
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%zu B", bytes);
  return std::string(buf);
}

std::string format_time(double seconds) {
  if (seconds >= 1.0) return printf_string("%.3f s", seconds);
  if (seconds >= 1e-3) return printf_string("%.3f ms", seconds * 1e3);
  return printf_string("%.1f us", seconds * 1e6);
}

std::string join(const std::vector<std::string>& parts,
                 const std::string& sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out += sep;
    out += parts[i];
  }
  return out;
}

}  // namespace pooch
