// Small string-formatting helpers (GCC 12 lacks std::format).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace pooch {

/// "1.50 GiB", "320.0 MiB", "17 B" — human-readable byte counts.
std::string format_bytes(std::size_t bytes);

/// "12.34 ms", "1.20 s", "450 us" — human-readable durations from seconds.
std::string format_time(double seconds);

/// Join strings with a separator.
std::string join(const std::vector<std::string>& parts, const std::string& sep);

}  // namespace pooch
