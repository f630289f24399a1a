// Byte and time unit helpers used throughout the library.
//
// All simulated times in the library are expressed in double-precision
// seconds; all sizes in std::size_t bytes. These helpers exist so that
// literal constants in configuration code read unambiguously.
#pragma once

#include <cstddef>
#include <cstdint>

namespace pooch {

inline constexpr std::size_t kKiB = 1024;
inline constexpr std::size_t kMiB = 1024 * kKiB;
inline constexpr std::size_t kGiB = 1024 * kMiB;

/// Convert gigabytes-per-second (decimal, as interconnect specs are quoted)
/// to bytes-per-second.
constexpr double gbps_to_bytes_per_sec(double gbps) { return gbps * 1e9; }

/// Convert a TFLOPS rating to FLOP/s.
constexpr double tflops_to_flops(double tflops) { return tflops * 1e12; }

constexpr double us_to_sec(double us) { return us * 1e-6; }
constexpr double sec_to_ms(double sec) { return sec * 1e3; }

/// Bytes expressed as a fractional number of GiB (for reporting only).
constexpr double bytes_to_gib(std::size_t bytes) {
  return static_cast<double>(bytes) / static_cast<double>(kGiB);
}

constexpr double bytes_to_mib(std::size_t bytes) {
  return static_cast<double>(bytes) / static_cast<double>(kMiB);
}

}  // namespace pooch
