// Deterministic random number generation.
//
// Two generators are provided:
//  - Rng: a stateful SplitMix64 stream, used wherever a module needs a
//    private deterministic stream (data init, profiling noise).
//  - counter_hash / counter_uniform: a stateless counter-based generator
//    (keyed hash), used by the dropout kernel so a recomputed forward pass
//    regenerates exactly the same mask it produced the first time. This is
//    the property that makes `recompute` numerically transparent.
//
// Nothing in the library touches std::random_device or the wall clock.
#pragma once

#include <cstdint>

namespace pooch {

namespace detail {

/// SplitMix64's state increment: the state after n draws is seed + n * it.
constexpr std::uint64_t kSplitMix64Gamma = 0x9e3779b97f4a7c15ULL;

constexpr std::uint64_t splitmix64_step(std::uint64_t& state) {
  state += kSplitMix64Gamma;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace detail

/// Stateful deterministic RNG (SplitMix64).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next_u64() { return detail::splitmix64_step(state_); }

  /// Skip the next n draws of next_u64() in O(1). A copy advanced by the
  /// draws that come before a block of work produces exactly that
  /// block's values, which is what lets a serial stream be filled in
  /// parallel.
  void discard(std::uint64_t n) { state_ += n * detail::kSplitMix64Gamma; }

  /// Uniform in [0, 1).
  double uniform() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Standard normal via Box-Muller (one value per call; no caching so the
  /// stream position is easy to reason about).
  double normal() {
    double u1 = uniform();
    double u2 = uniform();
    if (u1 < 1e-300) u1 = 1e-300;
    constexpr double two_pi = 6.283185307179586476925286766559;
    return __builtin_sqrt(-2.0 * __builtin_log(u1)) *
           __builtin_cos(two_pi * u2);
  }

  double normal(double mean, double stddev) { return mean + stddev * normal(); }

  /// Uniform integer in [0, n).
  std::uint64_t below(std::uint64_t n) { return n == 0 ? 0 : next_u64() % n; }

 private:
  std::uint64_t state_;
};

/// Stateless keyed hash: maps (key, counter) to a well-mixed 64-bit value.
constexpr std::uint64_t counter_hash(std::uint64_t key, std::uint64_t counter) {
  std::uint64_t state = key ^ (counter * 0xd1342543de82ef95ULL);
  return detail::splitmix64_step(state);
}

/// Stateless uniform in [0, 1) for (key, counter).
constexpr double counter_uniform(std::uint64_t key, std::uint64_t counter) {
  return static_cast<double>(counter_hash(key, counter) >> 11) * 0x1.0p-53;
}

}  // namespace pooch
