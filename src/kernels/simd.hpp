// GCC/Clang vector types for the numeric kernels.
//
// kLanes is the float count of the translation unit's widest vector
// register: GCC and Clang set __BIGGEST_ALIGNMENT__ to 64 bytes with
// AVX-512, 32 with AVX, 16 with SSE or NEON. GCC lowers vector types
// wider than the ISA through memory, at a fraction of the speed, so a
// kernel keeps its vector values at most kLanes floats wide.
//
// Vector arithmetic is the scalar IEEE operation per lane, so a kernel
// that applies the same expression to each element in vector form stays
// bit-identical to its scalar loop. Include only from src/kernels: those
// sources share one set of ISA flags, which keeps kLanes one value.
#pragma once

#include <cstddef>
#include <cstring>

namespace pooch::kernels::simd {

inline constexpr int kLanes =
    static_cast<int>(__BIGGEST_ALIGNMENT__ / sizeof(float));

template <typename T, int N>
struct VecType {
  typedef T type __attribute__((vector_size(N * sizeof(T))));
};

/// N values of T as one vector value.
template <typename T, int N>
using Vec = typename VecType<T, N>::type;

/// Unaligned load and store of one vector value.
template <typename V>
inline V load(const void* p) {
  V v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

template <typename V>
inline void store(void* p, V v) {
  std::memcpy(p, &v, sizeof(v));
}

}  // namespace pooch::kernels::simd
