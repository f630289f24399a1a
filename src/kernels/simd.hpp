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
#include <utility>

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

/// Lane i of zip<kHi>(a, b) is lane i/2 of a (even i) or of b (odd i),
/// from the lower (kHi = 0) or upper (kHi = 1) halves.
template <int kHi, int N, std::size_t... I>
inline Vec<float, N> zip(Vec<float, N> a, Vec<float, N> b,
                         std::index_sequence<I...>) {
  return __builtin_shufflevector(
      a, b, static_cast<int>(I / 2 + kHi * (N / 2) + (I % 2) * N)...);
}

/// Transposes N x N floats in registers: lane l of rows[r] moves to lane
/// r of rows[l]. Each of the log2(N) rounds zips row r with row r + N/2
/// into rows 2r and 2r + 1.
template <int N>
inline void transpose(Vec<float, N> (&rows)[N]) {
  constexpr auto lanes = std::make_index_sequence<N>{};
#pragma GCC unroll 4
  for (int round = 1; round < N; round *= 2) {
    Vec<float, N> out[N];
#pragma GCC unroll 8
    for (int r = 0; r < N / 2; ++r) {
      out[2 * r] = zip<0, N>(rows[r], rows[r + N / 2], lanes);
      out[2 * r + 1] = zip<1, N>(rows[r], rows[r + N / 2], lanes);
    }
#pragma GCC unroll 16
    for (int r = 0; r < N; ++r) rows[r] = out[r];
  }
}

}  // namespace pooch::kernels::simd
