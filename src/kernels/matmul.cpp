#include "kernels/matmul.hpp"

#include <algorithm>
#include <cstring>

#include "common/parallel.hpp"

namespace pooch::kernels {

namespace {

// Blocking parameters. One MR x NR tile of C lives in vector registers
// across the k loop (see micro_tile). KC x NC is the packed B panel
// (~240 KiB, L2-resident); MC x KC is the packed A panel.
constexpr std::int64_t kMR = 12;
constexpr std::int64_t kNR = 16;
constexpr std::int64_t kKC = 256;
constexpr std::int64_t kNC = 240;  // multiple of kNR
constexpr std::int64_t kMC = 96;   // multiple of kMR

// Floats per vector register of the translation unit's ISA: GCC and
// Clang set __BIGGEST_ALIGNMENT__ to the widest vector register, 64
// bytes with AVX-512, 32 with AVX, 16 with SSE or NEON. A tile row of
// NR floats is NR / kVF vector values. A single 64-byte vector type
// would be simpler to write, but GCC lowers vector types wider than the
// ISA through memory, at a fraction of the speed.
constexpr std::int64_t kVF = std::min<std::int64_t>(
    kNR, __BIGGEST_ALIGNMENT__ / static_cast<std::int64_t>(sizeof(float)));
constexpr std::int64_t kNV = kNR / kVF;
static_assert(kNR % kVF == 0);

/// kVF floats as one GCC/Clang vector value.
typedef float Vec __attribute__((vector_size(kVF * sizeof(float))));

inline Vec load_vec(const float* p) {
  Vec v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline void store_vec(float* p, Vec v) { std::memcpy(p, &v, sizeof(v)); }

/// Operand layout of the blocked GEMM core.
struct GemmShape {
  const float* a = nullptr;
  const float* b = nullptr;
  float* c = nullptr;
  std::int64_t m = 0, k = 0, n = 0;
  bool a_trans = false;  // A stored (k,m) instead of (m,k)
  bool b_trans = false;  // B stored (n,k) instead of (k,n)
  bool overwrite = true; // C = A*B (beta=0 store path) vs C += A*B
};

// Pack B(k0:k0+kc, j0:j0+nc) into NR-wide column panels:
// bp[jb][p][jr] with zero fill past nc. Both layouts read their source
// contiguously: rows of a (k,n) B, columns (rows of storage) of a
// transposed (n,k) B.
void pack_b(const GemmShape& g, std::int64_t k0, std::int64_t kc,
            std::int64_t j0, std::int64_t nc, float* bp) {
  for (std::int64_t jb = 0; jb * kNR < nc; ++jb) {
    float* panel = bp + jb * kc * kNR;
    const std::int64_t j = j0 + jb * kNR;
    const std::int64_t jw = std::min(kNR, nc - jb * kNR);
    if (g.b_trans) {
      for (std::int64_t jr = 0; jr < jw; ++jr) {
        const float* src = g.b + (j + jr) * g.k + k0;
        for (std::int64_t p = 0; p < kc; ++p) panel[p * kNR + jr] = src[p];
      }
      for (std::int64_t jr = jw; jr < kNR; ++jr) {
        for (std::int64_t p = 0; p < kc; ++p) panel[p * kNR + jr] = 0.0f;
      }
      continue;
    }
    for (std::int64_t p = 0; p < kc; ++p) {
      float* row = panel + p * kNR;
      std::memcpy(row, g.b + (k0 + p) * g.n + j,
                  static_cast<std::size_t>(jw) * sizeof(float));
      for (std::int64_t jr = jw; jr < kNR; ++jr) row[jr] = 0.0f;
    }
  }
}

// Pack A(i0:i0+mc, k0:k0+kc) into MR-tall row panels:
// ap[ib][p][ir] with zero fill past mc. Like pack_b, each layout reads
// its source contiguously.
void pack_a(const GemmShape& g, std::int64_t i0, std::int64_t mc,
            std::int64_t k0, std::int64_t kc, float* ap) {
  for (std::int64_t ib = 0; ib * kMR < mc; ++ib) {
    float* panel = ap + ib * kc * kMR;
    const std::int64_t i = i0 + ib * kMR;
    const std::int64_t iw = std::min(kMR, mc - ib * kMR);
    if (g.a_trans) {
      for (std::int64_t p = 0; p < kc; ++p) {
        float* col = panel + p * kMR;
        std::memcpy(col, g.a + (k0 + p) * g.m + i,
                    static_cast<std::size_t>(iw) * sizeof(float));
        for (std::int64_t ir = iw; ir < kMR; ++ir) col[ir] = 0.0f;
      }
      continue;
    }
    for (std::int64_t ir = 0; ir < iw; ++ir) {
      const float* src = g.a + (i + ir) * g.k + k0;
      for (std::int64_t p = 0; p < kc; ++p) panel[p * kMR + ir] = src[p];
    }
    for (std::int64_t ir = iw; ir < kMR; ++ir) {
      for (std::int64_t p = 0; p < kc; ++p) panel[p * kMR + ir] = 0.0f;
    }
  }
}

// The MR x NR micro-kernel. The accumulators are MR x NR/kVF vector
// values and every loop over them is fully unrolled, so the whole tile
// stays in registers across the k loop; an array indexed by loop
// variables would be kept in memory instead. Each element gets one
// multiply-add per p, in ascending p order: the same per-element
// operation sequence as the scalar references.
void micro_tile(const float* ap, const float* bp, std::int64_t kc, float* c,
                std::int64_t ldc, bool zero_init) {
  static_assert(kMR == 12 && kNV <= 4, "the unroll counts spell these out");
  Vec acc[kMR][kNV];
#pragma GCC unroll 12
  for (std::int64_t ir = 0; ir < kMR; ++ir) {
#pragma GCC unroll 4
    for (std::int64_t v = 0; v < kNV; ++v) {
      acc[ir][v] = zero_init ? Vec{} : load_vec(c + ir * ldc + v * kVF);
    }
  }
  for (std::int64_t p = 0; p < kc; ++p) {
    Vec b[kNV];
#pragma GCC unroll 4
    for (std::int64_t v = 0; v < kNV; ++v) {
      b[v] = load_vec(bp + p * kNR + v * kVF);
    }
    const float* a = ap + p * kMR;
#pragma GCC unroll 12
    for (std::int64_t ir = 0; ir < kMR; ++ir) {
#pragma GCC unroll 4
      for (std::int64_t v = 0; v < kNV; ++v) acc[ir][v] += a[ir] * b[v];
    }
  }
#pragma GCC unroll 12
  for (std::int64_t ir = 0; ir < kMR; ++ir) {
#pragma GCC unroll 4
    for (std::int64_t v = 0; v < kNV; ++v) {
      store_vec(c + ir * ldc + v * kVF, acc[ir][v]);
    }
  }
}

// Edge tile (mr < MR and/or nr < NR): the same micro-kernel on the
// zero-padded panels through a full-size local tile; only the valid
// lanes are read from and written back to C.
void micro_edge(const float* ap, const float* bp, std::int64_t kc, float* c,
                std::int64_t ldc, std::int64_t mr, std::int64_t nr,
                bool zero_init) {
  alignas(64) float tile[kMR * kNR] = {};
  const std::size_t row_bytes = static_cast<std::size_t>(nr) * sizeof(float);
  if (!zero_init) {
    for (std::int64_t ir = 0; ir < mr; ++ir) {
      std::memcpy(tile + ir * kNR, c + ir * ldc, row_bytes);
    }
  }
  micro_tile(ap, bp, kc, tile, kNR, zero_init);
  for (std::int64_t ir = 0; ir < mr; ++ir) {
    std::memcpy(c + ir * ldc, tile + ir * kNR, row_bytes);
  }
}

// Scratch floats one GEMM worker needs for its packing panels.
constexpr std::size_t kGemmScratchFloats =
    static_cast<std::size_t>(kKC * kNC + kMC * kKC);

// Run the blocked GEMM for output rows [r0, r1) only, using the
// caller's packing scratch. Thread-safe across disjoint row ranges with
// distinct scratch.
void gemm_rows(const GemmShape& g, std::int64_t r0, std::int64_t r1,
               float* scratch) {
  if (r0 >= r1 || g.n <= 0) return;
  float* bp = scratch;               // kKC * kNC
  float* ap = scratch + kKC * kNC;   // kMC * kKC
  const std::int64_t ldc = g.n;
  for (std::int64_t jc = 0; jc < g.n; jc += kNC) {
    const std::int64_t nc = std::min(kNC, g.n - jc);
    for (std::int64_t pc = 0; pc < g.k; pc += kKC) {
      const std::int64_t kc = std::min(kKC, g.k - pc);
      pack_b(g, pc, kc, jc, nc, bp);
      // beta=0 store path: the first k panel writes C outright instead
      // of memset-then-accumulate; later panels reload and continue the
      // ascending-k accumulation.
      const bool zero_init = g.overwrite && pc == 0;
      for (std::int64_t ic = r0; ic < r1; ic += kMC) {
        const std::int64_t mc = std::min(kMC, r1 - ic);
        pack_a(g, ic, mc, pc, kc, ap);
        for (std::int64_t jb = 0; jb * kNR < nc; ++jb) {
          const std::int64_t nr = std::min(kNR, nc - jb * kNR);
          for (std::int64_t ib = 0; ib * kMR < mc; ++ib) {
            const std::int64_t mr = std::min(kMR, mc - ib * kMR);
            float* ctile = g.c + (ic + ib * kMR) * ldc + jc + jb * kNR;
            if (mr == kMR && nr == kNR) {
              micro_tile(ap + ib * kc * kMR, bp + jb * kc * kNR, kc, ctile,
                         ldc, zero_init);
            } else {
              micro_edge(ap + ib * kc * kMR, bp + jb * kc * kNR, kc, ctile,
                         ldc, mr, nr, zero_init);
            }
          }
        }
      }
    }
  }
}

// Fan MR-row panels of C out over the context's pool. Each block packs
// its own panels, so B is packed once per block but blocks never wait
// on each other; rows are independent outputs, so any partition yields
// bit-identical C.
void gemm(const GemmShape& g, KernelContext& ctx) {
  if (g.m <= 0 || g.n <= 0) return;
  if (g.k <= 0) {
    if (g.overwrite) {
      for (std::int64_t i = 0; i < g.m; ++i) {
        std::memset(g.c + i * g.n, 0,
                    static_cast<std::size_t>(g.n) * sizeof(float));
      }
    }
    return;
  }
  // Parallelism only pays above a few million FLOPs; tiny GEMMs (the
  // classifier-head shapes) stay inline.
  const bool fan_out =
      ctx.pool() != nullptr &&
      2.0 * static_cast<double>(g.m) * static_cast<double>(g.k) *
              static_cast<double>(g.n) >=
          2.0e6;
  if (!fan_out) {
    gemm_rows(g, 0, g.m,
              ctx.scratch(0, KernelContext::kGemmArena, kGemmScratchFloats));
    return;
  }
  // Partition whole MR-row panels so no block boundary adds edge tiles.
  parallel_for(ctx.pool(), (g.m + kMR - 1) / kMR, 1,
               [&](std::int64_t p0, std::int64_t p1, int slot) {
                 gemm_rows(g, p0 * kMR, std::min(p1 * kMR, g.m),
                           ctx.scratch(slot, KernelContext::kGemmArena,
                                       kGemmScratchFloats));
               });
}

}  // namespace

void matmul(const float* a, const float* b, float* c, std::int64_t m,
            std::int64_t k, std::int64_t n, KernelContext& ctx) {
  KernelTimer t(ctx, "matmul");
  gemm({a, b, c, m, k, n, false, false, true}, ctx);
}

void matmul_acc(const float* a, const float* b, float* c, std::int64_t m,
                std::int64_t k, std::int64_t n, KernelContext& ctx) {
  KernelTimer t(ctx, "matmul_acc");
  gemm({a, b, c, m, k, n, false, false, false}, ctx);
}

void matmul_at(const float* a, const float* b, float* c, std::int64_t m,
               std::int64_t k, std::int64_t n, KernelContext& ctx) {
  KernelTimer t(ctx, "matmul_at");
  gemm({a, b, c, m, k, n, true, false, true}, ctx);
}

void matmul_bt(const float* a, const float* b, float* c, std::int64_t m,
               std::int64_t k, std::int64_t n, KernelContext& ctx) {
  KernelTimer t(ctx, "matmul_bt");
  gemm({a, b, c, m, k, n, false, true, true}, ctx);
}

void matmul_bt_acc(const float* a, const float* b, float* c, std::int64_t m,
                   std::int64_t k, std::int64_t n, KernelContext& ctx) {
  KernelTimer t(ctx, "matmul_bt_acc");
  gemm({a, b, c, m, k, n, false, true, false}, ctx);
}

// --- scalar references -----------------------------------------------
//
// Canonical accumulation order for every variant: each C element starts
// from its beta value (0 or the prior C) and adds one a*b product per k
// index, in ascending k. The blocked kernels above replicate exactly
// this per-element sequence.

void matmul_ref(const float* a, const float* b, float* c, std::int64_t m,
                std::int64_t k, std::int64_t n) {
  std::memset(c, 0, static_cast<std::size_t>(m * n) * sizeof(float));
  matmul_acc_ref(a, b, c, m, k, n);
}

void matmul_acc_ref(const float* a, const float* b, float* c, std::int64_t m,
                    std::int64_t k, std::int64_t n) {
  for (std::int64_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    for (std::int64_t p = 0; p < k; ++p) {
      const float av = arow[p];
      const float* brow = b + p * n;
      for (std::int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void matmul_at_ref(const float* a, const float* b, float* c, std::int64_t m,
                   std::int64_t k, std::int64_t n) {
  std::memset(c, 0, static_cast<std::size_t>(m * n) * sizeof(float));
  // A stored as (k, m): element A^T(i,p) = a[p*m + i].
  for (std::int64_t p = 0; p < k; ++p) {
    const float* arow = a + p * m;
    const float* brow = b + p * n;
    for (std::int64_t i = 0; i < m; ++i) {
      const float av = arow[i];
      float* crow = c + i * n;
      for (std::int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void matmul_bt_ref(const float* a, const float* b, float* c, std::int64_t m,
                   std::int64_t k, std::int64_t n) {
  // B stored as (n, k): element B^T(p,j) = b[j*k + p].
  for (std::int64_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    for (std::int64_t j = 0; j < n; ++j) {
      const float* bcol = b + j * k;
      float acc = 0.0f;
      for (std::int64_t p = 0; p < k; ++p) acc += arow[p] * bcol[p];
      crow[j] = acc;
    }
  }
}

void matmul_bt_acc_ref(const float* a, const float* b, float* c,
                       std::int64_t m, std::int64_t k, std::int64_t n) {
  for (std::int64_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    for (std::int64_t j = 0; j < n; ++j) {
      const float* bcol = b + j * k;
      float acc = crow[j];
      for (std::int64_t p = 0; p < k; ++p) acc += arow[p] * bcol[p];
      crow[j] = acc;
    }
  }
}

}  // namespace pooch::kernels
