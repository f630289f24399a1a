#include "kernels/matmul.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/parallel.hpp"
#include "kernels/simd.hpp"

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

// Floats per vector value: the ISA's register width (simd::kLanes),
// at most one tile row. A tile row of NR floats is NR / kVF vector
// values.
constexpr std::int64_t kVF = std::min<std::int64_t>(kNR, simd::kLanes);
constexpr std::int64_t kNV = kNR / kVF;
static_assert(kNR % kVF == 0);

typedef simd::Vec<float, kVF> Vec;

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

// Lane i of zip<0>(a, b) is lane i/2 of a (even i) or of b (odd i);
// zip<1> does the same from the upper halves.
template <int kHi, std::size_t... I>
Vec zip(Vec a, Vec b, std::index_sequence<I...>) {
  return __builtin_shufflevector(
      a, b, static_cast<int>(I / 2 + kHi * (kVF / 2) + (I % 2) * kVF)...);
}

// Transpose kVF x kVF floats in registers: lane l of rows[r] moves to
// lane r of rows[l]. Each of the log2(kVF) rounds zips row r with row
// r + kVF/2 into rows 2r and 2r + 1.
void transpose(Vec (&rows)[kVF]) {
  constexpr auto lanes = std::make_index_sequence<kVF>{};
#pragma GCC unroll 4
  for (std::int64_t round = 1; round < kVF; round *= 2) {
    Vec out[kVF];
#pragma GCC unroll 8
    for (std::int64_t r = 0; r < kVF / 2; ++r) {
      out[2 * r] = zip<0>(rows[r], rows[r + kVF / 2], lanes);
      out[2 * r + 1] = zip<1>(rows[r], rows[r + kVF / 2], lanes);
    }
#pragma GCC unroll 16
    for (std::int64_t r = 0; r < kVF; ++r) rows[r] = out[r];
  }
}

// Pack B(k0:k0+kc, j0:j0+nc) into NR-wide column panels:
// bp[jb][p][jr] with zero fill past nc. Both layouts read their source
// contiguously: rows of a (k,n) B, columns (rows of storage) of a
// transposed (n,k) B. A transposed B is turned in registers, kVF rows
// of storage by kVF k steps at a time.
void pack_b(const GemmShape& g, std::int64_t k0, std::int64_t kc,
            std::int64_t j0, std::int64_t nc, float* bp) {
  for (std::int64_t jb = 0; jb * kNR < nc; ++jb) {
    float* panel = bp + jb * kc * kNR;
    const std::int64_t j = j0 + jb * kNR;
    const std::int64_t jw = std::min(kNR, nc - jb * kNR);
    if (g.b_trans) {
      const float* src = g.b + j * g.k + k0;
      std::int64_t p = 0;
      for (; p + kVF <= kc; p += kVF) {
        for (std::int64_t r0 = 0; r0 < kNR; r0 += kVF) {
          Vec rows[kVF];
#pragma GCC unroll 16
          for (std::int64_t r = 0; r < kVF; ++r) {
            rows[r] = r0 + r < jw ? simd::load<Vec>(src + (r0 + r) * g.k + p)
                                  : Vec{};
          }
          transpose(rows);
#pragma GCC unroll 16
          for (std::int64_t t = 0; t < kVF; ++t) {
            simd::store(panel + (p + t) * kNR + r0, rows[t]);
          }
        }
      }
      for (; p < kc; ++p) {
        for (std::int64_t jr = 0; jr < kNR; ++jr) {
          panel[p * kNR + jr] = jr < jw ? src[jr * g.k + p] : 0.0f;
        }
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

// The MR x NR micro-kernel. B(p, jr) is b[p * ldb + jr]. A(ir, p) is
// a[p * lda + ir] for a packed panel (lda = MR) or a transposed A read in
// place (lda = m), and a[ir * lda + p] when kARows (a non-transposed A
// read in place, lda = k). The accumulators are MR x NR/kVF vector values
// and every loop over them is fully unrolled, so the whole tile stays in
// registers across the k loop; an array indexed by loop variables would
// be kept in memory instead. Each element gets one multiply-add per p,
// in ascending p order: the same per-element operation sequence as the
// scalar references.
template <bool kARows>
void micro_tile(const float* ap, std::int64_t lda, const float* bp,
                std::int64_t ldb, std::int64_t kc, float* c, std::int64_t ldc,
                bool zero_init) {
  static_assert(kMR == 12 && kNV <= 4, "the unroll counts spell these out");
  Vec acc[kMR][kNV];
#pragma GCC unroll 12
  for (std::int64_t ir = 0; ir < kMR; ++ir) {
#pragma GCC unroll 4
    for (std::int64_t v = 0; v < kNV; ++v) {
      acc[ir][v] =
          zero_init ? Vec{} : simd::load<Vec>(c + ir * ldc + v * kVF);
    }
  }
  for (std::int64_t p = 0; p < kc; ++p) {
    Vec b[kNV];
#pragma GCC unroll 4
    for (std::int64_t v = 0; v < kNV; ++v) {
      b[v] = simd::load<Vec>(bp + p * ldb + v * kVF);
    }
#pragma GCC unroll 12
    for (std::int64_t ir = 0; ir < kMR; ++ir) {
      const float a = kARows ? ap[ir * lda + p] : ap[p * lda + ir];
#pragma GCC unroll 4
      for (std::int64_t v = 0; v < kNV; ++v) acc[ir][v] += a * b[v];
    }
  }
#pragma GCC unroll 12
  for (std::int64_t ir = 0; ir < kMR; ++ir) {
#pragma GCC unroll 4
    for (std::int64_t v = 0; v < kNV; ++v) {
      simd::store(c + ir * ldc + v * kVF, acc[ir][v]);
    }
  }
}

// One mr x nr tile of C. An edge tile (mr < MR and/or nr < NR) runs the
// same micro-kernel through a full-size local tile, and only the valid
// lanes are read from and written back to C. Its ragged operand always
// comes from a zero-filled packed panel, so the padding lanes compute on
// zeros and are dropped.
template <bool kARows>
void tile(const float* ap, std::int64_t lda, const float* bp,
          std::int64_t ldb, std::int64_t kc, float* c, std::int64_t ldc,
          std::int64_t mr, std::int64_t nr, bool zero_init) {
  if (mr == kMR && nr == kNR) {
    micro_tile<kARows>(ap, lda, bp, ldb, kc, c, ldc, zero_init);
    return;
  }
  alignas(64) float edge[kMR * kNR] = {};
  const std::size_t row_bytes = static_cast<std::size_t>(nr) * sizeof(float);
  if (!zero_init) {
    for (std::int64_t ir = 0; ir < mr; ++ir) {
      std::memcpy(edge + ir * kNR, c + ir * ldc, row_bytes);
    }
  }
  micro_tile<kARows>(ap, lda, bp, ldb, kc, edge, kNR, zero_init);
  for (std::int64_t ir = 0; ir < mr; ++ir) {
    std::memcpy(c + ir * ldc, edge + ir * kNR, row_bytes);
  }
}

// Scratch floats one GEMM worker needs for its packing panels.
constexpr std::size_t kGemmScratchFloats =
    static_cast<std::size_t>(kKC * kNC + kMC * kKC);

// Rows of A that one k panel may stream at once when A is read in place
// transposed: the L2 hardware prefetcher follows 32 streams, one per
// 4 KiB page (Intel cores since Sandy Bridge).
constexpr std::int64_t kPrefetchStreams = 32;

// Panel extents of one block. They only regroup the loops over k panels
// and C tiles, so every C element still gets its k products in ascending
// order, and every panel fits the scratch above.
struct Extents {
  std::int64_t kc;  // k-panel depth
  std::int64_t nc;  // B panel width, a multiple of kNR
  std::int64_t mc;  // A panel height, a multiple of kMR
};

// The shape picks the extents:
// - A transposed A read in place (a block of one column panel: the dX
//   of a conv whose chunk spans at most NR output columns, ResNet-50's
//   2x2 stage). A tile reads MR floats from each of kc rows of A, m
//   floats apart, and the next tile continues the same rows, so each
//   row is a stream of its own, in its own page once m >= 1024. The k
//   panel is only as deep as the prefetcher follows streams; C is
//   reloaded between the shallower panels.
// - Otherwise a k that fits one panel (the dW of a conv whose chunk
//   spans at most KC output columns, ResNet-50's 4x4 and 2x2 stages,
//   and every fc dW, whose k is the batch). C is then far larger than
//   both operands, and a tile does only k multiply-add steps per 12
//   rows of C it stores. The B panel takes the whole KC x NC budget in
//   width, and C is swept in MR-row strips across it, so each C row is
//   written in one long run instead of 64-byte pieces 96 rows apart.
Extents block_extents(const GemmShape& g, bool a_in_place) {
  if (g.a_trans && a_in_place) return {kPrefetchStreams, kNC, kMC};
  if (g.k <= kKC) return {g.k, kKC * kNC / g.k / kNR * kNR, kMR};
  return {kKC, kNC, kMC};
}

// Run the blocked GEMM for the block C(r0:r1, c0:c1) only, using the
// caller's packing scratch. Thread-safe across disjoint blocks with
// distinct scratch.
//
// Packing pays for its copy only when each panel feeds several
// micro-tiles. In a block of one row panel every B panel feeds one tile,
// so a non-transposed B is read in place with its row stride n. In a
// block of one column panel every A panel feeds one tile, so A is read
// in place in either layout. Ragged panels are still packed: their zero
// fill is what lets an edge tile run the full micro-kernel.
void gemm_block(const GemmShape& g, std::int64_t r0, std::int64_t r1,
                std::int64_t c0, std::int64_t c1, float* scratch) {
  if (r0 >= r1 || c0 >= c1) return;
  float* bp = scratch;               // kKC * kNC
  float* ap = scratch + kKC * kNC;   // kMC * kKC
  const bool b_in_place = !g.b_trans && r1 - r0 <= kMR;
  const bool a_in_place = c1 - c0 <= kNR;
  const Extents e = block_extents(g, a_in_place);
  const std::int64_t ldc = g.n;
  for (std::int64_t jc = c0; jc < c1; jc += e.nc) {
    const std::int64_t nc = std::min(e.nc, c1 - jc);
    for (std::int64_t pc = 0; pc < g.k; pc += e.kc) {
      const std::int64_t kc = std::min(e.kc, g.k - pc);
      if (!b_in_place) pack_b(g, pc, kc, jc, nc, bp);
      // beta=0 store path: the first k panel writes C outright instead
      // of memset-then-accumulate; later panels reload and continue the
      // ascending-k accumulation.
      const bool zero_init = g.overwrite && pc == 0;
      for (std::int64_t ic = r0; ic < r1; ic += e.mc) {
        const std::int64_t mc = std::min(e.mc, r1 - ic);
        if (!a_in_place) pack_a(g, ic, mc, pc, kc, ap);
        for (std::int64_t jb = 0; jb * kNR < nc; ++jb) {
          const std::int64_t j = jc + jb * kNR;
          const std::int64_t nr = std::min(kNR, nc - jb * kNR);
          const float* bt = bp + jb * kc * kNR;
          std::int64_t ldb = kNR;
          if (b_in_place && nr == kNR) {
            bt = g.b + pc * g.n + j;
            ldb = g.n;
          } else if (b_in_place) {
            pack_b(g, pc, kc, j, nr, bp);
            bt = bp;
          }
          for (std::int64_t ib = 0; ib * kMR < mc; ++ib) {
            const std::int64_t i = ic + ib * kMR;
            const std::int64_t mr = std::min(kMR, mc - ib * kMR);
            float* ct = g.c + i * ldc + j;
            if (a_in_place && mr == kMR && !g.a_trans) {
              tile<true>(g.a + i * g.k + pc, g.k, bt, ldb, kc, ct, ldc, mr,
                         nr, zero_init);
            } else if (a_in_place && mr == kMR) {
              tile<false>(g.a + pc * g.m + i, g.m, bt, ldb, kc, ct, ldc, mr,
                          nr, zero_init);
            } else if (a_in_place) {
              pack_a(g, i, mr, pc, kc, ap);
              tile<false>(ap, kMR, bt, ldb, kc, ct, ldc, mr, nr, zero_init);
            } else {
              tile<false>(ap + ib * kc * kMR, kMR, bt, ldb, kc, ct, ldc, mr,
                          nr, zero_init);
            }
          }
        }
      }
    }
  }
}

// Fan C out over the context's pool along its longer side: whole
// NR-column panels when m < n, whole MR-row panels otherwise, so no
// block boundary adds edge tiles. Each block packs its own panels of
// both operands, so the operand packed once per block is the smaller one
// and blocks never wait on each other. Every C element is computed by
// one block with the same ascending-k sequence, so any partition yields
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
    gemm_block(g, 0, g.m, 0, g.n,
               ctx.scratch(0, KernelContext::kGemmArena, kGemmScratchFloats));
    return;
  }
  const bool split_cols = g.m < g.n;
  const std::int64_t panel = split_cols ? kNR : kMR;
  const std::int64_t extent = split_cols ? g.n : g.m;
  parallel_for(ctx.pool(), (extent + panel - 1) / panel, 1,
               [&](std::int64_t p0, std::int64_t p1, int slot) {
                 const std::int64_t lo = p0 * panel;
                 const std::int64_t hi = std::min(p1 * panel, extent);
                 float* scratch = ctx.scratch(
                     slot, KernelContext::kGemmArena, kGemmScratchFloats);
                 if (split_cols) {
                   gemm_block(g, 0, g.m, lo, hi, scratch);
                 } else {
                   gemm_block(g, lo, hi, 0, g.n, scratch);
                 }
               });
}

}  // namespace

void matmul(const float* a, const float* b, float* c, std::int64_t m,
            std::int64_t k, std::int64_t n, KernelContext& ctx) {
  KernelTimer t(ctx, "matmul");
  gemm({a, b, c, m, k, n, false, false, true}, ctx);
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
