#include "kernels/conv.hpp"

#include <algorithm>
#include <cstring>
#include <type_traits>
#include <vector>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "kernels/im2col.hpp"
#include "kernels/matmul.hpp"
#include "kernels/simd.hpp"

namespace pooch::kernels {

namespace {

struct ConvGeom {
  std::int64_t batch = 0;
  std::int64_t in_channels = 0;
  Triple in{1, 1, 1};
  Triple out{1, 1, 1};
  std::int64_t groups = 1;
  std::int64_t cg = 0;  // input channels per group
  std::int64_t og = 0;  // output channels per group
  ColGeom col;          // geometry of one group's column buffer

  std::int64_t in_sample_stride() const {
    return in_channels * in[0] * in[1] * in[2];
  }
  std::int64_t out_sample_stride(std::int64_t out_channels) const {
    return out_channels * out[0] * out[1] * out[2];
  }
};

ConvGeom make_geom(const Shape& x_shape, const ConvAttrs& a) {
  POOCH_CHECK_MSG(a.spatial_rank == 2 || a.spatial_rank == 3,
                  "spatial_rank must be 2 or 3");
  const int want_rank = a.spatial_rank + 2;
  POOCH_CHECK_MSG(x_shape.rank() == want_rank,
                  "conv input rank " << x_shape.rank() << " != " << want_rank);
  ConvGeom g;
  g.batch = x_shape[0];
  g.in_channels = x_shape[1];
  if (a.spatial_rank == 2) {
    g.in = {1, x_shape[2], x_shape[3]};
  } else {
    g.in = {x_shape[2], x_shape[3], x_shape[4]};
  }
  for (int i = 0; i < 3; ++i) {
    const std::int64_t o =
        conv_out_extent(g.in[static_cast<std::size_t>(i)],
                        a.kernel[static_cast<std::size_t>(i)],
                        a.stride[static_cast<std::size_t>(i)],
                        a.pad[static_cast<std::size_t>(i)]);
    POOCH_CHECK_MSG(o >= 1, "conv output extent <= 0 on axis " << i);
    g.out[static_cast<std::size_t>(i)] = o;
  }
  g.groups = a.groups;
  POOCH_CHECK_MSG(g.in_channels % g.groups == 0,
                  "in_channels " << g.in_channels << " not divisible by groups "
                                 << g.groups);
  POOCH_CHECK_MSG(a.out_channels % g.groups == 0,
                  "out_channels " << a.out_channels
                                  << " not divisible by groups " << g.groups);
  g.cg = g.in_channels / g.groups;
  g.og = a.out_channels / g.groups;
  g.col.channels = g.cg;
  g.col.in = g.in;
  g.col.out = g.out;
  g.col.kernel = a.kernel;
  g.col.stride = a.stride;
  g.col.pad = a.pad;
  return g;
}

}  // namespace

Shape conv_output_shape(const Shape& input_shape, const ConvAttrs& attrs) {
  const ConvGeom g = make_geom(input_shape, attrs);
  if (attrs.spatial_rank == 2) {
    return Shape{g.batch, attrs.out_channels, g.out[1], g.out[2]};
  }
  return Shape{g.batch, attrs.out_channels, g.out[0], g.out[1], g.out[2]};
}

Shape conv_weight_shape(const Shape& input_shape, const ConvAttrs& attrs) {
  const ConvGeom g = make_geom(input_shape, attrs);
  if (attrs.spatial_rank == 2) {
    return Shape{attrs.out_channels, g.cg, attrs.kernel[1], attrs.kernel[2]};
  }
  return Shape{attrs.out_channels, g.cg, attrs.kernel[0], attrs.kernel[1],
               attrs.kernel[2]};
}

std::size_t conv_workspace_bytes(const Shape& input_shape,
                                 const ConvAttrs& attrs) {
  const ConvGeom g = make_geom(input_shape, attrs);
  return static_cast<std::size_t>(g.col.rows() * g.col.cols()) * sizeof(float);
}

namespace {

// Cap on the scratch floats of one chunk: its column matrix plus the
// [og, nb * cols] GEMM result (forward) or gathered dY (backward), or a
// direct pass's padded copies. A chunk batches as many samples as fit
// under it (at least one) into one GEMM per group. Late layers with
// small outputs take the whole mini-batch; early layers with large
// outputs fill a GEMM on their own.
constexpr std::int64_t kChunkCapFloats = std::int64_t{1} << 19;

// Floats one parallel block of a copy or reduction should cover at
// least.
constexpr std::int64_t kGrainFloats = std::int64_t{1} << 14;

// Rows of `ld` floats per parallel block.
std::int64_t copy_grain(std::int64_t ld) {
  return std::max<std::int64_t>(1, kGrainFloats / ld);
}

// Column geometry of one group over nb consecutive samples.
ColGeom chunk_geom(const ConvGeom& g, std::int64_t nb) {
  ColGeom c = g.col;
  c.samples = nb;
  c.sample_stride = g.in_sample_stride();
  return c;
}

// Samples per chunk when a sample needs `per_sample` scratch floats: the
// fewest chunks the cap allows, split evenly so no chunk is left with a
// sliver of the batch.
std::int64_t chunk_samples(std::int64_t batch, std::int64_t per_sample) {
  const std::int64_t most = std::max<std::int64_t>(
      1, kChunkCapFloats / std::max<std::int64_t>(1, per_sample));
  const std::int64_t chunks =
      std::max<std::int64_t>(1, (batch + most - 1) / most);
  return std::max<std::int64_t>(1, (batch + chunks - 1) / chunks);
}

// Samples per chunk of the GEMM path: its column matrix plus the GEMM
// result or gathered dY.
std::int64_t chunk_samples(const ConvGeom& g) {
  return chunk_samples(g.batch, (g.col.rows() + g.og) * g.col.cols());
}

// --- im2col + GEMM -------------------------------------------------------

void gemm_forward(const Tensor& x, const Tensor& w, const Tensor* bias,
                  Tensor& y, const ConvGeom& g, KernelContext& ctx) {
  const std::int64_t col_rows = g.col.rows();
  const std::int64_t col_cols = g.col.cols();
  const std::int64_t chunk = chunk_samples(g);
  const std::int64_t w_group_stride = g.og * col_rows;
  const std::int64_t in_group_stride = g.cg * g.in[0] * g.in[1] * g.in[2];
  const std::int64_t y_stride = g.out_sample_stride(g.og * g.groups);

  // The chunk's column matrix [col_rows, nb * cols] followed by the GEMM
  // result [og, nb * cols].
  float* col = ctx.scratch(0, KernelContext::kColArena,
                           static_cast<std::size_t>((col_rows + g.og) *
                                                    chunk * col_cols));
  float* out = col + col_rows * chunk * col_cols;
  ThreadPool* pool = ctx.pool();
  for (std::int64_t n0 = 0; n0 < g.batch; n0 += chunk) {
    const std::int64_t nb = std::min(chunk, g.batch - n0);
    const ColGeom cgeom = chunk_geom(g, nb);
    const std::int64_t ld = cgeom.col_ld();
    for (std::int64_t grp = 0; grp < g.groups; ++grp) {
      im2col(x.data() + n0 * g.in_sample_stride() + grp * in_group_stride,
             col, cgeom, pool);
      matmul(w.data() + grp * w_group_stride, col, out, g.og, col_rows,
             ld, ctx);
      // Scatter each result row's sample blocks to NCHW, adding the bias
      // as the reference does: once, after the full k sum.
      parallel_for(
          pool, g.og, copy_grain(ld),
          [&](std::int64_t o0, std::int64_t o1, int) {
            for (std::int64_t o = o0; o < o1; ++o) {
              const std::int64_t oc = grp * g.og + o;
              for (std::int64_t s = 0; s < nb; ++s) {
                const float* src = out + o * ld + s * col_cols;
                float* dst = y.data() + (n0 + s) * y_stride + oc * col_cols;
                if (bias) {
                  const float b = (*bias)[oc];
                  for (std::int64_t j = 0; j < col_cols; ++j) {
                    dst[j] = src[j] + b;
                  }
                } else {
                  std::memcpy(dst, src,
                              static_cast<std::size_t>(col_cols) *
                                  sizeof(float));
                }
              }
            }
          });
    }
  }
}

// dW, and dX when dx is set. dx must be zeroed: col2im adds into it.
void gemm_backward(const Tensor& x, const Tensor& w, const Tensor& dy,
                   Tensor* dx, Tensor& dw, const ConvGeom& g,
                   KernelContext& ctx) {
  const std::int64_t col_rows = g.col.rows();
  const std::int64_t col_cols = g.col.cols();
  const std::int64_t chunk = chunk_samples(g);
  const std::int64_t w_group_stride = g.og * col_rows;
  const std::int64_t in_group_stride = g.cg * g.in[0] * g.in[1] * g.in[2];
  const std::int64_t y_stride = g.out_sample_stride(g.og * g.groups);

  // The chunk's column matrix [col_rows, nb * cols], reused for the
  // column gradient once dW has consumed it, followed by the gathered
  // output gradient [og, nb * cols].
  float* col = ctx.scratch(0, KernelContext::kColArena,
                           static_cast<std::size_t>((col_rows + g.og) *
                                                    chunk * col_cols));
  float* dyg = col + col_rows * chunk * col_cols;
  ThreadPool* pool = ctx.pool();
  for (std::int64_t n0 = 0; n0 < g.batch; n0 += chunk) {
    const std::int64_t nb = std::min(chunk, g.batch - n0);
    const ColGeom cgeom = chunk_geom(g, nb);
    const std::int64_t ld = cgeom.col_ld();
    for (std::int64_t grp = 0; grp < g.groups; ++grp) {
      im2col(x.data() + n0 * g.in_sample_stride() + grp * in_group_stride,
             col, cgeom, pool);
      parallel_for(
          pool, g.og, copy_grain(ld),
          [&](std::int64_t o0, std::int64_t o1, int) {
            for (std::int64_t o = o0; o < o1; ++o) {
              for (std::int64_t s = 0; s < nb; ++s) {
                std::memcpy(dyg + o * ld + s * col_cols,
                            dy.data() + (n0 + s) * y_stride +
                                (grp * g.og + o) * col_cols,
                            static_cast<std::size_t>(col_cols) *
                                sizeof(float));
              }
            }
          });
      // dW_g (+)= dY_g (og, nb*cols) * col^T (nb*cols, rows). The k index
      // runs sample-major, so each dW element continues the reference's
      // per-sample chain in the same order, across chunks too. The first
      // chunk overwrites: starting the chain from 0 is what the
      // reference's zeroed dW does.
      float* dw_g = dw.data() + grp * w_group_stride;
      if (n0 == 0) {
        matmul_bt(dyg, col, dw_g, g.og, ld, col_rows, ctx);
      } else {
        matmul_bt_acc(dyg, col, dw_g, g.og, ld, col_rows, ctx);
      }
      if (dx) {
        // col_grad (rows, nb*cols) = W_g^T (rows, og) * dY_g (og, nb*cols)
        matmul_at(w.data() + grp * w_group_stride, dyg, col, col_rows, g.og,
                  ld, ctx);
        col2im(col,
               dx->data() + n0 * g.in_sample_stride() + grp * in_group_stride,
               cgeom, pool);
      }
    }
  }
}

// --- Direct convolution --------------------------------------------------
//
// A stride-1 2-D convolution with "same" padding (2 * pad = kernel - 1
// on both axes, so the output plane is the input plane) whose rows are
// whole vectors runs on zero-padded planes, with no column matrix. Each
// kernel below keeps the per-element operation sequence of the
// im2col + GEMM reference; docs/KERNELS.md gives the three arguments.

// Floats per vector for rows of n floats: a full register when n is a
// multiple of one, else half of one when that is at least 4 floats and
// divides n, else 0.
constexpr int kHalfLanes = simd::kLanes / 2;
int lanes_for(std::int64_t n) {
  if (n % simd::kLanes == 0) return simd::kLanes;
  if (kHalfLanes >= 4 && n % kHalfLanes == 0) return kHalfLanes;
  return 0;
}

// Register tiles. With 32 vector registers (AVX-512) a tile of 24
// accumulators leaves room for its operands; with 16, half of it.
constexpr bool kWideFile = simd::kLanes >= 16;
constexpr int kFwdChannels = kWideFile ? 6 : 3;  // output channels
constexpr int kDxChannels = kWideFile ? 4 : 1;   // input channels
constexpr int kRowVecs = 4;                      // row vectors (fwd)
constexpr int kDxRowVecs = kWideFile ? 3 : 4;    // row vectors (dX)
// Operand floats of one dX chain block: two thirds of a 48 KiB L1.
constexpr std::int64_t kDxBlockFloats = 8192;
constexpr int kDwChannels = 4;                   // output channels
constexpr int kDwItems = kWideFile ? 6 : 2;      // (tap, channel vector)s

// The 1x1 dX tile's bias: col2im adds the column gradient onto +0.
constexpr float kZeros[kFwdChannels] = {};

// Most output channels a conv on half-width rows takes the direct path
// with.
constexpr std::int64_t kHalfLanesMaxOut = 64;

struct DirectGeom {
  std::int64_t c = 0, o = 0;            // input and output channels
  std::int64_t h = 0, w = 0;            // input = output plane
  std::int64_t kh = 0, kw = 0;          // kernel
  std::int64_t ph = 0, pw = 0;          // padding
  std::int64_t prow = 0, pcol = 0;      // zero-padded plane

  std::int64_t plane() const { return h * w; }
  std::int64_t pplane() const { return prow * pcol; }
  std::int64_t kvol() const { return kh * kw; }
  std::int64_t ckk() const { return c * kh * kw; }
  bool padded() const { return ph > 0 || pw > 0; }
};

// A 1x1 kernel has no padding and mixes no positions, so its plane is
// one row of h * w floats.
DirectGeom direct_geom(const ConvGeom& g, const ConvAttrs& a) {
  DirectGeom d;
  d.c = g.in_channels;
  d.o = a.out_channels;
  d.h = g.in[1];
  d.w = g.in[2];
  d.kh = a.kernel[1];
  d.kw = a.kernel[2];
  d.ph = a.pad[1];
  d.pw = a.pad[2];
  if (d.kh == 1 && d.kw == 1) {
    d.w *= d.h;
    d.h = 1;
  }
  d.prow = d.h + 2 * d.ph;
  d.pcol = d.w + 2 * d.pw;
  return d;
}

// The dispatch rule: which convolutions take the direct path.
bool takes_direct(const ConvGeom& g, const ConvAttrs& a) {
  if (a.spatial_rank != 2 || g.groups != 1) return false;
  for (std::size_t i = 1; i < 3; ++i) {
    if (a.stride[i] != 1 || 2 * a.pad[i] != a.kernel[i] - 1) return false;
  }
  // A plane must fill the register tile's row vectors: below that a
  // tile does a vector load per multiply-add (ResNet-50's 4x4 1x1 convs
  // ran at half the GEMM's speed). Half-width vectors halve the tiles'
  // rate, which the GEMM matches once it has enough output channels to
  // fill its 12-row tiles (ResNet-50's 8x8 128 -> 128 3x3 conv).
  const DirectGeom d = direct_geom(g, a);
  const int lanes = lanes_for(d.w);
  if (lanes == 0 || d.plane() < kRowVecs * lanes) return false;
  return lanes == simd::kLanes || d.o <= kHalfLanesMaxOut;
}

// Calls f(std::integral_constant<int, n>) for a runtime n in [1, kMax].
template <int kMax, typename F>
void with_count(std::int64_t n, F&& f) {
  if constexpr (kMax > 1) {
    if (n < kMax) {
      with_count<kMax - 1>(n, f);
      return;
    }
  }
  f(std::integral_constant<int, kMax>{});
}

// [begin, end) of block b when n items split into `blocks` blocks whose
// sizes differ by at most one.
std::int64_t block_begin(std::int64_t n, std::int64_t blocks,
                         std::int64_t b) {
  return n * b / blocks;
}

std::int64_t ceil_div(std::int64_t a, std::int64_t b) {
  return (a + b - 1) / b;
}

// Copies `planes` (h, w) planes into the interiors of zero-bordered
// (prow, pcol) planes.
void pad_planes(const float* src, float* dst, std::int64_t planes,
                const DirectGeom& d, ThreadPool* pool) {
  parallel_for(
      pool, planes, copy_grain(d.pplane()),
      [&](std::int64_t p0, std::int64_t p1, int) {
        for (std::int64_t p = p0; p < p1; ++p) {
          float* out = dst + p * d.pplane();
          const float* in = src + p * d.plane();
          std::memset(out, 0,
                      static_cast<std::size_t>(d.ph * d.pcol) * sizeof(float));
          for (std::int64_t r = 0; r < d.h; ++r) {
            float* row = out + (r + d.ph) * d.pcol;
            for (std::int64_t j = 0; j < d.pw; ++j) row[j] = 0.0f;
            std::memcpy(row + d.pw, in + r * d.w,
                        static_cast<std::size_t>(d.w) * sizeof(float));
            for (std::int64_t j = d.pw + d.w; j < d.pcol; ++j) row[j] = 0.0f;
          }
          std::memset(out + (d.ph + d.h) * d.pcol, 0,
                      static_cast<std::size_t>(d.ph * d.pcol) * sizeof(float));
        }
      });
}

// Runs body(n0, nb, in) over chunks of nb samples from n0, `in` holding
// the chunk's `per` planes a sample from src: zero-padded copies in
// scratch when d pads, src itself otherwise.
template <typename Body>
void for_padded_chunks(const float* src, std::int64_t per,
                       std::int64_t batch, const DirectGeom& d,
                       KernelContext& ctx, Body body) {
  const std::int64_t floats = d.padded() ? per * d.pplane() : 0;
  const std::int64_t chunk =
      d.padded() ? chunk_samples(batch, floats) : batch;
  float* buf = d.padded()
                   ? ctx.scratch(0, KernelContext::kColArena,
                                 static_cast<std::size_t>(chunk * floats))
                   : nullptr;
  for (std::int64_t n0 = 0; n0 < batch; n0 += chunk) {
    const std::int64_t nb = std::min(chunk, batch - n0);
    const float* in = src + n0 * per * d.plane();
    if (d.padded()) {
      pad_planes(in, buf, nb * per, d, ctx.pool());
      in = buf;
    }
    body(n0, nb, in);
  }
}

// Forward: output channels [o0, o0 + OB) of one sample, row vectors
// [r0, r0 + RV) of the output plane. xs is the sample's padded input,
// ws the weights of o0, ys the output plane of o0. Every accumulator
// starts at +0 and takes one multiply-add per (c, kh, kw) in ascending
// order, the im2col row order of the reference GEMM; the bias is added
// after the full sum.
//
// A 1x1 kernel sums `planes` input planes, with weight
// ws[ob * w_out + s * w_in] for output ob and plane s: (c, ckk, 1) for
// the forward. The 1x1 dX is the same sum over dY planes with
// (o, 1, ckk), whose "bias" of zeros is col2im's add onto the zeroed dx.
template <int L, int OB, int RV>
void fwd_tile(const DirectGeom& d, const float* xs, const float* ws,
              std::int64_t planes, std::int64_t w_out, std::int64_t w_in,
              const float* bias, float* ys, std::int64_t r0) {
  typedef simd::Vec<float, L> V;
  const std::int64_t vpr = d.w / L;
  std::int64_t xoff[RV];
  for (int r = 0; r < RV; ++r) {
    xoff[r] = (r0 + r) / vpr * d.pcol + (r0 + r) % vpr * L;
  }
  V acc[OB][RV];
#pragma GCC unroll 8
  for (int ob = 0; ob < OB; ++ob) {
#pragma GCC unroll 4
    for (int r = 0; r < RV; ++r) acc[ob][r] = V{};
  }
  // One (c, kh, kw) step: xp is its tap in the padded plane of c, wp its
  // weight for o0.
  const auto step = [&](const float* xp, const float* wp)
                        __attribute__((always_inline)) {
    V xv[RV];
#pragma GCC unroll 4
    for (int r = 0; r < RV; ++r) xv[r] = simd::load<V>(xp + xoff[r]);
#pragma GCC unroll 8
    for (int ob = 0; ob < OB; ++ob) {
      const float a = wp[ob * w_out];
#pragma GCC unroll 4
      for (int r = 0; r < RV; ++r) acc[ob][r] += a * xv[r];
    }
  };
  if (d.kvol() == 1) {
    for (std::int64_t s = 0; s < planes; ++s) {
      step(xs + s * d.pplane(), ws + s * w_in);
    }
  } else {
    for (std::int64_t c = 0; c < d.c; ++c) {
      for (std::int64_t kh = 0; kh < d.kh; ++kh) {
        const float* xr = xs + c * d.pplane() + kh * d.pcol;
        const float* wr = ws + (c * d.kh + kh) * d.kw;
        for (std::int64_t kw = 0; kw < d.kw; ++kw) step(xr + kw, wr + kw);
      }
    }
  }
#pragma GCC unroll 8
  for (int ob = 0; ob < OB; ++ob) {
#pragma GCC unroll 4
    for (int r = 0; r < RV; ++r) {
      V v = acc[ob][r];
      if (bias) v += bias[ob];
      simd::store(ys + ob * d.plane() + (r0 + r) * L, v);
    }
  }
}

// dX: input channels [c0, c0 + CB) of one sample, row vectors
// [r0, r0 + RV) of the input plane. dys is the sample's padded dY, wc
// the weights of c0. For each (kh, kw) in ascending order a fresh chain
// t = sum_o W * dY from +0, ascending in o, is one entry of the
// reference's column gradient; dx adds it like col2im does, and lanes
// whose output position is outside the plane (col2im skips those) add
// +0 instead. dx starts at +0 and a sum from +0 is never -0, so adding
// +0 changes no bit.
//
// kBlocked chains walk o in blocks of `oblock` planes, so one block of
// operands stays in L1 across all taps; between blocks each tap's chain
// is parked in tbuf (kvol * CB * RV vectors), which changes no bit.
template <int L, int CB, int RV, bool kBlocked>
void dx_tile(const DirectGeom& d, const float* dys, const float* wc,
             float* dxs, std::int64_t r0, std::int64_t oblock, float* tbuf) {
  typedef simd::Vec<float, L> V;
  typedef simd::Vec<std::int32_t, L> VI;
  const std::int64_t vpr = d.w / L;
  const std::int64_t ckk = d.ckk();
  const std::int64_t kvol = d.kvol();
  std::int64_t off[RV], row[RV];
  VI col[RV];
  for (int r = 0; r < RV; ++r) {
    row[r] = (r0 + r) / vpr;
    const std::int64_t c0 = (r0 + r) % vpr * L;
    off[r] = row[r] * d.pcol + c0;
    for (int l = 0; l < L; ++l) col[r][l] = static_cast<std::int32_t>(c0 + l);
  }
  V acc[CB][RV];
#pragma GCC unroll 4
  for (int cb = 0; cb < CB; ++cb) {
#pragma GCC unroll 4
    for (int r = 0; r < RV; ++r) acc[cb][r] = V{};
  }
  for (std::int64_t o0 = 0; o0 < d.o; o0 += oblock) {
    const std::int64_t o1 = std::min(d.o, o0 + oblock);
    for (std::int64_t kh = 0; kh < d.kh; ++kh) {
      for (std::int64_t kw = 0; kw < d.kw; ++kw) {
        // dY(ih + ph - kh, iw + pw - kw) sits at padded (ih + 2ph - kh,
        // iw + 2pw - kw).
        const float* dt = dys + (2 * d.ph - kh) * d.pcol + (2 * d.pw - kw);
        const float* wt = wc + kh * d.kw + kw;
        float* parked = tbuf + (kh * d.kw + kw) * CB * RV * L;
        V t[CB][RV];
#pragma GCC unroll 4
        for (int cb = 0; cb < CB; ++cb) {
#pragma GCC unroll 4
          for (int r = 0; r < RV; ++r) {
            t[cb][r] = !kBlocked || o0 == 0
                           ? V{}
                           : simd::load<V>(parked + (cb * RV + r) * L);
          }
        }
        for (std::int64_t o = o0; o < o1; ++o) {
          V dv[RV];
#pragma GCC unroll 4
          for (int r = 0; r < RV; ++r) {
            dv[r] = simd::load<V>(dt + o * d.pplane() + off[r]);
          }
#pragma GCC unroll 4
          for (int cb = 0; cb < CB; ++cb) {
            const float a = wt[o * ckk + cb * kvol];
#pragma GCC unroll 4
            for (int r = 0; r < RV; ++r) t[cb][r] += a * dv[r];
          }
        }
        if (kBlocked && o1 < d.o) {
#pragma GCC unroll 4
          for (int cb = 0; cb < CB; ++cb) {
#pragma GCC unroll 4
            for (int r = 0; r < RV; ++r) {
              simd::store(parked + (cb * RV + r) * L, t[cb][r]);
            }
          }
          continue;
        }
#pragma GCC unroll 4
        for (int r = 0; r < RV; ++r) {
          const std::int64_t oh = row[r] + d.ph - kh;
          const VI ow = col[r] + static_cast<std::int32_t>(d.pw - kw);
          VI in = (ow >= 0) & (ow < static_cast<std::int32_t>(d.w));
          if (oh < 0 || oh >= d.h) in = VI{};
#pragma GCC unroll 4
          for (int cb = 0; cb < CB; ++cb) acc[cb][r] += in ? t[cb][r] : V{};
        }
      }
    }
  }
#pragma GCC unroll 4
  for (int cb = 0; cb < CB; ++cb) {
#pragma GCC unroll 4
    for (int r = 0; r < RV; ++r) {
      simd::store(dxs + cb * d.plane() + (r0 + r) * L, acc[cb][r]);
    }
  }
}

// dW: output channels [o0, o0 + OB) times items [i0, i0 + NT), an item
// being one tap (kh, kw) and one vector of L input channels. xt holds
// nb samples channel-last, zero-padded: xt[n][prow][pcol][c]. Each dW
// element's chain runs over (n, oh, ow) in ascending order, padding
// zeros included, like the reference's dW GEMM over im2col columns; it
// starts at +0 in the first chunk and continues from dw after that.
template <int L, int OB, int NT>
void dw_tile(const DirectGeom& d, const float* xt, const float* dyc,
             std::int64_t nb, std::int64_t o0, std::int64_t i0, float* dw,
             bool first) {
  typedef simd::Vec<float, L> V;
  const std::int64_t cvecs = d.c / L;
  const std::int64_t kvol = d.kvol();
  const std::int64_t ckk = d.ckk();
  std::int64_t xoff[NT], dwoff[NT];
  for (int t = 0; t < NT; ++t) {
    const std::int64_t tap = (i0 + t) / cvecs;
    const std::int64_t c0 = (i0 + t) % cvecs * L;
    xoff[t] = (tap / d.kw * d.pcol + tap % d.kw) * d.c + c0;
    dwoff[t] = c0 * kvol + tap;
  }
  // dW keeps (kh, kw) innermost, so an item's lanes are kvol floats
  // apart there: contiguous only for a 1x1 kernel.
  V acc[OB][NT];
  for (int ob = 0; ob < OB; ++ob) {
    for (int t = 0; t < NT; ++t) {
      const float* src = dw + (o0 + ob) * ckk + dwoff[t];
      if (first) {
        acc[ob][t] = V{};
      } else if (kvol == 1) {
        acc[ob][t] = simd::load<V>(src);
      } else {
        for (int l = 0; l < L; ++l) acc[ob][t][l] = src[l * kvol];
      }
    }
  }
  for (std::int64_t n = 0; n < nb; ++n) {
    for (std::int64_t oh = 0; oh < d.h; ++oh) {
      const float* xr = xt + (n * d.prow + oh) * d.pcol * d.c;
      const float* dr = dyc + (n * d.o + o0) * d.plane() + oh * d.w;
      for (std::int64_t ow = 0; ow < d.w; ++ow) {
        V xv[NT];
#pragma GCC unroll 8
        for (int t = 0; t < NT; ++t) {
          xv[t] = simd::load<V>(xr + ow * d.c + xoff[t]);
        }
#pragma GCC unroll 4
        for (int ob = 0; ob < OB; ++ob) {
          const float a = dr[ob * d.plane() + ow];
#pragma GCC unroll 8
          for (int t = 0; t < NT; ++t) acc[ob][t] += a * xv[t];
        }
      }
    }
  }
  for (int ob = 0; ob < OB; ++ob) {
    for (int t = 0; t < NT; ++t) {
      float* dst = dw + (o0 + ob) * ckk + dwoff[t];
      if (kvol == 1) {
        simd::store(dst, acc[ob][t]);
      } else {
        for (int l = 0; l < L; ++l) dst[l * kvol] = acc[ob][t][l];
      }
    }
  }
}

// fwd_tile over every row vector of the plane.
template <int L, int OB>
void fwd_plane(const DirectGeom& d, const float* xs, const float* ws,
               std::int64_t planes, std::int64_t w_out, std::int64_t w_in,
               const float* bias, float* ys) {
  const std::int64_t rvecs = d.plane() / L;
  std::int64_t r = 0;
  for (; r + kRowVecs <= rvecs; r += kRowVecs) {
    fwd_tile<L, OB, kRowVecs>(d, xs, ws, planes, w_out, w_in, bias, ys, r);
  }
  for (; r < rvecs; ++r) {
    fwd_tile<L, OB, 1>(d, xs, ws, planes, w_out, w_in, bias, ys, r);
  }
}

template <int L>
void direct_forward(const Tensor& x, const Tensor& w, const Tensor* bias,
                    Tensor& y, const DirectGeom& d, std::int64_t batch,
                    KernelContext& ctx) {
  const std::int64_t oblocks = ceil_div(d.o, kFwdChannels);
  for_padded_chunks(
      x.data(), d.c, batch, d, ctx,
      [&](std::int64_t n0, std::int64_t nb, const float* xin) {
        parallel_for(ctx.pool(), nb * oblocks, 1,
                     [&](std::int64_t u0, std::int64_t u1, int) {
          for (std::int64_t u = u0; u < u1; ++u) {
            const std::int64_t n = u / oblocks;
            const std::int64_t o0 = block_begin(d.o, oblocks, u % oblocks);
            const std::int64_t o1 =
                block_begin(d.o, oblocks, u % oblocks + 1);
            const float* xs = xin + n * d.c * d.pplane();
            const float* ws = w.data() + o0 * d.ckk();
            const float* bs = bias ? bias->data() + o0 : nullptr;
            float* ys = y.data() + ((n0 + n) * d.o + o0) * d.plane();
            with_count<kFwdChannels>(o1 - o0, [&](auto ob) {
              fwd_plane<L, ob>(d, xs, ws, d.c, d.ckk(), 1, bs, ys);
            });
          }
        });
      });
}

template <int L>
void direct_backward_data(const Tensor& w, const Tensor& dy, Tensor& dx,
                          const DirectGeom& d, std::int64_t batch,
                          KernelContext& ctx) {
  const std::int64_t rvecs = d.plane() / L;
  // A 1x1 kernel has one tap, so its chain over o is the whole sum and
  // needs no second set of accumulators: it takes the forward's tile.
  const bool k1 = d.kvol() == 1;
  const std::int64_t cblocks = ceil_div(d.c, k1 ? kFwdChannels : kDxChannels);
  // The dX chains walk o in the fewest blocks whose operands fit
  // kDxBlockFloats, split evenly. Per o a tile reads the dY rows under
  // its row vectors and the kh - 1 below, and CB * kvol weights.
  const std::int64_t per_o =
      (ceil_div(kDxRowVecs, d.w / L) + d.kh - 1) * d.pcol +
      kDxChannels * d.kvol();
  const std::int64_t oblock = ceil_div(
      d.o, ceil_div(d.o, std::max<std::int64_t>(1, kDxBlockFloats / per_o)));
  const bool blocked = !k1 && oblock < d.o;
  for_padded_chunks(
      dy.data(), d.o, batch, d, ctx,
      [&](std::int64_t n0, std::int64_t nb, const float* dyin) {
        parallel_for(ctx.pool(), nb * cblocks, 1,
                     [&](std::int64_t u0, std::int64_t u1, int slot) {
          float* tbuf = blocked ? ctx.scratch(slot, KernelContext::kGemmArena,
                                              static_cast<std::size_t>(
                                                  d.kvol() * kDxChannels *
                                                  kDxRowVecs * L))
                                : nullptr;
          for (std::int64_t u = u0; u < u1; ++u) {
            const std::int64_t n = u / cblocks;
            const std::int64_t c0 = block_begin(d.c, cblocks, u % cblocks);
            const std::int64_t c1 =
                block_begin(d.c, cblocks, u % cblocks + 1);
            const float* dys = dyin + n * d.o * d.pplane();
            const float* wc = w.data() + c0 * d.kvol();
            float* dxs = dx.data() + ((n0 + n) * d.c + c0) * d.plane();
            if (k1) {
              with_count<kFwdChannels>(c1 - c0, [&](auto cb) {
                fwd_plane<L, cb>(d, dys, wc, d.o, 1, d.c, kZeros, dxs);
              });
              continue;
            }
            const auto tiles = [&](auto cb, auto park) {
              std::int64_t r = 0;
              for (; r + kDxRowVecs <= rvecs; r += kDxRowVecs) {
                dx_tile<L, cb, kDxRowVecs, park>(d, dys, wc, dxs, r,
                                                     oblock, tbuf);
              }
              for (; r < rvecs; ++r) {
                dx_tile<L, cb, 1, park>(d, dys, wc, dxs, r, oblock, tbuf);
              }
            };
            with_count<kDxChannels>(c1 - c0, [&](auto cb) {
              if (blocked) {
                tiles(cb, std::true_type{});
              } else {
                tiles(cb, std::false_type{});
              }
            });
          }
        });
      });
}

// Transposes a 4x4 block: row i of the block at src + i * lds becomes
// column i at dst, whose rows are ldd floats apart.
void transpose4(const float* src, std::int64_t lds, float* dst,
                std::int64_t ldd) {
  typedef simd::Vec<float, 4> V4;
  const V4 r0 = simd::load<V4>(src);
  const V4 r1 = simd::load<V4>(src + lds);
  const V4 r2 = simd::load<V4>(src + 2 * lds);
  const V4 r3 = simd::load<V4>(src + 3 * lds);
  const V4 t0 = __builtin_shufflevector(r0, r1, 0, 4, 1, 5);
  const V4 t1 = __builtin_shufflevector(r0, r1, 2, 6, 3, 7);
  const V4 t2 = __builtin_shufflevector(r2, r3, 0, 4, 1, 5);
  const V4 t3 = __builtin_shufflevector(r2, r3, 2, 6, 3, 7);
  simd::store(dst, __builtin_shufflevector(t0, t2, 0, 1, 4, 5));
  simd::store(dst + ldd, __builtin_shufflevector(t0, t2, 2, 3, 6, 7));
  simd::store(dst + 2 * ldd, __builtin_shufflevector(t1, t3, 0, 1, 4, 5));
  simd::store(dst + 3 * ldd, __builtin_shufflevector(t1, t3, 2, 3, 6, 7));
}

// Transposes nb samples to channel-last zero-padded planes,
// xt[n][prow][pcol][c]. Channels and row floats are multiples of 4 on
// the direct dW path, so whole 4x4 blocks tile each row.
void pad_channel_last(const float* x, float* xt, std::int64_t nb,
                      const DirectGeom& d, ThreadPool* pool) {
  const std::int64_t row_floats = d.pcol * d.c;
  parallel_for(
      pool, nb * d.prow, copy_grain(row_floats),
      [&](std::int64_t u0, std::int64_t u1, int) {
        for (std::int64_t u = u0; u < u1; ++u) {
          const std::int64_t n = u / d.prow;
          const std::int64_t ih = u % d.prow - d.ph;
          float* dst = xt + u * row_floats;
          if (ih < 0 || ih >= d.h) {
            std::memset(dst, 0,
                        static_cast<std::size_t>(row_floats) * sizeof(float));
            continue;
          }
          const std::size_t border =
              static_cast<std::size_t>(d.pw * d.c) * sizeof(float);
          std::memset(dst, 0, border);
          std::memset(dst + (d.pw + d.w) * d.c, 0, border);
          float* interior = dst + d.pw * d.c;
          const float* src = x + n * d.c * d.plane() + ih * d.w;
          for (std::int64_t c = 0; c < d.c; c += 4) {
            for (std::int64_t iw = 0; iw < d.w; iw += 4) {
              transpose4(src + c * d.plane() + iw, d.plane(),
                         interior + iw * d.c + c, d.c);
            }
          }
        }
      });
}

template <int L>
void direct_backward_weights(const Tensor& x, const Tensor& dy, Tensor& dw,
                             const DirectGeom& d, std::int64_t batch,
                             KernelContext& ctx) {
  const std::int64_t items = d.kvol() * (d.c / L);
  const std::int64_t oblocks = ceil_div(d.o, kDwChannels);
  const std::int64_t iblocks = ceil_div(items, kDwItems);
  const std::int64_t per_sample = d.pplane() * d.c;
  const std::int64_t chunk = chunk_samples(batch, per_sample);
  float* xt = ctx.scratch(0, KernelContext::kColArena,
                          static_cast<std::size_t>(chunk * per_sample));
  ThreadPool* pool = ctx.pool();
  for (std::int64_t n0 = 0; n0 < batch; n0 += chunk) {
    const std::int64_t nb = std::min(chunk, batch - n0);
    pad_channel_last(x.data() + n0 * d.c * d.plane(), xt, nb, d, pool);
    const float* dyc = dy.data() + n0 * d.o * d.plane();
    parallel_for(pool, oblocks * iblocks, 1,
                 [&](std::int64_t u0, std::int64_t u1, int) {
      for (std::int64_t u = u0; u < u1; ++u) {
        const std::int64_t ob = u / iblocks, ib = u % iblocks;
        const std::int64_t o0 = block_begin(d.o, oblocks, ob);
        const std::int64_t o1 = block_begin(d.o, oblocks, ob + 1);
        const std::int64_t i0 = block_begin(items, iblocks, ib);
        const std::int64_t i1 = block_begin(items, iblocks, ib + 1);
        with_count<kDwChannels>(o1 - o0, [&](auto obn) {
          with_count<kDwItems>(i1 - i0, [&](auto nt) {
            dw_tile<L, obn, nt>(d, xt, dyc, nb, o0, i0, dw.data(), n0 == 0);
          });
        });
      }
    });
  }
}

// Calls f(std::integral_constant<int, L>) for the lane count
// lanes_for chose.
template <typename F>
void with_lanes(int lanes, F&& f) {
  if constexpr (kHalfLanes >= 4) {
    if (lanes == kHalfLanes) {
      f(std::integral_constant<int, kHalfLanes>{});
      return;
    }
  }
  f(std::integral_constant<int, simd::kLanes>{});
}

}  // namespace

void conv_forward(const Tensor& x, const Tensor& w, const Tensor* bias,
                  Tensor& y, const ConvAttrs& attrs, KernelContext& ctx) {
  const ConvGeom g = make_geom(x.shape(), attrs);
  POOCH_CHECK(y.shape() == conv_output_shape(x.shape(), attrs));
  POOCH_CHECK(w.shape() == conv_weight_shape(x.shape(), attrs));
  POOCH_CHECK(!attrs.has_bias || (bias && bias->numel() == attrs.out_channels));
  const Tensor* b = attrs.has_bias ? bias : nullptr;
  if (takes_direct(g, attrs)) {
    KernelTimer timer(ctx, "conv_forward_direct");
    const DirectGeom d = direct_geom(g, attrs);
    with_lanes(lanes_for(d.w), [&](auto lanes) {
      direct_forward<lanes>(x, w, b, y, d, g.batch, ctx);
    });
    return;
  }
  KernelTimer timer(ctx, "conv_forward");
  gemm_forward(x, w, b, y, g, ctx);
}

void conv_backward(const Tensor& x, const Tensor& w, const Tensor& dy,
                   Tensor* dx, Tensor& dw, Tensor* dbias,
                   const ConvAttrs& attrs, KernelContext& ctx) {
  const ConvGeom g = make_geom(x.shape(), attrs);
  POOCH_CHECK(dy.shape() == conv_output_shape(x.shape(), attrs));
  POOCH_CHECK(dw.shape() == conv_weight_shape(x.shape(), attrs));
  if (dx) POOCH_CHECK(dx->shape() == x.shape());

  // The direct dW runs its lanes over input channels, so it needs a
  // channel count that fills vectors; dX needs only the row rule.
  const bool direct = takes_direct(g, attrs);
  const bool direct_dw = direct && lanes_for(g.in_channels) > 0;
  KernelTimer timer(ctx, direct && (dx || direct_dw) ? "conv_backward_direct"
                                                     : "conv_backward");
  const std::int64_t col_cols = g.col.cols();
  const std::int64_t y_stride = g.out_sample_stride(attrs.out_channels);
  ThreadPool* pool = ctx.pool();
  if (attrs.has_bias && dbias) {
    // One partial sum per sample, added in sample order: the reference's
    // accumulation order for every channel.
    dbias->zero();
    parallel_for(pool, attrs.out_channels, copy_grain(g.batch * col_cols),
                 [&](std::int64_t o0, std::int64_t o1, int) {
                   for (std::int64_t o = o0; o < o1; ++o) {
                     for (std::int64_t n = 0; n < g.batch; ++n) {
                       const float* row =
                           dy.data() + n * y_stride + o * col_cols;
                       float acc = 0.0f;
                       for (std::int64_t j = 0; j < col_cols; ++j) {
                         acc += row[j];
                       }
                       (*dbias)[o] += acc;
                     }
                   }
                 });
  }
  if (!direct) {
    if (dx) dx->zero();
    gemm_backward(x, w, dy, dx, dw, g, ctx);
    return;
  }
  const DirectGeom d = direct_geom(g, attrs);
  if (dx) {
    with_lanes(lanes_for(d.w), [&](auto lanes) {
      direct_backward_data<lanes>(w, dy, *dx, d, g.batch, ctx);
    });
  }
  if (direct_dw) {
    with_lanes(lanes_for(d.c), [&](auto lanes) {
      direct_backward_weights<lanes>(x, dy, dw, d, g.batch, ctx);
    });
  } else {
    gemm_backward(x, w, dy, nullptr, dw, g, ctx);
  }
}

void conv_forward_ref(const Tensor& x, const Tensor& w, const Tensor* bias,
                      Tensor& y, const ConvAttrs& attrs) {
  const ConvGeom g = make_geom(x.shape(), attrs);
  POOCH_CHECK(y.shape() == conv_output_shape(x.shape(), attrs));
  POOCH_CHECK(w.shape() == conv_weight_shape(x.shape(), attrs));
  POOCH_CHECK(!attrs.has_bias || (bias && bias->numel() == attrs.out_channels));

  const std::int64_t col_rows = g.col.rows();
  const std::int64_t col_cols = g.col.cols();
  std::vector<float> col(static_cast<std::size_t>(col_rows * col_cols));

  const std::int64_t w_group_stride = g.og * col_rows;
  const std::int64_t in_group_stride = g.cg * g.in[0] * g.in[1] * g.in[2];
  const std::int64_t out_group_stride = g.og * col_cols;

  for (std::int64_t n = 0; n < g.batch; ++n) {
    const float* xin = x.data() + n * g.in_sample_stride();
    float* yout = y.data() + n * g.out_sample_stride(attrs.out_channels);
    for (std::int64_t grp = 0; grp < g.groups; ++grp) {
      im2col(xin + grp * in_group_stride, col.data(), g.col);
      matmul_ref(w.data() + grp * w_group_stride, col.data(),
                 yout + grp * out_group_stride, g.og, col_rows, col_cols);
    }
    if (attrs.has_bias) {
      for (std::int64_t o = 0; o < attrs.out_channels; ++o) {
        const float b = (*bias)[o];
        float* row = yout + o * col_cols;
        for (std::int64_t j = 0; j < col_cols; ++j) row[j] += b;
      }
    }
  }
}

void conv_backward_ref(const Tensor& x, const Tensor& w, const Tensor& dy,
                       Tensor* dx, Tensor& dw, Tensor* dbias,
                       const ConvAttrs& attrs) {
  const ConvGeom g = make_geom(x.shape(), attrs);
  POOCH_CHECK(dy.shape() == conv_output_shape(x.shape(), attrs));
  POOCH_CHECK(dw.shape() == conv_weight_shape(x.shape(), attrs));
  if (dx) POOCH_CHECK(dx->shape() == x.shape());

  const std::int64_t col_rows = g.col.rows();
  const std::int64_t col_cols = g.col.cols();
  std::vector<float> col(static_cast<std::size_t>(col_rows * col_cols));
  std::vector<float> col_grad;
  if (dx) col_grad.resize(static_cast<std::size_t>(col_rows * col_cols));

  dw.zero();
  if (dx) dx->zero();
  if (attrs.has_bias && dbias) dbias->zero();

  const std::int64_t w_group_stride = g.og * col_rows;
  const std::int64_t in_group_stride = g.cg * g.in[0] * g.in[1] * g.in[2];
  const std::int64_t out_group_stride = g.og * col_cols;

  for (std::int64_t n = 0; n < g.batch; ++n) {
    const float* xin = x.data() + n * g.in_sample_stride();
    const float* dyout = dy.data() + n * g.out_sample_stride(attrs.out_channels);
    for (std::int64_t grp = 0; grp < g.groups; ++grp) {
      im2col(xin + grp * in_group_stride, col.data(), g.col);
      matmul_bt_acc_ref(dyout + grp * out_group_stride, col.data(),
                        dw.data() + grp * w_group_stride, g.og, col_cols,
                        col_rows);
      if (dx) {
        matmul_at_ref(w.data() + grp * w_group_stride,
                      dyout + grp * out_group_stride, col_grad.data(), col_rows,
                      g.og, col_cols);
        col2im(col_grad.data(), dx->data() + n * g.in_sample_stride() +
                                    grp * in_group_stride,
               g.col);
      }
    }
    if (attrs.has_bias && dbias) {
      for (std::int64_t o = 0; o < attrs.out_channels; ++o) {
        const float* row = dyout + o * col_cols;
        float acc = 0.0f;
        for (std::int64_t j = 0; j < col_cols; ++j) acc += row[j];
        (*dbias)[o] += acc;
      }
    }
  }
}

}  // namespace pooch::kernels
