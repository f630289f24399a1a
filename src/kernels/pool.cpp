#include "kernels/pool.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <utility>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "kernels/im2col.hpp"
#include "kernels/simd.hpp"

namespace pooch::kernels {

namespace {

struct PoolGeom {
  std::int64_t batch = 0;
  std::int64_t channels = 0;
  Triple in{1, 1, 1};
  Triple out{1, 1, 1};
};

PoolGeom make_geom(const Shape& x_shape, const PoolAttrs& a) {
  POOCH_CHECK(a.spatial_rank == 2 || a.spatial_rank == 3);
  const int want_rank = a.spatial_rank + 2;
  POOCH_CHECK_MSG(x_shape.rank() == want_rank,
                  "pool input rank " << x_shape.rank() << " != " << want_rank);
  PoolGeom g;
  g.batch = x_shape[0];
  g.channels = x_shape[1];
  if (a.spatial_rank == 2) {
    g.in = {1, x_shape[2], x_shape[3]};
  } else {
    g.in = {x_shape[2], x_shape[3], x_shape[4]};
  }
  for (std::size_t i = 0; i < 3; ++i) {
    g.out[i] = conv_out_extent(g.in[i], a.kernel[i], a.stride[i], a.pad[i]);
    POOCH_CHECK(g.out[i] >= 1);
  }
  return g;
}

// Iterate pooling windows of planes [p0, p1), where a plane is one
// (n, c) pair; body(plane_in, plane_out, window_begin/end per axis) per
// window, in the serial order within each plane. Planes never alias, so
// disjoint plane ranges can run concurrently.
template <typename Body>
void for_each_window(const PoolGeom& g, const PoolAttrs& a, std::int64_t p0,
                     std::int64_t p1, Body body) {
  const std::int64_t plane_in_sz = g.in[0] * g.in[1] * g.in[2];
  const std::int64_t plane_out_sz = g.out[0] * g.out[1] * g.out[2];
  for (std::int64_t p = p0; p < p1; ++p) {
    const std::int64_t in_base = p * plane_in_sz;
    const std::int64_t out_base = p * plane_out_sz;
    std::int64_t oi = 0;
    for (std::int64_t od = 0; od < g.out[0]; ++od) {
      const std::int64_t d0 = std::max<std::int64_t>(0, od * a.stride[0] - a.pad[0]);
      const std::int64_t d1 = std::min(g.in[0], od * a.stride[0] - a.pad[0] + a.kernel[0]);
      for (std::int64_t oh = 0; oh < g.out[1]; ++oh) {
        const std::int64_t h0 = std::max<std::int64_t>(0, oh * a.stride[1] - a.pad[1]);
        const std::int64_t h1 = std::min(g.in[1], oh * a.stride[1] - a.pad[1] + a.kernel[1]);
        for (std::int64_t ow = 0; ow < g.out[2]; ++ow, ++oi) {
          const std::int64_t w0 = std::max<std::int64_t>(0, ow * a.stride[2] - a.pad[2]);
          const std::int64_t w1 = std::min(g.in[2], ow * a.stride[2] - a.pad[2] + a.kernel[2]);
          body(in_base, out_base + oi, d0, d1, h0, h1, w0, w1);
        }
      }
    }
  }
}

void pool_forward_planes(const Tensor& x, Tensor& y, const PoolAttrs& attrs,
                         const PoolGeom& g, ThreadPool* pool) {
  const float* xp = x.data();
  float* yp = y.data();
  const std::int64_t hw = g.in[1] * g.in[2];
  parallel_for(pool, g.batch * g.channels, 1, [&](std::int64_t p0,
                                                  std::int64_t p1, int) {
    for_each_window(
        g, attrs, p0, p1,
        [&](std::int64_t in_base, std::int64_t out_idx, std::int64_t d0,
            std::int64_t d1, std::int64_t h0, std::int64_t h1, std::int64_t w0,
            std::int64_t w1) {
          if (attrs.mode == PoolMode::kMax) {
            float best = -std::numeric_limits<float>::infinity();
            for (std::int64_t d = d0; d < d1; ++d) {
              for (std::int64_t h = h0; h < h1; ++h) {
                const std::int64_t row = in_base + d * hw + h * g.in[2];
                for (std::int64_t w = w0; w < w1; ++w) {
                  best = std::max(best, xp[row + w]);
                }
              }
            }
            yp[out_idx] = best;
          } else {
            // cuDNN-style "exclude padding" averaging over the valid window.
            double acc = 0.0;
            std::int64_t count = 0;
            for (std::int64_t d = d0; d < d1; ++d) {
              for (std::int64_t h = h0; h < h1; ++h) {
                const std::int64_t row = in_base + d * hw + h * g.in[2];
                for (std::int64_t w = w0; w < w1; ++w) {
                  acc += xp[row + w];
                  ++count;
                }
              }
            }
            yp[out_idx] =
                count > 0
                    ? static_cast<float>(acc / static_cast<double>(count))
                    : 0.0f;
          }
        });
  });
}

void pool_backward_planes(const Tensor& x, const Tensor& dy, Tensor& dx,
                          const PoolAttrs& attrs, const PoolGeom& g,
                          ThreadPool* pool) {
  dx.zero();
  const float* xp = x.data();
  const float* dyp = dy.data();
  float* dxp = dx.data();
  const std::int64_t hw = g.in[1] * g.in[2];
  parallel_for(pool, g.batch * g.channels, 1, [&](std::int64_t p0,
                                                  std::int64_t p1, int) {
    for_each_window(
        g, attrs, p0, p1,
        [&](std::int64_t in_base, std::int64_t out_idx, std::int64_t d0,
            std::int64_t d1, std::int64_t h0, std::int64_t h1, std::int64_t w0,
            std::int64_t w1) {
          if (attrs.mode == PoolMode::kMax) {
            float best = -std::numeric_limits<float>::infinity();
            std::int64_t best_idx = -1;
            for (std::int64_t d = d0; d < d1; ++d) {
              for (std::int64_t h = h0; h < h1; ++h) {
                const std::int64_t row = in_base + d * hw + h * g.in[2];
                for (std::int64_t w = w0; w < w1; ++w) {
                  if (xp[row + w] > best) {
                    best = xp[row + w];
                    best_idx = row + w;
                  }
                }
              }
            }
            if (best_idx >= 0) dxp[best_idx] += dyp[out_idx];
          } else {
            std::int64_t count = (d1 - d0) * (h1 - h0) * (w1 - w0);
            if (count <= 0) return;
            const float share = dyp[out_idx] / static_cast<float>(count);
            for (std::int64_t d = d0; d < d1; ++d) {
              for (std::int64_t h = h0; h < h1; ++h) {
                const std::int64_t row = in_base + d * hw + h * g.in[2];
                for (std::int64_t w = w0; w < w1; ++w) dxp[row + w] += share;
              }
            }
          }
        });
  });
}

// ---- 2-D max pooling over -inf-padded plane copies ----
//
// Each plane is copied into per-slot scratch with -inf around it, so
// every window lies inside the copy and needs no bounds. A -inf never
// wins the strict `>` of the scan, exactly like a skipped out-of-bounds
// element; each output scans its window in the reference's (h, w)
// order, so values, ties, +-0, NaN and the arg-max all match it.
// Backward records each output's arg-max in scratch, then gives every
// dx element, from 0, the dy of the windows that chose it in ascending
// output order, the reference's add order: by a scatter, for stride 1 by
// a gather per input element, or, where the windows tile the plane
// without overlap, by writing each element once.

// Minimum floats per parallel block: a tensor under twice this runs
// inline.
constexpr std::int64_t kGrain = 1 << 14;

/// One plane's geometry and its scratch layouts.
/// - The input copy holds input (h, w) at (h + ph, w + pw), -inf around
///   it, and covers the windows of every `lanes`-wide output group, the
///   last one included even where it runs past out_w.
/// - The arg-max plane holds output (oh, ow)'s arg-max at
///   (oh + kh - 1, ow + kw - 1), -1 around it, and covers every output
///   window that the stride-1 gather reads around the input plane.
struct Padded2d {
  std::int64_t in_h = 0, in_w = 0, out_h = 0, out_w = 0;
  std::int64_t kh = 0, kw = 0, sh = 0, sw = 0, ph = 0, pw = 0;
  std::int64_t lanes = 0;
  std::int64_t rows = 0, cols = 0;      // input copy
  std::int64_t a_rows = 0, a_cols = 0;  // arg-max plane

  std::int64_t arg_at(std::int64_t oh, std::int64_t ow) const {
    return (oh + kh - 1) * a_cols + ow + kw - 1;
  }
};

Padded2d make_padded(const PoolGeom& g, const PoolAttrs& a) {
  Padded2d p;
  p.in_h = g.in[1];
  p.in_w = g.in[2];
  p.out_h = g.out[1];
  p.out_w = g.out[2];
  p.kh = a.kernel[1];
  p.kw = a.kernel[2];
  p.sh = a.stride[1];
  p.sw = a.stride[2];
  p.ph = a.pad[1];
  p.pw = a.pad[2];
  // The vector width that fits the row: half a register for rows of at
  // most that many outputs, a full one otherwise.
  p.lanes = p.out_w <= simd::kLanes / 2 ? simd::kLanes / 2 : simd::kLanes;
  const std::int64_t groups = (p.out_w + p.lanes - 1) / p.lanes;
  p.rows = (p.out_h - 1) * p.sh + p.kh;
  // The stride-2 loads of deinterleave read one float past the last
  // window.
  p.cols = (groups * p.lanes - 1) * p.sw + p.kw + (p.sw == 2 ? 1 : 0);
  const std::int64_t in_wv = (p.in_w + p.lanes - 1) / p.lanes * p.lanes;
  p.a_rows = p.kh - 1 + std::max(p.out_h, p.in_h + p.ph);
  p.a_cols = p.kw - 1 + std::max(p.out_w, in_wv + p.pw);
  return p;
}

/// Stores the first n lanes of v at p: the whole vector when n is all of
/// it, which is the common case.
template <typename V>
inline void store_lanes(float* p, V v, std::int64_t n) {
  if (n == static_cast<std::int64_t>(sizeof(V) / sizeof(float))) {
    simd::store(p, v);
  } else {
    std::memcpy(p, &v, static_cast<std::size_t>(n) * sizeof(float));
  }
}

/// Copies n floats, kLanes per vector.
inline void copy_row(const float* src, float* dst, std::int64_t n) {
  typedef simd::Vec<float, simd::kLanes> V;
  std::int64_t w = 0;
  for (; w + simd::kLanes <= n; w += simd::kLanes) {
    simd::store(dst + w, simd::load<V>(src + w));
  }
  for (; w < n; ++w) dst[w] = src[w];
}

/// Copies a plane into the copy's interior. The border is never written,
/// so it keeps the -inf the caller filled the whole buffer with.
void copy_interior(const float* plane, const Padded2d& p, float* buf) {
  const std::int64_t h1 = std::min(p.in_h, p.rows - p.ph);
  const std::int64_t n = std::clamp<std::int64_t>(p.cols - p.pw, 0, p.in_w);
  for (std::int64_t h = std::max<std::int64_t>(0, -p.ph); h < h1; ++h) {
    copy_row(plane + h * p.in_w, buf + (h + p.ph) * p.cols + p.pw, n);
  }
}

/// Lanes 2l + kOdd, l < L, of the 2L floats at p: one stride-2 column
/// of L windows, from two contiguous loads.
template <typename V, int kOdd, int... I>
V deinterleave(const float* p, std::integer_sequence<int, I...>) {
  return __builtin_shufflevector(simd::load<V>(p),
                                 simd::load<V>(p + sizeof...(I)),
                                 (2 * I + kOdd)...);
}

/// Scans one padded plane, L outputs of a row per vector; kStride is the
/// column stride when it is 1 or 2, 0 for any other. Forward (kArg
/// false) writes the window maxima to out, the output plane. Backward
/// (kArg true) writes each window's arg-max to out, the arg-max plane: an
/// input-plane index, or -1 when nothing won.
template <int L, int kStride, bool kArg>
void scan_plane(const float* buf, const Padded2d& p, float* out) {
  typedef simd::Vec<float, L> V;
  typedef simd::Vec<std::int32_t, L> VI;
  constexpr auto lanes = std::make_integer_sequence<int, L>{};
  VI lane_col;
  for (int l = 0; l < L; ++l) lane_col[l] = static_cast<std::int32_t>(l * p.sw);
  const V ninf = V{} - std::numeric_limits<float>::infinity();
  for (std::int64_t oh = 0; oh < p.out_h; ++oh) {
    for (std::int64_t ow0 = 0; ow0 < p.out_w; ow0 += L) {
      V best = ninf;
      VI arg = VI{} - 1;
      for (std::int64_t dh = 0; dh < p.kh; ++dh) {
        const std::int64_t r = oh * p.sh + dh;
        const float* src = buf + r * p.cols + ow0 * p.sw;
        // Input-plane index of copy element (r, ow0 * sw); elements of
        // the -inf border get meaningless indices but never win.
        const std::int32_t base = static_cast<std::int32_t>(
            (r - p.ph) * p.in_w + ow0 * p.sw - p.pw);
        for (std::int64_t dw = 0; dw < p.kw; ++dw) {
          V v;
          if constexpr (kStride == 1) {
            v = simd::load<V>(src + dw);
          } else if constexpr (kStride == 2) {
            v = dw & 1 ? deinterleave<V, 1>(src + dw - 1, lanes)
                       : deinterleave<V, 0>(src + dw, lanes);
          } else {
            for (int l = 0; l < L; ++l) v[l] = src[l * p.sw + dw];
          }
          const VI gt = v > best;
          best = gt ? v : best;
          if constexpr (kArg) {
            arg = gt ? lane_col + static_cast<std::int32_t>(base + dw) : arg;
          }
        }
      }
      // Lanes past out_w are not stored.
      const std::int64_t n = std::min<std::int64_t>(L, p.out_w - ow0);
      if constexpr (kArg) {
        store_lanes(out + p.arg_at(oh, ow0), arg, n);
      } else {
        store_lanes(out + oh * p.out_w + ow0, best, n);
      }
    }
  }
}

/// dx of one plane from its arg-max plane: adds each output's dy into
/// its arg-max, in ascending output order, into the zeroed dx.
void scatter_plane(const float* args, const Padded2d& p, const float* dy,
                   float* dx) {
  std::fill(dx, dx + p.in_h * p.in_w, 0.0f);
  for (std::int64_t oh = 0; oh < p.out_h; ++oh) {
    for (std::int64_t ow = 0; ow < p.out_w; ++ow) {
      std::int32_t i;
      std::memcpy(&i, args + p.arg_at(oh, ow), sizeof(i));
      if (i >= 0) dx[i] += dy[oh * p.out_w + ow];
    }
  }
}

/// dx of one stride-1 plane from its arg-max plane, L inputs per vector:
/// each input element, starting from 0, adds the dy of every window
/// whose arg-max it is, in ascending output order. That is the scatter's
/// add sequence per element, without its chain of dependent stores. dys
/// is dy laid out like the arg-max plane (any finite value around it).
template <int L>
void gather_plane(const float* args, const float* dys, const Padded2d& p,
                  float* dx) {
  typedef simd::Vec<float, L> V;
  typedef simd::Vec<std::int32_t, L> VI;
  VI lane;
  for (int l = 0; l < L; ++l) lane[l] = l;
  for (std::int64_t h = 0; h < p.in_h; ++h) {
    for (std::int64_t w0 = 0; w0 < p.in_w; w0 += L) {
      const VI self = lane + static_cast<std::int32_t>(h * p.in_w + w0);
      V acc{};
      // Output (h + ph - (kh-1) + a, w + pw - (kw-1) + b) covers input
      // (h, w): a and b ascend, so the windows come in output order.
      for (std::int64_t a = 0; a < p.kh; ++a) {
        const std::int64_t row = (h + p.ph + a) * p.a_cols + w0 + p.pw;
        for (std::int64_t b = 0; b < p.kw; ++b) {
          const VI hit = simd::load<VI>(args + row + b) == self;
          acc = hit ? acc + simd::load<V>(dys + row + b) : acc;
        }
      }
      store_lanes(dx + h * p.in_w + w0, acc,
                  std::min<std::int64_t>(L, p.in_w - w0));
    }
  }
}

/// Lanes (v * L + j) / kW, j < L, of the L-lane x: in a row of windows
/// kW columns wide, input vector v of the kW that L outputs cover takes
/// its window's value in every lane.
template <int kW, int v, typename T, int... I>
T spread(T x, std::integer_sequence<int, I...>) {
  return __builtin_shufflevector(x, x, ((v * sizeof...(I) + I) / kW)...);
}

/// dx of one plane whose windows tile it (kernel == stride, no padding,
/// kW columns per window), L outputs of a row per step: each input
/// element lies in at most one window, so it is written once, 0 + dy
/// where it is that window's arg-max and 0 elsewhere. That is the
/// reference's sum from a zeroed dx, so a -0 dy lands as +0. Rows and
/// columns that no window covers get 0. args and dys are laid out as for
/// the gather.
template <int L, int kW>
void tile_plane(const float* args, const float* dys, const Padded2d& p,
                float* dx) {
  typedef simd::Vec<float, L> V;
  typedef simd::Vec<std::int32_t, L> VI;
  constexpr auto lanes = std::make_integer_sequence<int, L>{};
  VI lane;
  for (int l = 0; l < L; ++l) lane[l] = l;
  const std::int64_t cover_w = p.out_w * kW;
  for (std::int64_t oh = 0; oh < p.out_h; ++oh) {
    for (std::int64_t h = oh * p.kh; h < (oh + 1) * p.kh; ++h) {
      float* row = dx + h * p.in_w;
      for (std::int64_t ow0 = 0; ow0 < p.out_w; ow0 += L) {
        const VI arg = simd::load<VI>(args + p.arg_at(oh, ow0));
        const V d = V{} + simd::load<V>(dys + p.arg_at(oh, ow0));
        const auto write = [&]<int v>(std::integral_constant<int, v>) {
          const std::int64_t w0 = kW * ow0 + v * L;
          if (w0 >= cover_w) return;
          const VI self = lane + static_cast<std::int32_t>(h * p.in_w + w0);
          store_lanes(row + w0,
                      spread<kW, v>(arg, lanes) == self
                          ? spread<kW, v>(d, lanes)
                          : V{},
                      std::min<std::int64_t>(L, cover_w - w0));
        };
        [&]<int... v>(std::integer_sequence<int, v...>) {
          (write(std::integral_constant<int, v>{}), ...);
        }(std::make_integer_sequence<int, kW>{});
      }
      std::fill(row + cover_w, row + p.in_w, 0.0f);
    }
  }
  std::fill(dx + p.out_h * p.kh * p.in_w, dx + p.in_h * p.in_w, 0.0f);
}

using TileFn = void (*)(const float*, const float*, const Padded2d&, float*);

/// The tiling dx writer for p, or null when its windows overlap, are
/// padded, or are not 2 or 3 columns wide.
template <int L>
TileFn pick_tile(const Padded2d& p) {
  if (p.kh != p.sh || p.kw != p.sw || p.ph != 0 || p.pw != 0) return nullptr;
  if (p.kw == 2) return tile_plane<L, 2>;
  if (p.kw == 3) return tile_plane<L, 3>;
  return nullptr;
}

using ScanFn = void (*)(const float*, const Padded2d&, float*);

template <int L, bool kArg>
ScanFn pick_scan(std::int64_t stride) {
  if (stride == 1) return scan_plane<L, 1, kArg>;
  if (stride == 2) return scan_plane<L, 2, kArg>;
  return scan_plane<L, 0, kArg>;
}

bool fast_max2d(const PoolAttrs& a, const PoolGeom& g) {
  return a.mode == PoolMode::kMax && a.spatial_rank == 2 &&
         g.in[1] * g.in[2] < (std::int64_t{1} << 30);
}

/// Forward when dx is null (y receives the maxima), else backward.
void max_pool2d(const Tensor& x, Tensor* y, const Tensor* dy, Tensor* dx,
                const PoolAttrs& attrs, const PoolGeom& g,
                KernelContext& ctx) {
  const Padded2d p = make_padded(g, attrs);
  const bool backward = dx != nullptr;
  const bool full = p.lanes == simd::kLanes;
  const ScanFn scan =
      backward ? (full ? pick_scan<simd::kLanes, true>(p.sw)
                       : pick_scan<simd::kLanes / 2, true>(p.sw))
               : (full ? pick_scan<simd::kLanes, false>(p.sw)
                       : pick_scan<simd::kLanes / 2, false>(p.sw));
  // Tiling windows write dx directly. The gather pays kh * kw vector
  // steps per input vector; with half vectors (rows of at most
  // kLanes / 2) that is no fewer operations than the scatter, so those
  // rows scatter.
  const TileFn tile = !backward ? nullptr
                      : full    ? pick_tile<simd::kLanes>(p)
                                : pick_tile<simd::kLanes / 2>(p);
  const bool gather = backward && p.sh == 1 && p.sw == 1 && full;
  const std::int64_t in_sz = p.in_h * p.in_w;
  const std::int64_t out_sz = p.out_h * p.out_w;
  const std::int64_t a_sz = p.a_rows * p.a_cols;
  const float* xp = x.data();
  const float* dyp = backward ? dy->data() : nullptr;
  float* outp = backward ? dx->data() : y->data();
  parallel_for(
      ctx.pool(), g.batch * g.channels,
      std::max<std::int64_t>(1, kGrain / in_sz),
      [&](std::int64_t p0, std::int64_t p1, int slot) {
        float* buf = ctx.scratch(slot, KernelContext::kColArena,
                                 static_cast<std::size_t>(p.rows * p.cols));
        std::fill(buf, buf + p.rows * p.cols,
                  -std::numeric_limits<float>::infinity());
        // Backward: the arg-max plane, then (gather, tile) dy in its
        // layout. Only their interiors are rewritten per plane.
        float* args = nullptr;
        float* dys = nullptr;
        if (backward) {
          args = ctx.scratch(slot, KernelContext::kGemmArena,
                             static_cast<std::size_t>(2 * a_sz));
          dys = args + a_sz;
          const std::int32_t none = -1;
          for (std::int64_t i = 0; i < a_sz; ++i) {
            std::memcpy(args + i, &none, sizeof(none));
          }
          std::fill(dys, dys + a_sz, 0.0f);
        }
        for (std::int64_t q = p0; q < p1; ++q) {
          copy_interior(xp + q * in_sz, p, buf);
          if (!backward) {
            scan(buf, p, outp + q * out_sz);
            continue;
          }
          scan(buf, p, args);
          const float* dyq = dyp + q * out_sz;
          float* dxq = outp + q * in_sz;
          if (!tile && !gather) {
            scatter_plane(args, p, dyq, dxq);
            continue;
          }
          for (std::int64_t oh = 0; oh < p.out_h; ++oh) {
            copy_row(dyq + oh * p.out_w, dys + p.arg_at(oh, 0), p.out_w);
          }
          if (tile) {
            tile(args, dys, p, dxq);
          } else {
            gather_plane<simd::kLanes>(args, dys, p, dxq);
          }
        }
      });
}

}  // namespace

Shape pool_output_shape(const Shape& input_shape, const PoolAttrs& attrs) {
  const PoolGeom g = make_geom(input_shape, attrs);
  if (attrs.spatial_rank == 2) {
    return Shape{g.batch, g.channels, g.out[1], g.out[2]};
  }
  return Shape{g.batch, g.channels, g.out[0], g.out[1], g.out[2]};
}

void pool_forward(const Tensor& x, Tensor& y, const PoolAttrs& attrs,
                  KernelContext& ctx) {
  const PoolGeom g = make_geom(x.shape(), attrs);
  POOCH_CHECK(y.shape() == pool_output_shape(x.shape(), attrs));
  KernelTimer timer(ctx, "pool_forward");
  if (fast_max2d(attrs, g)) {
    max_pool2d(x, &y, nullptr, nullptr, attrs, g, ctx);
  } else {
    pool_forward_planes(x, y, attrs, g, ctx.pool());
  }
}

void pool_backward(const Tensor& x, const Tensor& dy, Tensor& dx,
                   const PoolAttrs& attrs, KernelContext& ctx) {
  const PoolGeom g = make_geom(x.shape(), attrs);
  POOCH_CHECK(dy.shape() == pool_output_shape(x.shape(), attrs));
  POOCH_CHECK(dx.shape() == x.shape());
  KernelTimer timer(ctx, "pool_backward");
  if (fast_max2d(attrs, g)) {
    max_pool2d(x, nullptr, &dy, &dx, attrs, g, ctx);
  } else {
    pool_backward_planes(x, dy, dx, attrs, g, ctx.pool());
  }
}

Shape global_avg_pool_output_shape(const Shape& input_shape) {
  POOCH_CHECK(input_shape.rank() >= 3);
  return Shape{input_shape[0], input_shape[1]};
}

void global_avg_pool_forward(const Tensor& x, Tensor& y, KernelContext& ctx) {
  const Shape& s = x.shape();
  POOCH_CHECK(y.shape() == global_avg_pool_output_shape(s));
  KernelTimer timer(ctx, "global_avg_pool");
  std::int64_t spatial = 1;
  for (int i = 2; i < s.rank(); ++i) spatial *= s[i];
  const float* xp = x.data();
  float* yp = y.data();
  parallel_for(ctx.pool(), s[0] * s[1], 1,
               [&](std::int64_t i0, std::int64_t i1, int) {
                 for (std::int64_t i = i0; i < i1; ++i) {
                   double acc = 0.0;
                   const float* row = xp + i * spatial;
                   for (std::int64_t j = 0; j < spatial; ++j) acc += row[j];
                   yp[i] = static_cast<float>(acc / static_cast<double>(spatial));
                 }
               });
}

void global_avg_pool_backward(const Shape& input_shape, const Tensor& dy,
                              Tensor& dx, KernelContext& ctx) {
  POOCH_CHECK(dx.shape() == input_shape);
  POOCH_CHECK(dy.shape() == global_avg_pool_output_shape(input_shape));
  KernelTimer timer(ctx, "global_avg_pool");
  std::int64_t spatial = 1;
  for (int i = 2; i < input_shape.rank(); ++i) spatial *= input_shape[i];
  const float* dyp = dy.data();
  float* dxp = dx.data();
  parallel_for(ctx.pool(), input_shape[0] * input_shape[1], 1,
               [&](std::int64_t i0, std::int64_t i1, int) {
                 for (std::int64_t i = i0; i < i1; ++i) {
                   const float share = dyp[i] / static_cast<float>(spatial);
                   float* row = dxp + i * spatial;
                   for (std::int64_t j = 0; j < spatial; ++j) row[j] = share;
                 }
               });
}

// --- reference oracles: the original naive loops ---

void pool_forward_ref(const Tensor& x, Tensor& y, const PoolAttrs& attrs) {
  const PoolGeom g = make_geom(x.shape(), attrs);
  POOCH_CHECK(y.shape() == pool_output_shape(x.shape(), attrs));
  const float* xp = x.data();
  float* yp = y.data();
  const Triple& k = attrs.kernel;
  const Triple& st = attrs.stride;
  const Triple& pd = attrs.pad;
  std::int64_t oi = 0;
  for (std::int64_t p = 0; p < g.batch * g.channels; ++p) {
    const float* plane = xp + p * g.in[0] * g.in[1] * g.in[2];
    for (std::int64_t od = 0; od < g.out[0]; ++od) {
      const std::int64_t d0 = std::max<std::int64_t>(0, od * st[0] - pd[0]);
      const std::int64_t d1 = std::min(g.in[0], od * st[0] - pd[0] + k[0]);
      for (std::int64_t oh = 0; oh < g.out[1]; ++oh) {
        const std::int64_t h0 = std::max<std::int64_t>(0, oh * st[1] - pd[1]);
        const std::int64_t h1 = std::min(g.in[1], oh * st[1] - pd[1] + k[1]);
        for (std::int64_t ow = 0; ow < g.out[2]; ++ow, ++oi) {
          const std::int64_t w0 =
              std::max<std::int64_t>(0, ow * st[2] - pd[2]);
          const std::int64_t w1 =
              std::min(g.in[2], ow * st[2] - pd[2] + k[2]);
          float best = -std::numeric_limits<float>::infinity();
          double acc = 0.0;
          std::int64_t count = 0;
          for (std::int64_t d = d0; d < d1; ++d) {
            for (std::int64_t h = h0; h < h1; ++h) {
              for (std::int64_t w = w0; w < w1; ++w) {
                const float v = plane[(d * g.in[1] + h) * g.in[2] + w];
                best = std::max(best, v);
                acc += v;
                ++count;
              }
            }
          }
          if (attrs.mode == PoolMode::kMax) {
            yp[oi] = best;
          } else {
            yp[oi] = count > 0 ? static_cast<float>(
                                     acc / static_cast<double>(count))
                               : 0.0f;
          }
        }
      }
    }
  }
}

void pool_backward_ref(const Tensor& x, const Tensor& dy, Tensor& dx,
                       const PoolAttrs& attrs) {
  const PoolGeom g = make_geom(x.shape(), attrs);
  POOCH_CHECK(dy.shape() == pool_output_shape(x.shape(), attrs));
  POOCH_CHECK(dx.shape() == x.shape());
  dx.zero();
  const float* xp = x.data();
  const float* dyp = dy.data();
  float* dxp = dx.data();
  const Triple& k = attrs.kernel;
  const Triple& st = attrs.stride;
  const Triple& pd = attrs.pad;
  const std::int64_t plane_sz = g.in[0] * g.in[1] * g.in[2];
  std::int64_t oi = 0;
  for (std::int64_t p = 0; p < g.batch * g.channels; ++p) {
    for (std::int64_t od = 0; od < g.out[0]; ++od) {
      const std::int64_t d0 = std::max<std::int64_t>(0, od * st[0] - pd[0]);
      const std::int64_t d1 = std::min(g.in[0], od * st[0] - pd[0] + k[0]);
      for (std::int64_t oh = 0; oh < g.out[1]; ++oh) {
        const std::int64_t h0 = std::max<std::int64_t>(0, oh * st[1] - pd[1]);
        const std::int64_t h1 = std::min(g.in[1], oh * st[1] - pd[1] + k[1]);
        for (std::int64_t ow = 0; ow < g.out[2]; ++ow, ++oi) {
          const std::int64_t w0 =
              std::max<std::int64_t>(0, ow * st[2] - pd[2]);
          const std::int64_t w1 =
              std::min(g.in[2], ow * st[2] - pd[2] + k[2]);
          if (attrs.mode == PoolMode::kMax) {
            float best = -std::numeric_limits<float>::infinity();
            std::int64_t best_idx = -1;
            for (std::int64_t d = d0; d < d1; ++d) {
              for (std::int64_t h = h0; h < h1; ++h) {
                for (std::int64_t w = w0; w < w1; ++w) {
                  const std::int64_t i =
                      p * plane_sz + (d * g.in[1] + h) * g.in[2] + w;
                  if (xp[i] > best) {
                    best = xp[i];
                    best_idx = i;
                  }
                }
              }
            }
            if (best_idx >= 0) dxp[best_idx] += dyp[oi];
            continue;
          }
          const std::int64_t count = (d1 - d0) * (h1 - h0) * (w1 - w0);
          if (count <= 0) continue;
          const float share = dyp[oi] / static_cast<float>(count);
          for (std::int64_t d = d0; d < d1; ++d) {
            for (std::int64_t h = h0; h < h1; ++h) {
              for (std::int64_t w = w0; w < w1; ++w) {
                dxp[p * plane_sz + (d * g.in[1] + h) * g.in[2] + w] += share;
              }
            }
          }
        }
      }
    }
  }
}

void global_avg_pool_forward_ref(const Tensor& x, Tensor& y) {
  const Shape& s = x.shape();
  POOCH_CHECK(y.shape() == global_avg_pool_output_shape(s));
  std::int64_t spatial = 1;
  for (int i = 2; i < s.rank(); ++i) spatial *= s[i];
  const float* xp = x.data();
  for (std::int64_t i = 0; i < s[0] * s[1]; ++i) {
    double acc = 0.0;
    for (std::int64_t j = 0; j < spatial; ++j) acc += xp[i * spatial + j];
    y[i] = static_cast<float>(acc / static_cast<double>(spatial));
  }
}

void global_avg_pool_backward_ref(const Shape& input_shape, const Tensor& dy,
                                  Tensor& dx) {
  POOCH_CHECK(dx.shape() == input_shape);
  POOCH_CHECK(dy.shape() == global_avg_pool_output_shape(input_shape));
  std::int64_t spatial = 1;
  for (int i = 2; i < input_shape.rank(); ++i) spatial *= input_shape[i];
  float* dxp = dx.data();
  for (std::int64_t i = 0; i < input_shape[0] * input_shape[1]; ++i) {
    const float share = dy[i] / static_cast<float>(spatial);
    for (std::int64_t j = 0; j < spatial; ++j) dxp[i * spatial + j] = share;
  }
}

}  // namespace pooch::kernels
