#include "kernels/im2col.hpp"

#include <algorithm>
#include <cstring>

#include "common/parallel.hpp"

namespace pooch::kernels {

namespace {

// Column-matrix floats one parallel block should cover at least.
constexpr std::int64_t kGrainFloats = std::int64_t{1} << 14;

// Smallest o >= 0 with o * stride >= v (v may be negative).
std::int64_t first_at_least(std::int64_t v, std::int64_t stride) {
  return v <= 0 ? 0 : (v + stride - 1) / stride;
}

// Shared traversal for column-matrix rows [row0, row1): calls
// body(col_index, input_index) for every in-bounds (column entry, input
// element) pair and pad_body(col_index) for padding, in ascending
// column order within a row. A row corresponds to one (channel, kd, kh,
// kw) tuple and holds every sample's columns for it; distinct rows write
// distinct col entries, and rows of distinct channels touch distinct
// input channels. Along W the in-bounds entries form one range, computed
// up front, so the inner loops carry no bounds test and vectorize.
template <typename Body, typename PadBody>
void for_each_col_entry(const ColGeom& g, std::int64_t row0,
                        std::int64_t row1, Body body, PadBody pad_body) {
  const std::int64_t in_d = g.in[0], in_h = g.in[1], in_w = g.in[2];
  const std::int64_t out_d = g.out[0], out_h = g.out[1], out_w = g.out[2];
  const std::int64_t sw = g.stride[2];
  const std::int64_t ld = g.col_ld();
  const std::int64_t kvol = g.kernel[0] * g.kernel[1] * g.kernel[2];
  for (std::int64_t row = row0; row < row1; ++row) {
    const std::int64_t c = row / kvol;
    std::int64_t rem = row % kvol;
    const std::int64_t kd = rem / (g.kernel[1] * g.kernel[2]);
    rem %= g.kernel[1] * g.kernel[2];
    const std::int64_t kh = rem / g.kernel[2];
    const std::int64_t kw = rem % g.kernel[2];
    // Output columns [ow0, ow1) read input columns inside [0, in_w).
    const std::int64_t shift = kw - g.pad[2];
    const std::int64_t ow0 = std::min(out_w, first_at_least(-shift, sw));
    const std::int64_t ow1 =
        std::max(ow0, std::min(out_w, first_at_least(in_w - shift, sw)));
    std::int64_t col_idx = row * ld;
    for (std::int64_t s = 0; s < g.samples; ++s) {
      const std::int64_t in_sample = s * g.sample_stride;
      for (std::int64_t od = 0; od < out_d; ++od) {
        const std::int64_t id = od * g.stride[0] - g.pad[0] + kd;
        const bool d_ok = id >= 0 && id < in_d;
        for (std::int64_t oh = 0; oh < out_h; ++oh, col_idx += out_w) {
          const std::int64_t ih = oh * g.stride[1] - g.pad[1] + kh;
          if (!d_ok || ih < 0 || ih >= in_h) {
            for (std::int64_t ow = 0; ow < out_w; ++ow) {
              pad_body(col_idx + ow);
            }
            continue;
          }
          const std::int64_t in_base =
              in_sample + ((c * in_d + id) * in_h + ih) * in_w + shift;
          for (std::int64_t ow = 0; ow < ow0; ++ow) pad_body(col_idx + ow);
          for (std::int64_t ow = ow0; ow < ow1; ++ow) {
            body(col_idx + ow, in_base + ow * sw);
          }
          for (std::int64_t ow = ow1; ow < out_w; ++ow) {
            pad_body(col_idx + ow);
          }
        }
      }
    }
  }
}

}  // namespace

void im2col(const float* input, float* col, const ColGeom& g,
            ThreadPool* pool) {
  const std::int64_t ld = g.col_ld();
  // Rows write disjoint col slices; partition freely, in blocks worth
  // waking a thread for.
  parallel_for(pool, g.rows(), std::max<std::int64_t>(1, kGrainFloats / ld),
               [&](std::int64_t r0, std::int64_t r1, int) {
                 for_each_col_entry(
                     g, r0, r1,
                     [&](std::int64_t ci, std::int64_t ii) {
                       col[ci] = input[ii];
                     },
                     [&](std::int64_t ci) { col[ci] = 0.0f; });
               });
}

void col2im(const float* col, float* input_grad, const ColGeom& g,
            ThreadPool* pool) {
  // Scatter-add: rows of one channel only touch that channel's input
  // planes, so partition over channels and keep each channel's
  // row/column order sequential — the accumulation order per input
  // element is identical at any thread count.
  const std::int64_t kvol = g.kernel[0] * g.kernel[1] * g.kernel[2];
  parallel_for(pool, g.channels,
               std::max<std::int64_t>(1, kGrainFloats / (kvol * g.col_ld())),
               [&](std::int64_t c0, std::int64_t c1, int) {
                 for_each_col_entry(
                     g, c0 * kvol, c1 * kvol,
                     [&](std::int64_t ci, std::int64_t ii) {
                       input_grad[ii] += col[ci];
                     },
                     [](std::int64_t) {});
               });
}

}  // namespace pooch::kernels
