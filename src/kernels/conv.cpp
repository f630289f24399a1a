#include "kernels/conv.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "kernels/im2col.hpp"
#include "kernels/matmul.hpp"

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
// [og, nb * cols] GEMM result (forward) or gathered dY (backward). A
// chunk batches as many samples as fit under it (at least one) into one
// GEMM per group. Late layers with small outputs take the whole
// mini-batch; early layers with large outputs fill a GEMM on their own.
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

// Samples per chunk: the fewest chunks the cap allows, split evenly so
// no chunk is left with a sliver of the batch.
std::int64_t chunk_samples(const ConvGeom& g) {
  const std::int64_t per_sample =
      std::max<std::int64_t>(1, (g.col.rows() + g.og) * g.col.cols());
  const std::int64_t most =
      std::max<std::int64_t>(1, kChunkCapFloats / per_sample);
  const std::int64_t chunks =
      std::max<std::int64_t>(1, (g.batch + most - 1) / most);
  return std::max<std::int64_t>(1, (g.batch + chunks - 1) / chunks);
}

}  // namespace

void conv_forward(const Tensor& x, const Tensor& w, const Tensor* bias,
                  Tensor& y, const ConvAttrs& attrs, KernelContext& ctx) {
  KernelTimer timer(ctx, "conv_forward");
  const ConvGeom g = make_geom(x.shape(), attrs);
  POOCH_CHECK(y.shape() == conv_output_shape(x.shape(), attrs));
  POOCH_CHECK(w.shape() == conv_weight_shape(x.shape(), attrs));
  POOCH_CHECK(!attrs.has_bias || (bias && bias->numel() == attrs.out_channels));

  const std::int64_t col_rows = g.col.rows();
  const std::int64_t col_cols = g.col.cols();
  const std::int64_t chunk = chunk_samples(g);
  const std::int64_t w_group_stride = g.og * col_rows;
  const std::int64_t in_group_stride = g.cg * g.in[0] * g.in[1] * g.in[2];
  const std::int64_t y_stride = g.out_sample_stride(attrs.out_channels);

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
                if (attrs.has_bias) {
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

void conv_backward(const Tensor& x, const Tensor& w, const Tensor& dy,
                   Tensor* dx, Tensor& dw, Tensor* dbias,
                   const ConvAttrs& attrs, KernelContext& ctx) {
  KernelTimer timer(ctx, "conv_backward");
  const ConvGeom g = make_geom(x.shape(), attrs);
  POOCH_CHECK(dy.shape() == conv_output_shape(x.shape(), attrs));
  POOCH_CHECK(dw.shape() == conv_weight_shape(x.shape(), attrs));
  if (dx) POOCH_CHECK(dx->shape() == x.shape());

  const std::int64_t col_rows = g.col.rows();
  const std::int64_t col_cols = g.col.cols();
  const std::int64_t chunk = chunk_samples(g);
  const std::int64_t w_group_stride = g.og * col_rows;
  const std::int64_t in_group_stride = g.cg * g.in[0] * g.in[1] * g.in[2];
  const std::int64_t y_stride = g.out_sample_stride(attrs.out_channels);

  if (dx) dx->zero();
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

  // The chunk's column matrix [col_rows, nb * cols], reused for the
  // column gradient once dW has consumed it, followed by the gathered
  // output gradient [og, nb * cols].
  float* col = ctx.scratch(0, KernelContext::kColArena,
                           static_cast<std::size_t>((col_rows + g.og) *
                                                    chunk * col_cols));
  float* dyg = col + col_rows * chunk * col_cols;
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
