// im2col / col2im for up-to-3 spatial dimensions.
//
// Layout: input channel block is (C, D, H, W) for one sample; the column
// matrix is (C * Kd * Kh * Kw) rows by (outD * outH * outW) columns, row
// major — exactly the operand layout the conv kernels feed into matmul.
// 2-D convolutions pass D = Kd = outD = 1.
//
// Several samples can share one column matrix: with `samples` = N, the
// matrix is (rows, N * cols) — leading dimension col_ld() = N * cols() —
// and sample s fills the column block at offset s * cols() from the
// input block `sample_stride` floats after sample s - 1's. The conv
// kernels use this to run one GEMM over a whole chunk of the batch.
#pragma once

#include <cstdint>

#include "common/thread_pool.hpp"
#include "kernels/attrs.hpp"

namespace pooch::kernels {

struct ColGeom {
  std::int64_t channels = 0;
  Triple in{1, 1, 1};   // input spatial extents (D, H, W)
  Triple out{1, 1, 1};  // output spatial extents
  Triple kernel{1, 1, 1};
  Triple stride{1, 1, 1};
  Triple pad{0, 0, 0};

  /// Samples side by side in the column matrix, and the input floats
  /// from one sample's channel block to the next's.
  std::int64_t samples = 1;
  std::int64_t sample_stride = 0;

  std::int64_t rows() const {
    return channels * kernel[0] * kernel[1] * kernel[2];
  }
  /// Columns of one sample.
  std::int64_t cols() const { return out[0] * out[1] * out[2]; }
  /// Row stride of the column matrix.
  std::int64_t col_ld() const { return samples * cols(); }
};

/// Output spatial extent for one axis.
constexpr std::int64_t conv_out_extent(std::int64_t in, std::int64_t kernel,
                                       std::int64_t stride, std::int64_t pad) {
  return (in + 2 * pad - kernel) / stride + 1;
}

/// Expand `input` (the first sample's channel block) into `col`
/// (rows() x col_ld()). With a pool, work is partitioned over
/// column-matrix rows (pure disjoint writes), so the result is identical
/// at any thread count.
void im2col(const float* input, float* col, const ColGeom& g,
            ThreadPool* pool = nullptr);

/// Scatter-add `col` back into `input_grad` (must be zeroed by the caller
/// if accumulation from a clean slate is wanted). With a pool, work is
/// partitioned over input channels — each input element is touched by
/// exactly one block, in the same ascending row/column order as the
/// serial loop, so accumulation is bit-identical at any thread count and
/// to one col2im per sample.
void col2im(const float* col, float* input_grad, const ColGeom& g,
            ThreadPool* pool = nullptr);

}  // namespace pooch::kernels
