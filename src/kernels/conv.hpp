// Grouped N-dimensional convolution (2-D and 3-D), forward and backward.
//
// Two paths, picked by shape alone. A stride-1 2-D convolution with
// "same" padding (2 * pad = kernel - 1) and one group, whose output rows
// are whole vectors, runs directly on zero-padded planes with no column
// matrix (docs/KERNELS.md, "Direct convolution"). Every other one runs
// im2col + one matmul per group over a batch of samples. Both are
// bit-identical to the *_ref oracles at any thread count.
//
// Layouts:
//   2-D: x (N,C,H,W),   w (O, C/g, Kh, Kw),     y (N,O,outH,outW)
//   3-D: x (N,C,D,H,W), w (O, C/g, Kd, Kh, Kw), y (N,O,outD,outH,outW)
//   bias (O), optional.
#pragma once

#include "kernels/attrs.hpp"
#include "kernels/kernel_context.hpp"
#include "tensor/tensor.hpp"

namespace pooch::kernels {

/// Shape of the convolution output for `input_shape` under `attrs`.
Shape conv_output_shape(const Shape& input_shape, const ConvAttrs& attrs);

/// Shape of the weight tensor for `input_shape` under `attrs`.
Shape conv_weight_shape(const Shape& input_shape, const ConvAttrs& attrs);

/// Bytes of one sample's im2col column buffer; the cost model charges
/// this as cuDNN-style workspace. The CPU kernels batch samples into a
/// larger scratch buffer under a fixed cap, which the model ignores.
std::size_t conv_workspace_bytes(const Shape& input_shape,
                                 const ConvAttrs& attrs);

/// Direct path: register tiles of output channels x row vectors take one
/// broadcast-weight multiply-add per (c, kh, kw), in im2col row order;
/// published as kernel.conv_forward_direct. GEMM path: one blocked GEMM
/// per group over a batch of samples: im2col fills adjacent column
/// blocks of one [K, N*HW] matrix, W_g times it gives every sample's
/// output, and a scatter to NCHW adds the bias. Either path chunks
/// samples in order under a fixed cap on its scratch and parallelizes
/// over independent outputs; output is bit-identical to
/// conv_forward_ref.
void conv_forward(const Tensor& x, const Tensor& w, const Tensor* bias,
                  Tensor& y, const ConvAttrs& attrs,
                  KernelContext& ctx = KernelContext::serial());

/// dx may be null when the input needs no gradient (network input).
/// Direct path (kernel.conv_backward_direct): dX sums each tap's column
/// gradient chain over zero-padded dY and stores every dx element once;
/// dW runs its lanes over input channels of a channel-last padded copy
/// of x, one chain per element in (n, oh, ow) order, and falls back to
/// the GEMM when the input channels fill no vector. GEMM path, batched
/// like the forward: dY is gathered into [og, N*HW], one GEMM gives dW
/// (its k runs sample-major, the reference's accumulation order), one
/// gives the column gradient, and col2im runs per sample. dbias adds
/// one partial sum per sample, in sample order.
void conv_backward(const Tensor& x, const Tensor& w, const Tensor& dy,
                   Tensor* dx, Tensor& dw, Tensor* dbias,
                   const ConvAttrs& attrs,
                   KernelContext& ctx = KernelContext::serial());

// --- scalar reference oracles (single-threaded, naive matmul) ---
void conv_forward_ref(const Tensor& x, const Tensor& w, const Tensor* bias,
                      Tensor& y, const ConvAttrs& attrs);
void conv_backward_ref(const Tensor& x, const Tensor& w, const Tensor& dy,
                       Tensor* dx, Tensor& dw, Tensor* dbias,
                       const ConvAttrs& attrs);

}  // namespace pooch::kernels
