// Max / average pooling for 2 and 3 spatial dimensions.
//
// The backward pass recomputes the max argmax from the saved input
// (first-maximum-wins tie break), so only the layer *input* needs to be
// preserved or recomputed — matching what the out-of-core planner assumes.
// Average pooling needs neither input nor output, only shapes.
//
// Parallelism partitions over (sample, channel) planes. Windows inside a
// plane may overlap (backward scatter), so each plane is processed by
// exactly one block in the serial window order — results are bit-identical
// to the *_ref oracles at any thread count. 2-D max pooling scans a
// -inf-padded copy of each plane, a vector of outputs at a time, in the
// reference's window order (docs/KERNELS.md, "Memory-bound kernels").
#pragma once

#include "kernels/attrs.hpp"
#include "kernels/kernel_context.hpp"
#include "tensor/tensor.hpp"

namespace pooch::kernels {

Shape pool_output_shape(const Shape& input_shape, const PoolAttrs& attrs);

void pool_forward(const Tensor& x, Tensor& y, const PoolAttrs& attrs,
                  KernelContext& ctx = KernelContext::serial());

/// `x` is required for max pooling only; pass the saved/recomputed input.
void pool_backward(const Tensor& x, const Tensor& dy, Tensor& dx,
                   const PoolAttrs& attrs,
                   KernelContext& ctx = KernelContext::serial());

/// Global average pooling: (N,C,spatial...) -> (N,C). Backward is
/// shape-only (uniform redistribution).
Shape global_avg_pool_output_shape(const Shape& input_shape);
void global_avg_pool_forward(const Tensor& x, Tensor& y,
                             KernelContext& ctx = KernelContext::serial());
void global_avg_pool_backward(const Shape& input_shape, const Tensor& dy,
                              Tensor& dx,
                              KernelContext& ctx = KernelContext::serial());

// --- scalar reference oracles (single-threaded) ---
void pool_forward_ref(const Tensor& x, Tensor& y, const PoolAttrs& attrs);
void pool_backward_ref(const Tensor& x, const Tensor& dy, Tensor& dx,
                       const PoolAttrs& attrs);
void global_avg_pool_forward_ref(const Tensor& x, Tensor& y);
void global_avg_pool_backward_ref(const Shape& input_shape, const Tensor& dy,
                                  Tensor& dx);

}  // namespace pooch::kernels
