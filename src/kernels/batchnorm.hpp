// Training-mode batch normalization over the channel axis (axis 1).
//
// The backward pass recomputes the batch mean and inverse stddev from the
// saved input instead of caching them: this keeps the per-layer preserved
// state to exactly one feature map, the invariant the out-of-core planner
// relies on (a `recompute`d BN input is sufficient to run its backward).
//
// Parallelism partitions over channels, which are independent: each
// channel's statistics, normalize and dx run in one block. Inside a
// channel every sum keeps the reference's double-precision sequence (one
// ascending chain per (sample, channel) plane, folded in ascending
// sample order); the fast path only interleaves the chains of several
// planes. Output is bit-identical to the *_ref oracles at any thread
// count (docs/KERNELS.md, "Memory-bound kernels").
#pragma once

#include "kernels/attrs.hpp"
#include "kernels/kernel_context.hpp"
#include "tensor/tensor.hpp"

namespace pooch::kernels {

/// gamma/beta are rank-1 tensors of length C.
void batchnorm_forward(const Tensor& x, const Tensor& gamma,
                       const Tensor& beta, Tensor& y,
                       const BatchNormAttrs& attrs,
                       KernelContext& ctx = KernelContext::serial());

void batchnorm_backward(const Tensor& x, const Tensor& gamma,
                        const Tensor& dy, Tensor* dx, Tensor& dgamma,
                        Tensor& dbeta, const BatchNormAttrs& attrs,
                        KernelContext& ctx = KernelContext::serial());

// --- scalar reference oracles (single-threaded) ---
void batchnorm_forward_ref(const Tensor& x, const Tensor& gamma,
                           const Tensor& beta, Tensor& y,
                           const BatchNormAttrs& attrs);
void batchnorm_backward_ref(const Tensor& x, const Tensor& gamma,
                            const Tensor& dy, Tensor* dx, Tensor& dgamma,
                            Tensor& dbeta, const BatchNormAttrs& attrs);

}  // namespace pooch::kernels
