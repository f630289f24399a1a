// Elementwise / structural ops: residual add, channel concat, flatten.
// None of them need any saved feature map in backward.
//
// Parallel variants partition the flat element range (add) or the
// (input, sample) copy list (concat/flatten); every output element is
// written by exactly one block, so results are bit-identical to the
// *_ref loops at any thread count.
#pragma once

#include <vector>

#include "kernels/kernel_context.hpp"
#include "tensor/tensor.hpp"

namespace pooch::kernels {

/// y = a + b.
void add_forward(const Tensor& a, const Tensor& b, Tensor& y,
                 KernelContext& ctx = KernelContext::serial());

/// Concatenate along the channel axis (axis 1). All inputs share every
/// other extent.
Shape concat_output_shape(const std::vector<const Tensor*>& inputs);
void concat_forward(const std::vector<const Tensor*>& inputs, Tensor& y,
                    KernelContext& ctx = KernelContext::serial());
void concat_backward(const Tensor& dy, const std::vector<Tensor*>& dinputs,
                     KernelContext& ctx = KernelContext::serial());

/// Flatten to (N, rest): a pure copy with a reshaped view.
void flatten_forward(const Tensor& x, Tensor& y,
                     KernelContext& ctx = KernelContext::serial());
void flatten_backward(const Shape& input_shape, const Tensor& dy, Tensor& dx,
                      KernelContext& ctx = KernelContext::serial());

// --- scalar reference oracles (single-threaded) ---
void add_forward_ref(const Tensor& a, const Tensor& b, Tensor& y);

}  // namespace pooch::kernels
