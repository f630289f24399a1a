// Tensor utilities used by tests, examples and the data backend.
#pragma once

#include <cstdint>

#include "common/rng.hpp"
#include "tensor/tensor.hpp"

namespace pooch {

/// Fill with i.i.d. uniform values in [lo, hi], one draw each. The
/// interval is closed: the float cast of a double just below hi can
/// round up to hi.
void fill_uniform(Tensor& t, Rng& rng, float lo = -1.0f, float hi = 1.0f);

/// Kaiming-uniform bound for weights: sqrt(6 / fan_in), so that
/// uniform(-bound, bound) has variance 2 / fan_in, the Kaiming variance.
float kaiming_bound(std::int64_t fan_in);

/// Kaiming-uniform init for weights: fill_uniform over
/// [-kaiming_bound(fan_in), kaiming_bound(fan_in)].
void fill_kaiming(Tensor& t, Rng& rng, std::int64_t fan_in);

/// Largest absolute elementwise difference; shapes must match.
float max_abs_diff(const Tensor& a, const Tensor& b);

/// True when all elements differ by at most atol + rtol*|b|.
bool allclose(const Tensor& a, const Tensor& b, float rtol = 1e-5f,
              float atol = 1e-6f);

/// True when the buffers are identical bit for bit.
bool bit_equal(const Tensor& a, const Tensor& b);

/// Euclidean norm.
double l2_norm(const Tensor& t);

/// Sum of all elements.
double sum(const Tensor& t);

/// y += x (shapes must match).
void accumulate(Tensor& y, const Tensor& x);

/// y = alpha * y.
void scale(Tensor& y, float alpha);

}  // namespace pooch
