#include "kernels/activations.hpp"

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "kernels/simd.hpp"

namespace pooch::kernels {

namespace {
// Below this many elements the fan-out overhead dominates the work.
constexpr std::int64_t kEltwiseGrain = 1 << 14;

typedef simd::Vec<float, simd::kLanes> Vec;

// out[i] = mask[i] > 0 ? val[i] : 0 over [i0, i1): a vector compare and
// select, no branch. The select copies bits, so NaN, -0 and the tail
// match the scalar `?:` exactly. Forward passes x as both mask and val.
void select_positive(const float* mask, const float* val, float* out,
                     std::int64_t i0, std::int64_t i1) {
  const Vec zero{};
  std::int64_t i = i0;
  for (; i + simd::kLanes <= i1; i += simd::kLanes) {
    const Vec m = simd::load<Vec>(mask + i);
    simd::store(out + i, m > zero ? simd::load<Vec>(val + i) : zero);
  }
  for (; i < i1; ++i) out[i] = mask[i] > 0.0f ? val[i] : 0.0f;
}
}  // namespace

void relu_forward(const Tensor& x, Tensor& y, KernelContext& ctx) {
  POOCH_CHECK(y.shape() == x.shape());
  KernelTimer timer(ctx, "relu_forward");
  const float* xp = x.data();
  float* yp = y.data();
  parallel_for(ctx.pool(), x.numel(), kEltwiseGrain,
               [&](std::int64_t i0, std::int64_t i1, int) {
                 select_positive(xp, xp, yp, i0, i1);
               });
}

void relu_backward(const Tensor& y, const Tensor& dy, Tensor& dx,
                   KernelContext& ctx) {
  POOCH_CHECK(dy.shape() == y.shape());
  POOCH_CHECK(dx.shape() == y.shape());
  KernelTimer timer(ctx, "relu_backward");
  const float* yp = y.data();
  const float* dyp = dy.data();
  float* dxp = dx.data();
  parallel_for(ctx.pool(), y.numel(), kEltwiseGrain,
               [&](std::int64_t i0, std::int64_t i1, int) {
                 select_positive(yp, dyp, dxp, i0, i1);
               });
}

void relu_forward_ref(const Tensor& x, Tensor& y) {
  POOCH_CHECK(y.shape() == x.shape());
  const float* xp = x.data();
  float* yp = y.data();
  const std::int64_t n = x.numel();
  for (std::int64_t i = 0; i < n; ++i) yp[i] = xp[i] > 0.0f ? xp[i] : 0.0f;
}

void relu_backward_ref(const Tensor& y, const Tensor& dy, Tensor& dx) {
  POOCH_CHECK(dy.shape() == y.shape());
  POOCH_CHECK(dx.shape() == y.shape());
  const float* yp = y.data();
  const float* dyp = dy.data();
  float* dxp = dx.data();
  const std::int64_t n = y.numel();
  for (std::int64_t i = 0; i < n; ++i) dxp[i] = yp[i] > 0.0f ? dyp[i] : 0.0f;
}

}  // namespace pooch::kernels
