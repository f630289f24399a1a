#include "kernels/elementwise.hpp"

#include <cstring>

#include "common/error.hpp"
#include "common/parallel.hpp"

namespace pooch::kernels {

namespace {
constexpr std::int64_t kEltwiseGrain = 1 << 14;

// memcpy split into per-block ranges; identical bytes at any thread count.
void parallel_copy(float* dst, const float* src, std::int64_t n,
                   ThreadPool* pool) {
  parallel_for(pool, n, kEltwiseGrain,
               [&](std::int64_t i0, std::int64_t i1, int) {
                 std::memcpy(dst + i0, src + i0,
                             static_cast<std::size_t>(i1 - i0) *
                                 sizeof(float));
               });
}
}  // namespace

void add_forward(const Tensor& a, const Tensor& b, Tensor& y,
                 KernelContext& ctx) {
  POOCH_CHECK(a.shape() == b.shape() && y.shape() == a.shape());
  KernelTimer timer(ctx, "add");
  const float* ap = a.data();
  const float* bp = b.data();
  float* yp = y.data();
  parallel_for(ctx.pool(), a.numel(), kEltwiseGrain,
               [&](std::int64_t i0, std::int64_t i1, int) {
                 for (std::int64_t i = i0; i < i1; ++i) yp[i] = ap[i] + bp[i];
               });
}

Shape concat_output_shape(const std::vector<const Tensor*>& inputs) {
  POOCH_CHECK_MSG(!inputs.empty(), "concat needs at least one input");
  const Shape& first = inputs[0]->shape();
  std::int64_t channels = 0;
  for (const Tensor* t : inputs) {
    POOCH_CHECK(t->shape().rank() == first.rank());
    for (int i = 0; i < first.rank(); ++i) {
      if (i == 1) continue;
      POOCH_CHECK_MSG(t->shape()[i] == first[i],
                      "concat extent mismatch on axis " << i);
    }
    channels += t->shape()[1];
  }
  return first.with_dim(1, channels);
}

void concat_forward(const std::vector<const Tensor*>& inputs, Tensor& y,
                    KernelContext& ctx) {
  POOCH_CHECK(y.shape() == concat_output_shape(inputs));
  KernelTimer timer(ctx, "concat");
  const Shape& ys = y.shape();
  std::int64_t spatial = 1;
  for (int i = 2; i < ys.rank(); ++i) spatial *= ys[i];
  const std::int64_t batch = ys[0];
  const std::int64_t out_c = ys[1];
  float* yp = y.data();
  std::int64_t c_off = 0;
  for (const Tensor* t : inputs) {
    const std::int64_t tc = t->shape()[1];
    const float* tp = t->data();
    // Sample copies are independent block moves.
    parallel_for(ctx.pool(), batch, 1,
                 [&](std::int64_t n0, std::int64_t n1, int) {
                   for (std::int64_t n = n0; n < n1; ++n) {
                     std::memcpy(
                         yp + (n * out_c + c_off) * spatial,
                         tp + n * tc * spatial,
                         static_cast<std::size_t>(tc * spatial) *
                             sizeof(float));
                   }
                 });
    c_off += tc;
  }
}

void concat_backward(const Tensor& dy, const std::vector<Tensor*>& dinputs,
                     KernelContext& ctx) {
  KernelTimer timer(ctx, "concat");
  const Shape& ys = dy.shape();
  std::int64_t spatial = 1;
  for (int i = 2; i < ys.rank(); ++i) spatial *= ys[i];
  const std::int64_t batch = ys[0];
  const std::int64_t out_c = ys[1];
  const float* dyp = dy.data();
  std::int64_t c_off = 0;
  for (Tensor* t : dinputs) {
    const std::int64_t tc = t->shape()[1];
    float* tp = t->data();
    parallel_for(ctx.pool(), batch, 1,
                 [&](std::int64_t n0, std::int64_t n1, int) {
                   for (std::int64_t n = n0; n < n1; ++n) {
                     std::memcpy(
                         tp + n * tc * spatial,
                         dyp + (n * out_c + c_off) * spatial,
                         static_cast<std::size_t>(tc * spatial) *
                             sizeof(float));
                   }
                 });
    c_off += tc;
  }
  POOCH_CHECK(c_off == out_c);
}

void flatten_forward(const Tensor& x, Tensor& y, KernelContext& ctx) {
  POOCH_CHECK(y.shape() == x.shape().flatten2d());
  KernelTimer timer(ctx, "flatten");
  parallel_copy(y.data(), x.data(), x.numel(), ctx.pool());
}

void flatten_backward(const Shape& input_shape, const Tensor& dy, Tensor& dx,
                      KernelContext& ctx) {
  POOCH_CHECK(dx.shape() == input_shape);
  POOCH_CHECK(dy.numel() == dx.numel());
  KernelTimer timer(ctx, "flatten");
  parallel_copy(dx.data(), dy.data(), dy.numel(), ctx.pool());
}

void add_forward_ref(const Tensor& a, const Tensor& b, Tensor& y) {
  POOCH_CHECK(a.shape() == b.shape() && y.shape() == a.shape());
  const float* ap = a.data();
  const float* bp = b.data();
  float* yp = y.data();
  const std::int64_t n = a.numel();
  for (std::int64_t i = 0; i < n; ++i) yp[i] = ap[i] + bp[i];
}

}  // namespace pooch::kernels
