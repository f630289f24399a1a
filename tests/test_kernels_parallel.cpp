// The kernel determinism contract: every fast kernel must produce
// bit-identical output to its scalar *_ref oracle at ANY thread count.
// This is what lets the out-of-core runtime swap/recompute/parallelize
// freely while test_equivalence demands exact equality with the in-core
// run (see docs/KERNELS.md for the argument).
//
// The shape corpus deliberately includes sizes off the GEMM tile grid
// (odd m/k/n, single rows/columns), exact block boundaries, strided and
// padded and grouped convolutions, and tensors straddling the
// elementwise grain — the places a blocked or partitioned implementation
// would diverge from the naive loops if the partitioning were wrong.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.hpp"
#include "kernels/activations.hpp"
#include "kernels/batchnorm.hpp"
#include "kernels/conv.hpp"
#include "kernels/dropout.hpp"
#include "kernels/elementwise.hpp"
#include "kernels/fc.hpp"
#include "kernels/kernel_context.hpp"
#include "kernels/matmul.hpp"
#include "kernels/pool.hpp"
#include "kernels/softmax.hpp"
#include "testing_util.hpp"

namespace pooch::kernels {
namespace {

using testing::random_tensor;

// With nan_class, any NaN matches any NaN: IEEE 754 leaves open which
// of two NaN operands an add returns, and x86 picks by operand order,
// which the compiler chooses per loop. Every other value, signed zeros
// and infinities included, must still match bit for bit.
void expect_bits(const Tensor& got, const Tensor& want,
                 const std::string& what, bool nan_class = false) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  for (std::int64_t i = 0; i < got.numel(); ++i) {
    std::uint32_t gb = 0, wb = 0;
    const float gv = got[i], wv = want[i];
    if (nan_class && std::isnan(gv) && std::isnan(wv)) continue;
    std::memcpy(&gb, &gv, sizeof(gb));
    std::memcpy(&wb, &wv, sizeof(wb));
    ASSERT_EQ(gb, wb) << what << ": first bit difference at flat index " << i
                      << " (" << gv << " vs " << wv << ")";
  }
}

// Uniform values mapped onto eight: +0, -0, NaN, -inf, -1, -0.5, 0.5
// and 1. Windows and vectors then hold ties, signed zeros and values no
// comparison picks, the cases where a reordered max or select shows.
Tensor special_tensor(const Shape& shape, std::uint64_t seed) {
  const float table[8] = {0.0f,
                          -0.0f,
                          std::numeric_limits<float>::quiet_NaN(),
                          -std::numeric_limits<float>::infinity(),
                          -1.0f,
                          -0.5f,
                          0.5f,
                          1.0f};
  Tensor t = random_tensor(shape, seed);
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    t[i] = table[std::min(7, static_cast<int>((t[i] + 1.0f) * 4.0f))];
  }
  return t;
}

// A batch whose first two samples cancel exactly: sample 1 is -sample 0,
// both of magnitude 2^40, and the rest is uniform. A per-channel sum over
// the batch is exact only when it adds sample 0, then sample 1, then the
// rest; any other order rounds the small samples against 2^40.
Tensor cancelling_batch(const Shape& shape, std::uint64_t seed) {
  Tensor t = random_tensor(shape, seed);
  const std::int64_t sample = t.numel() / shape[0];
  for (std::int64_t i = 0; i < sample; ++i) {
    t[i] = (t[i] < 0.0f ? -1.0f : 1.0f) * 0x1p40f;
    t[sample + i] = -t[i];
  }
  return t;
}

// ---------- fast-vs-ref bit identity, parameterized over thread count ----

class KernelBitIdentity : public ::testing::TestWithParam<int> {
 protected:
  KernelBitIdentity() : ctx_(GetParam()) {}
  KernelContext ctx_;
};

INSTANTIATE_TEST_SUITE_P(Threads, KernelBitIdentity,
                         ::testing::Values(1, 2, 3, 8),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "t" + std::to_string(info.param);
                         });

TEST_P(KernelBitIdentity, MatmulAllVariants) {
  struct Case {
    std::int64_t m, k, n;
  };
  // Single elements, odd everything, exact micro/cache-tile multiples,
  // block-boundary crossers, degenerate single-column output; m at, just
  // past and two tiles plus one past the 12-row micro-tile, with k
  // spanning more than one 256-deep k panel on one 16-wide column panel;
  // a row count whose panel partition leaves a short last panel.
  // Then shapes above the 2 MFLOP fan-out threshold. m < n splits
  // 16-wide column panels over the threads: one ragged row panel with B
  // read in place, n ragged across 240-column blocks, two row panels.
  // n <= 16 splits row panels into blocks of one column panel that read
  // A in place; n = 17 has two column panels and packs A.
  // Then the shape-derived orders. A k <= 256 goes into one panel as
  // wide as the budget, and C is swept in 12-row strips: the dW shapes
  // of ResNet-50's 3x3 convs on 2x2 planes (512x16x4608, 512x16x2048),
  // a ragged strip and last column (13x16x4609), and k at, just under
  // and just over the one-panel bound with C wider than 1000 columns. A
  // transposed A read in place runs 32-deep k panels: the matching dX
  // shapes (4608x512x16, 2048x512x16) and one with odd m, k and n and a
  // one-step last panel (4609x33x15).
  const Case cases[] = {{1, 1, 1},      {3, 7, 5},       {4, 16, 16},
                        {5, 17, 33},    {64, 256, 240},  {67, 129, 241},
                        {2, 300, 1},    {12, 300, 16},   {13, 300, 16},
                        {25, 513, 16},  {97, 300, 40},   {8, 800, 512},
                        {1, 2000, 1200}, {12, 800, 517}, {13, 600, 500},
                        {300, 700, 15}, {400, 900, 16},  {200, 900, 17},
                        {512, 16, 4608}, {512, 16, 2048}, {13, 16, 4609},
                        {20, 255, 1030}, {20, 256, 1030}, {20, 257, 1030},
                        {4608, 512, 16}, {2048, 512, 16}, {4609, 33, 15}};
  std::uint64_t seed = 100;
  for (const Case& c : cases) {
    const std::string tag = "m" + std::to_string(c.m) + "k" +
                            std::to_string(c.k) + "n" + std::to_string(c.n);
    const Tensor a = random_tensor(Shape{c.m, c.k}, seed++);
    const Tensor at = random_tensor(Shape{c.k, c.m}, seed++);
    const Tensor b = random_tensor(Shape{c.k, c.n}, seed++);
    const Tensor bt = random_tensor(Shape{c.n, c.k}, seed++);
    const Tensor init = random_tensor(Shape{c.m, c.n}, seed++);

    Tensor got(Shape{c.m, c.n});
    Tensor want(Shape{c.m, c.n});
    matmul(a.data(), b.data(), got.data(), c.m, c.k, c.n, ctx_);
    matmul_ref(a.data(), b.data(), want.data(), c.m, c.k, c.n);
    expect_bits(got, want, "matmul " + tag);

    matmul_at(at.data(), b.data(), got.data(), c.m, c.k, c.n, ctx_);
    matmul_at_ref(at.data(), b.data(), want.data(), c.m, c.k, c.n);
    expect_bits(got, want, "matmul_at " + tag);

    matmul_bt(a.data(), bt.data(), got.data(), c.m, c.k, c.n, ctx_);
    matmul_bt_ref(a.data(), bt.data(), want.data(), c.m, c.k, c.n);
    expect_bits(got, want, "matmul_bt " + tag);

    got = init;
    want = init;
    matmul_bt_acc(a.data(), bt.data(), got.data(), c.m, c.k, c.n, ctx_);
    matmul_bt_acc_ref(a.data(), bt.data(), want.data(), c.m, c.k, c.n);
    expect_bits(got, want, "matmul_bt_acc " + tag);
  }
}

// Conv operands on which the order of every term shows: mostly uniform,
// one in eight a signed zero and one in fifty a NaN or an infinity. A
// multiply-add with a zero of the padding then gives NaN for an infinite
// or NaN operand, and -0 or +0 by the other operand's sign, so a kernel
// that drops, adds or reorders padding terms gives NaN where the
// reference is finite, or the reverse, or a zero of the other sign.
Tensor sparse_special_tensor(const Shape& shape, std::uint64_t seed) {
  const float inf = std::numeric_limits<float>::infinity();
  const float table[5] = {std::numeric_limits<float>::quiet_NaN(), inf, -inf,
                          0.0f, -0.0f};
  Tensor t = random_tensor(shape, seed);
  Tensor pick = random_tensor(shape, seed + 1, 0.0f, 1.0f);
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    const float u = pick[i];
    if (u < 0.02f) {
      t[i] = table[std::min(2, static_cast<int>(u * 150.0f))];
    } else if (u < 0.145f) {
      t[i] = table[u < 0.0825f ? 3 : 4];
    }
  }
  return t;
}

TEST_P(KernelBitIdentity, ConvForwardBackward) {
  struct Case {
    const char* name;
    Shape xs;
    ConvAttrs attrs;
    bool want_dx;
    bool special = false;
  };
  // Conv runs one GEMM per group over a chunk of samples whose column
  // blocks sit side by side, so the corpus puts sample boundaries inside
  // 16-wide column panels and chunk boundaries inside the batch.
  // Stride-1 "same" convolutions whose rows are 8, 16 or 32 floats take
  // the direct path instead ("chunked", "inception_*" and "direct_*"):
  // its register tiles have remainders in channels and row vectors, its
  // padded planes are read a vector at a time up to the last column, and
  // its dW needs input channels that fill vectors (C = 3 falls back to
  // the GEMM for dW but not for dX).
  const Case cases[] = {
      {"batch8", Shape{8, 4, 9, 9}, ConvAttrs::conv2d(6, 3, 1, 1), true},
      {"batch1", Shape{1, 3, 13, 13}, ConvAttrs::conv2d(5, 3, 2, 1), true},
      {"grouped", Shape{2, 4, 8, 8}, ConvAttrs::conv2d(4, 3, 1, 1, 2), true},
      {"no_bias_nodx", Shape{2, 3, 7, 7},
       ConvAttrs::conv2d(4, 2, 2, 0, 1, /*bias=*/false), false},
      {"conv3d", Shape{2, 2, 5, 5, 5}, ConvAttrs::conv3d(3, 3, 1, 1), true},
      // 2x2 outputs: four samples per 16-wide panel, a fifth straddling
      // into the next one.
      {"out2x2", Shape{5, 16, 4, 4}, ConvAttrs::conv2d(8, 3, 2, 1), true},
      // 1x1 outputs: seven one-column samples in one padded panel.
      {"out1x1", Shape{7, 8, 3, 3}, ConvAttrs::conv2d(6, 3, 1, 0), true},
      // 1x1 kernel on 4x4: one sample per panel, none straddling.
      {"k1_4x4", Shape{3, 16, 4, 4}, ConvAttrs::conv2d(16, 1, 1, 0), true},
      // out_channels = 2 * 12 + 5: two full register tiles and a remainder.
      {"oc29", Shape{3, 6, 5, 5}, ConvAttrs::conv2d(29, 3, 1, 1), true},
      {"grouped_b4", Shape{4, 8, 6, 6}, ConvAttrs::conv2d(12, 3, 1, 1, 4),
       true},
      {"grouped_nodx", Shape{3, 6, 5, 5},
       ConvAttrs::conv2d(9, 3, 2, 1, 3, /*bias=*/false), false},
      {"conv3d_b3", Shape{3, 3, 4, 3, 3}, ConvAttrs::conv3d(4, 2, 1, 0),
       true},
      {"chunked", Shape{9, 16, 32, 32}, ConvAttrs::conv2d(5, 3, 1, 1), true},
      // (144 + 5) x 900 scratch floats per sample: more samples than one
      // chunk holds, so the GEMM's dW accumulates across chunks.
      {"chunked_gemm", Shape{9, 16, 32, 32}, ConvAttrs::conv2d(5, 3, 1, 0),
       true},
      // The Inception toy's 5x5 branch.
      {"inception_b5", Shape{8, 32, 16, 16}, ConvAttrs::conv2d(8, 5, 1, 2),
       true},
      {"inception_stem", Shape{3, 3, 32, 32}, ConvAttrs::conv2d(32, 3, 1, 1),
       false},
      {"direct_w8_k1", Shape{3, 16, 8, 8}, ConvAttrs::conv2d(12, 1, 1, 0),
       true},
      {"direct_w16_k3", Shape{1, 32, 5, 16}, ConvAttrs::conv2d(29, 3, 1, 1),
       true},
      {"direct_w32_k5", Shape{3, 16, 3, 32}, ConvAttrs::conv2d(12, 5, 1, 2),
       true},
      {"direct_w8_k5", Shape{5, 64, 8, 8}, ConvAttrs::conv2d(12, 5, 1, 2),
       true},
      {"direct_c3", Shape{2, 3, 6, 16}, ConvAttrs::conv2d(7, 3, 1, 1), true},
      {"direct_nobias_nodx", Shape{3, 32, 7, 16},
       ConvAttrs::conv2d(29, 3, 1, 1, 1, /*bias=*/false), false},
      // A 1x1 kernel folds its plane into one row: 72 floats, where a
      // 12-float row alone fills no vector.
      {"direct_k1_folded", Shape{2, 16, 6, 12}, ConvAttrs::conv2d(12, 1, 1, 0),
       true},
      // 160 output channels: the dX chains over o run in blocks, parked
      // between them.
      {"direct_dx_oblocks", Shape{2, 8, 6, 16}, ConvAttrs::conv2d(160, 3, 1, 1),
       true},
      // 34 * 34 * 64 channel-last floats per sample: seven samples per
      // dW chunk, so its chains continue across two chunks.
      {"direct_dw_chunks", Shape{9, 64, 32, 32}, ConvAttrs::conv2d(5, 3, 1, 1),
       true},
      {"direct_special_k3", Shape{3, 16, 6, 16}, ConvAttrs::conv2d(12, 3, 1, 1),
       true, true},
      {"direct_special_k5", Shape{2, 32, 8, 8}, ConvAttrs::conv2d(5, 5, 1, 2),
       true, true},
      {"direct_special_k1", Shape{2, 16, 4, 32}, ConvAttrs::conv2d(3, 1, 1, 0),
       true, true},
      // ResNet-50's late-stage GEMM convs (b4, 64x64 input), whose dW and
      // dX take the shape-derived GEMM orders: a 3x3 on 2x2 planes and the
      // strided 1x1 projection into the last stage. Then its 7x7 s2 stem,
      // whose 147-row dW packs a ragged transposed B panel.
      {"r50_s3_k3", Shape{4, 512, 2, 2},
       ConvAttrs::conv2d(512, 3, 1, 1, 1, /*bias=*/false), true},
      {"r50_s3_proj", Shape{4, 1024, 4, 4},
       ConvAttrs::conv2d(2048, 1, 2, 0, 1, /*bias=*/false), true},
      {"r50_stem", Shape{4, 3, 64, 64},
       ConvAttrs::conv2d(64, 7, 2, 3, 1, /*bias=*/false), true},
  };
  std::uint64_t seed = 500;
  for (const Case& c : cases) {
    const auto make = [&](const Shape& shape) {
      return c.special ? sparse_special_tensor(shape, seed += 2)
                       : random_tensor(shape, seed++);
    };
    const Tensor x = make(c.xs);
    const Tensor w = make(conv_weight_shape(c.xs, c.attrs));
    const Shape ys = conv_output_shape(c.xs, c.attrs);
    Tensor bias;
    if (c.attrs.has_bias) bias = make(Shape{c.attrs.out_channels});
    const Tensor* bp = c.attrs.has_bias ? &bias : nullptr;

    Tensor y(ys), y_ref(ys);
    conv_forward(x, w, bp, y, c.attrs, ctx_);
    conv_forward_ref(x, w, bp, y_ref, c.attrs);
    expect_bits(y, y_ref, std::string("conv_forward ") + c.name, c.special);

    const Tensor dy = make(ys);
    // The fast path's gradients start as garbage: conv_backward must
    // overwrite them, as a training step reusing its buffers relies on.
    Tensor dx = random_tensor(c.xs, seed++), dx_ref(c.xs);
    Tensor dw = random_tensor(w.shape(), seed++), dw_ref(w.shape());
    Tensor dbias, dbias_ref;
    if (c.attrs.has_bias) {
      dbias = random_tensor(Shape{c.attrs.out_channels}, seed++);
      dbias_ref = Tensor(Shape{c.attrs.out_channels});
    }
    conv_backward(x, w, dy, c.want_dx ? &dx : nullptr, dw,
                  c.attrs.has_bias ? &dbias : nullptr, c.attrs, ctx_);
    conv_backward_ref(x, w, dy, c.want_dx ? &dx_ref : nullptr, dw_ref,
                      c.attrs.has_bias ? &dbias_ref : nullptr, c.attrs);
    expect_bits(dw, dw_ref, std::string("conv dw ") + c.name, c.special);
    if (c.want_dx) {
      expect_bits(dx, dx_ref, std::string("conv dx ") + c.name, c.special);
    }
    if (c.attrs.has_bias) {
      expect_bits(dbias, dbias_ref, std::string("conv dbias ") + c.name,
                  c.special);
    }
  }
}

TEST_P(KernelBitIdentity, FullyConnected) {
  struct Case {
    std::int64_t batch, in, out;
    bool bias, want_dx;
  };
  const Case cases[] = {{5, 33, 17, true, true},
                        {1, 7, 3, false, true},
                        {8, 64, 10, true, false}};
  std::uint64_t seed = 900;
  for (const Case& c : cases) {
    FcAttrs attrs;
    attrs.out_features = c.out;
    attrs.has_bias = c.bias;
    const std::string tag = "fc" + std::to_string(c.batch) + "x" +
                            std::to_string(c.in) + "x" + std::to_string(c.out);
    const Tensor x = random_tensor(Shape{c.batch, c.in}, seed++);
    const Tensor w = random_tensor(Shape{c.out, c.in}, seed++);
    Tensor bias;
    if (c.bias) bias = random_tensor(Shape{c.out}, seed++);
    const Tensor* bp = c.bias ? &bias : nullptr;

    Tensor y(Shape{c.batch, c.out}), y_ref(Shape{c.batch, c.out});
    fc_forward(x, w, bp, y, attrs, ctx_);
    fc_forward_ref(x, w, bp, y_ref, attrs);
    expect_bits(y, y_ref, tag + " forward");

    const Tensor dy = random_tensor(Shape{c.batch, c.out}, seed++);
    Tensor dx(x.shape()), dx_ref(x.shape());
    Tensor dw(w.shape()), dw_ref(w.shape());
    Tensor dbias, dbias_ref;
    if (c.bias) {
      dbias = Tensor(Shape{c.out});
      dbias_ref = Tensor(Shape{c.out});
    }
    fc_backward(x, w, dy, c.want_dx ? &dx : nullptr, dw,
                c.bias ? &dbias : nullptr, attrs, ctx_);
    fc_backward_ref(x, w, dy, c.want_dx ? &dx_ref : nullptr, dw_ref,
                    c.bias ? &dbias_ref : nullptr, attrs);
    expect_bits(dw, dw_ref, tag + " dw");
    if (c.want_dx) expect_bits(dx, dx_ref, tag + " dx");
    if (c.bias) expect_bits(dbias, dbias_ref, tag + " dbias");
  }
}

TEST_P(KernelBitIdentity, BatchNorm) {
  // Odd channel and plane counts leave partial interleave groups; the
  // ResNet-50 late-stage shape has 2048 channels over 2x2 planes (many
  // chunks, and a block per thread); the last shape has planes of 1056
  // floats, past one vector width.
  struct Case {
    const char* name;
    Shape xs;
    bool cancel_x = false;
    bool cancel_dy = false;
  };
  const Case cases[] = {
      {"4x5x6x7", Shape{4, 5, 6, 7}},
      {"2x3x4x4x4", Shape{2, 3, 4, 4, 4}},
      {"7x3", Shape{7, 3}},
      {"4x2048x2x2", Shape{4, 2048, 2, 2}},
      {"2x16x32x33", Shape{2, 16, 32, 33}},
      // Cancelling x pins the order of the mean's per-channel fold,
      // cancelling dy that of sum(dy); both need ascending n. Planes of
      // 4 and of 64 floats take both of the fast path's plane walks.
      {"cancel_x 3x2x2x2", Shape{3, 2, 2, 2}, true, false},
      {"cancel_x 10x3x8x8", Shape{10, 3, 8, 8}, true, false},
      {"cancel_dy 10x3x2x2", Shape{10, 3, 2, 2}, false, true},
      {"cancel_dy 10x3x8x8", Shape{10, 3, 8, 8}, false, true},
  };
  std::uint64_t seed = 1300;
  for (const Case& cs : cases) {
    const Shape& xs = cs.xs;
    const std::string tag = std::string("batchnorm ") + cs.name;
    const std::int64_t channels = xs[1];
    BatchNormAttrs attrs;
    const Tensor x = cs.cancel_x ? cancelling_batch(xs, seed++)
                                 : random_tensor(xs, seed++);
    const Tensor gamma = random_tensor(Shape{channels}, seed++, 0.5f, 1.5f);
    const Tensor beta = random_tensor(Shape{channels}, seed++);
    Tensor y(xs), y_ref(xs);
    batchnorm_forward(x, gamma, beta, y, attrs, ctx_);
    batchnorm_forward_ref(x, gamma, beta, y_ref, attrs);
    expect_bits(y, y_ref, tag + " forward");

    Tensor dy = cs.cancel_dy ? cancelling_batch(xs, seed++)
                             : random_tensor(xs, seed++);
    if (cs.cancel_x) {
      // Only the small samples carry gradient, so dgamma sees the mean.
      const std::int64_t sample = x.numel() / xs[0];
      for (std::int64_t i = 0; i < 2 * sample; ++i) dy[i] = 0.0f;
    }
    Tensor dx(xs), dx_ref(xs);
    Tensor dgamma(Shape{channels}), dgamma_ref(Shape{channels});
    Tensor dbeta(Shape{channels}), dbeta_ref(Shape{channels});
    batchnorm_backward(x, gamma, dy, &dx, dgamma, dbeta, attrs, ctx_);
    batchnorm_backward_ref(x, gamma, dy, &dx_ref, dgamma_ref, dbeta_ref,
                           attrs);
    expect_bits(dx, dx_ref, tag + " dx");
    expect_bits(dgamma, dgamma_ref, tag + " dgamma");
    expect_bits(dbeta, dbeta_ref, tag + " dbeta");
  }
}

TEST_P(KernelBitIdentity, Pooling) {
  struct Case {
    const char* name;
    Shape xs;
    PoolAttrs attrs;
  };
  const PoolMode kMax = PoolMode::kMax;
  // 2-D max pooling runs on -inf-padded plane copies, a vector of 8 or 16
  // outputs at a time: rows of exactly 8 and 16 outputs, rows of several
  // vectors with a partial last one, the strided windows of 2x2 s2 and
  // the ResNet stem's 3x3 s2 p1, a stride of 3, and stride-1 windows
  // without padding. The 8- and 16-wide cases have enough planes to fan
  // out over blocks.
  const Case cases[] = {
      {"max3x3s1p1 w8", Shape{8, 64, 8, 8}, PoolAttrs::pool2d(kMax, 3, 1, 1)},
      {"max3x3s1p1 w16", Shape{4, 40, 16, 16},
       PoolAttrs::pool2d(kMax, 3, 1, 1)},
      {"max3x3s1p1 w18", Shape{2, 5, 18, 18},
       PoolAttrs::pool2d(kMax, 3, 1, 1)},
      {"max3x3s1p1 w37", Shape{2, 3, 11, 37},
       PoolAttrs::pool2d(kMax, 3, 1, 1)},
      {"max3x3s1p1 w13", Shape{3, 4, 13, 13},
       PoolAttrs::pool2d(kMax, 3, 1, 1)},
      {"max2x2s2 w16", Shape{2, 6, 16, 16}, PoolAttrs::pool2d(kMax, 2, 2)},
      {"max2x2s2 w15", Shape{2, 3, 15, 15}, PoolAttrs::pool2d(kMax, 2, 2)},
      {"max3x3s2p1 stem", Shape{2, 4, 32, 32},
       PoolAttrs::pool2d(kMax, 3, 2, 1)},
      {"max3x3s2p1 w9", Shape{2, 3, 9, 9}, PoolAttrs::pool2d(kMax, 3, 2, 1)},
      {"max5x5s1p2", Shape{2, 3, 16, 16}, PoolAttrs::pool2d(kMax, 5, 1, 2)},
      {"max3x3s1p0 w20", Shape{2, 3, 20, 20}, PoolAttrs::pool2d(kMax, 3, 1)},
      {"max2x2s1 w17", Shape{2, 2, 17, 17}, PoolAttrs::pool2d(kMax, 2, 1)},
      {"max3x3s3", Shape{2, 3, 13, 13}, PoolAttrs::pool2d(kMax, 3, 3)},
      {"max3x3s1p2 border", Shape{2, 2, 5, 5},
       PoolAttrs::pool2d(kMax, 3, 1, 2)},
      {"avg2d", Shape{3, 2, 8, 8}, PoolAttrs::pool2d(PoolMode::kAvg, 2, 2)},
      {"avg2d_pad", Shape{2, 3, 9, 9},
       PoolAttrs::pool2d(PoolMode::kAvg, 3, 2, 1)},
      {"max3d", Shape{1, 2, 6, 6, 6}, PoolAttrs::pool3d(kMax, 2, 2)},
  };
  std::uint64_t seed = 1700;
  for (const Case& c : cases) {
    for (const bool special : {false, true}) {
      const std::string tag =
          std::string(c.name) + (special ? " special" : " uniform");
      const Tensor x =
          special ? special_tensor(c.xs, seed++) : random_tensor(c.xs, seed++);
      const Shape ys = pool_output_shape(c.xs, c.attrs);
      Tensor y(ys), y_ref(ys);
      pool_forward(x, y, c.attrs, ctx_);
      pool_forward_ref(x, y_ref, c.attrs);
      expect_bits(y, y_ref, "pool forward " + tag);

      const Tensor dy = random_tensor(ys, seed++);
      Tensor dx(c.xs), dx_ref(c.xs);
      pool_backward(x, dy, dx, c.attrs, ctx_);
      pool_backward_ref(x, dy, dx_ref, c.attrs);
      expect_bits(dx, dx_ref, "pool backward " + tag);
    }
  }

  // Windows that tile the plane (kernel == stride, no padding) write dx
  // directly. Odd extents leave rows and columns no window covers; a -0
  // dy must land as the reference's +0; a window of only -inf and NaN has
  // no arg-max, so all its inputs get 0. Rows of 8 or fewer outputs run
  // half vectors, wider ones full vectors with a partial last one.
  const std::pair<Shape, int> tiled[] = {
      {Shape{2, 3, 15, 17}, 2}, {Shape{2, 4, 33, 35}, 2},
      {Shape{3, 2, 13, 11}, 3}, {Shape{2, 2, 10, 64}, 3}};
  for (const auto& [xs, k] : tiled) {
    const PoolAttrs attrs = PoolAttrs::pool2d(kMax, k, k);
    const std::string tag =
        "tiled k" + std::to_string(k) + " " + xs.to_string();
    Tensor x = special_tensor(xs, seed++);
    const Shape ys = pool_output_shape(xs, attrs);
    for (std::int64_t q = 0; q < xs[0] * xs[1]; ++q) {
      for (std::int64_t oh = 0; oh < ys[2]; ++oh) {
        for (std::int64_t ow = oh % 3; ow < ys[3]; ow += 3) {
          for (std::int64_t i = 0; i < k * k; ++i) {
            x[(q * xs[2] + oh * k + i / k) * xs[3] + ow * k + i % k] =
                i % 2 ? std::numeric_limits<float>::quiet_NaN()
                      : -std::numeric_limits<float>::infinity();
          }
        }
      }
    }
    Tensor dy = random_tensor(ys, seed++);
    for (std::int64_t i = 0; i < dy.numel(); i += 2) dy[i] = -0.0f;
    Tensor dx(xs), dx_ref(xs);
    pool_backward(x, dy, dx, attrs, ctx_);
    pool_backward_ref(x, dy, dx_ref, attrs);
    expect_bits(dx, dx_ref, "pool backward " + tag);
  }

  const Shape gs{3, 4, 5, 7};
  const Tensor x = random_tensor(gs, seed++);
  Tensor y(global_avg_pool_output_shape(gs));
  Tensor y_ref(global_avg_pool_output_shape(gs));
  global_avg_pool_forward(x, y, ctx_);
  global_avg_pool_forward_ref(x, y_ref);
  expect_bits(y, y_ref, "global_avg_pool forward");
  const Tensor dy = random_tensor(y.shape(), seed++);
  Tensor dx(gs), dx_ref(gs);
  global_avg_pool_backward(gs, dy, dx, ctx_);
  global_avg_pool_backward_ref(gs, dy, dx_ref);
  expect_bits(dx, dx_ref, "global_avg_pool backward");
}

TEST_P(KernelBitIdentity, EltwiseActivationsDropoutSoftmax) {
  // Big enough to straddle the elementwise/dropout grains (2^14 / 2^13).
  const Shape flat{1 << 16};
  std::uint64_t seed = 2100;
  {
    // NaN, +-0 and an element count off every vector width and grain.
    const Shape odd{(1 << 16) + 13};
    const Tensor x = special_tensor(odd, seed++);
    Tensor y(odd), y_ref(odd);
    relu_forward(x, y, ctx_);
    relu_forward_ref(x, y_ref);
    expect_bits(y, y_ref, "relu forward");
    // The mask is any tensor to the kernel: give it the specials too.
    const Tensor mask = special_tensor(odd, seed++);
    const Tensor dy = special_tensor(odd, seed++);
    Tensor dx(odd), dx_ref(odd);
    relu_backward(mask, dy, dx, ctx_);
    relu_backward_ref(mask, dy, dx_ref);
    expect_bits(dx, dx_ref, "relu backward");
  }
  {
    const Tensor a = random_tensor(flat, seed++);
    const Tensor b = random_tensor(flat, seed++);
    Tensor y(flat), y_ref(flat);
    add_forward(a, b, y, ctx_);
    add_forward_ref(a, b, y_ref);
    expect_bits(y, y_ref, "add forward");
  }
  {
    DropoutAttrs attrs;
    attrs.rate = 0.3f;
    attrs.key = 77;
    const Tensor x = random_tensor(flat, seed++);
    Tensor y(flat), y_ref(flat);
    dropout_forward(x, y, attrs, /*iteration=*/5, ctx_);
    dropout_forward_ref(x, y_ref, attrs, /*iteration=*/5);
    expect_bits(y, y_ref, "dropout forward");
    const Tensor dy = random_tensor(flat, seed++);
    Tensor dx(flat), dx_ref(flat);
    dropout_backward(dy, dx, attrs, /*iteration=*/5, ctx_);
    dropout_backward_ref(dy, dx_ref, attrs, /*iteration=*/5);
    expect_bits(dx, dx_ref, "dropout backward");
  }
  {
    const Shape ls{9, 13};
    const Tensor logits = random_tensor(ls, seed++, -4.0f, 4.0f);
    std::vector<std::int64_t> labels;
    for (std::int64_t n = 0; n < ls[0]; ++n) labels.push_back(n % ls[1]);
    Tensor loss(Shape{1}), loss_ref(Shape{1});
    softmax_xent_forward(logits, labels, loss, ctx_);
    softmax_xent_forward_ref(logits, labels, loss_ref);
    expect_bits(loss, loss_ref, "softmax loss");
    Tensor dloss(Shape{1});
    dloss[0] = 1.0f;
    Tensor dlogits(ls), dlogits_ref(ls);
    softmax_xent_backward(logits, labels, dloss, dlogits, ctx_);
    softmax_xent_backward_ref(logits, labels, dloss, dlogits_ref);
    expect_bits(dlogits, dlogits_ref, "softmax dlogits");
  }
}

// concat/flatten have no scalar *_ref (pure copies); the oracle is the
// serial context.
TEST_P(KernelBitIdentity, ConcatFlattenMatchSerial) {
  KernelContext serial(1);
  std::uint64_t seed = 2500;
  const Tensor a = random_tensor(Shape{2, 3, 4, 4}, seed++);
  const Tensor b = random_tensor(Shape{2, 5, 4, 4}, seed++);
  const std::vector<const Tensor*> inputs{&a, &b};
  const Shape ys = concat_output_shape(inputs);
  Tensor y(ys), y_ref(ys);
  concat_forward(inputs, y, ctx_);
  concat_forward(inputs, y_ref, serial);
  expect_bits(y, y_ref, "concat forward");

  const Tensor dy = random_tensor(ys, seed++);
  Tensor da(a.shape()), db(b.shape()), da_ref(a.shape()), db_ref(b.shape());
  std::vector<Tensor*> douts{&da, &db};
  std::vector<Tensor*> douts_ref{&da_ref, &db_ref};
  concat_backward(dy, douts, ctx_);
  concat_backward(dy, douts_ref, serial);
  expect_bits(da, da_ref, "concat backward da");
  expect_bits(db, db_ref, "concat backward db");

  const Shape xs{4, 3, 5, 5};
  const Tensor x = random_tensor(xs, seed++);
  Tensor f(Shape{4, 75}), f_ref(Shape{4, 75});
  flatten_forward(x, f, ctx_);
  flatten_forward(x, f_ref, serial);
  expect_bits(f, f_ref, "flatten forward");
  const Tensor df = random_tensor(f.shape(), seed++);
  Tensor dx(xs), dx_ref(xs);
  flatten_backward(xs, df, dx, ctx_);
  flatten_backward(xs, df, dx_ref, serial);
  expect_bits(dx, dx_ref, "flatten backward");
}

// Kernels overwrite every element of their outputs and never read one
// first: the data backend hands them device-slab memory that is never
// zero-filled. So outputs that start as garbage (a NaN with a payload,
// -inf, a huge finite value in turn) must come out bit for bit as
// outputs that start at zero, for every kernel and every path.
TEST_P(KernelBitIdentity, OutputsAreOverwrittenNeverRead) {
  using MakeOut = std::function<Tensor(const Shape&)>;
  using Outputs = std::vector<Tensor>;
  const MakeOut zeros = [](const Shape& s) { return Tensor(s); };
  const MakeOut garbage = [](const Shape& s) {
    const float pattern[3] = {std::bit_cast<float>(0x7fa5a5a5u),
                              -std::numeric_limits<float>::infinity(),
                              3e38f};
    Tensor t(s);
    for (std::int64_t i = 0; i < t.numel(); ++i) t[i] = pattern[i % 3];
    return t;
  };
  const auto check = [&](const std::string& what,
                         const std::function<Outputs(const MakeOut&)>& run) {
    const Outputs want = run(zeros);
    const Outputs got = run(garbage);
    ASSERT_EQ(got.size(), want.size()) << what;
    for (std::size_t i = 0; i < got.size(); ++i) {
      expect_bits(got[i], want[i], what + " output " + std::to_string(i));
    }
  };
  std::uint64_t seed = 3100;

  // Direct (stride-1 rows of 16, C = 3 dW on the GEMM), GEMM, grouped
  // and 3-D convolutions.
  const std::pair<Shape, ConvAttrs> convs[] = {
      {Shape{2, 16, 8, 16}, ConvAttrs::conv2d(12, 3, 1, 1)},
      {Shape{2, 3, 6, 16}, ConvAttrs::conv2d(7, 3, 1, 1)},
      {Shape{3, 4, 9, 9}, ConvAttrs::conv2d(6, 3, 2, 1)},
      {Shape{2, 4, 8, 8}, ConvAttrs::conv2d(4, 3, 1, 1, 2)},
      {Shape{2, 2, 5, 5, 5}, ConvAttrs::conv3d(3, 3, 1, 1)},
  };
  for (const auto& [xs, attrs] : convs) {
    const Tensor x = random_tensor(xs, seed++);
    const Tensor w = random_tensor(conv_weight_shape(xs, attrs), seed++);
    const Tensor bias = random_tensor(Shape{attrs.out_channels}, seed++);
    const Shape ys = conv_output_shape(xs, attrs);
    const Tensor dy = random_tensor(ys, seed++);
    check("conv " + xs.to_string(), [&](const MakeOut& out) {
      Outputs o{out(ys), out(xs), out(w.shape()), out(bias.shape())};
      conv_forward(x, w, &bias, o[0], attrs, ctx_);
      conv_backward(x, w, dy, &o[1], o[2], &o[3], attrs, ctx_);
      return o;
    });
  }

  {
    FcAttrs attrs;
    attrs.out_features = 17;
    const Tensor x = random_tensor(Shape{5, 33}, seed++);
    const Tensor w = random_tensor(Shape{17, 33}, seed++);
    const Tensor bias = random_tensor(Shape{17}, seed++);
    const Tensor dy = random_tensor(Shape{5, 17}, seed++);
    check("fc", [&](const MakeOut& out) {
      Outputs o{out(dy.shape()), out(x.shape()), out(w.shape()),
                out(bias.shape())};
      fc_forward(x, w, &bias, o[0], attrs, ctx_);
      fc_backward(x, w, dy, &o[1], o[2], &o[3], attrs, ctx_);
      return o;
    });
  }

  for (const Shape& xs : {Shape{4, 5, 6, 7}, Shape{2, 16, 32, 33}}) {
    const Tensor x = random_tensor(xs, seed++);
    const Tensor gamma = random_tensor(Shape{xs[1]}, seed++, 0.5f, 1.5f);
    const Tensor beta = random_tensor(Shape{xs[1]}, seed++);
    const Tensor dy = random_tensor(xs, seed++);
    check("batchnorm " + xs.to_string(), [&](const MakeOut& out) {
      Outputs o{out(xs), out(xs), out(gamma.shape()), out(gamma.shape())};
      batchnorm_forward(x, gamma, beta, o[0], BatchNormAttrs{}, ctx_);
      batchnorm_backward(x, gamma, dy, &o[1], o[2], o[3], BatchNormAttrs{},
                         ctx_);
      return o;
    });
  }

  // 2-D max pooling's padded-plane path, the generic window walk (3-D
  // and average) and global average pooling.
  const std::pair<Shape, PoolAttrs> pools[] = {
      {Shape{2, 4, 16, 16}, PoolAttrs::pool2d(PoolMode::kMax, 3, 1, 1)},
      {Shape{2, 3, 15, 15}, PoolAttrs::pool2d(PoolMode::kMax, 2, 2)},
      {Shape{1, 2, 6, 6, 6}, PoolAttrs::pool3d(PoolMode::kMax, 2, 2)},
      {Shape{2, 3, 9, 9}, PoolAttrs::pool2d(PoolMode::kAvg, 3, 2, 1)},
  };
  for (const auto& [xs, attrs] : pools) {
    const Tensor x = random_tensor(xs, seed++);
    const Shape ys = pool_output_shape(xs, attrs);
    const Tensor dy = random_tensor(ys, seed++);
    check("pool " + xs.to_string(), [&](const MakeOut& out) {
      Outputs o{out(ys), out(xs)};
      pool_forward(x, o[0], attrs, ctx_);
      pool_backward(x, dy, o[1], attrs, ctx_);
      return o;
    });
  }
  {
    const Shape xs{3, 4, 5, 7};
    const Tensor x = random_tensor(xs, seed++);
    const Shape ys = global_avg_pool_output_shape(xs);
    const Tensor dy = random_tensor(ys, seed++);
    check("global_avg_pool", [&](const MakeOut& out) {
      Outputs o{out(ys), out(xs)};
      global_avg_pool_forward(x, o[0], ctx_);
      global_avg_pool_backward(xs, dy, o[1], ctx_);
      return o;
    });
  }

  {
    const Shape odd{(1 << 16) + 13};
    const Tensor a = random_tensor(odd, seed++);
    const Tensor b = random_tensor(odd, seed++);
    const Tensor dy = random_tensor(odd, seed++);
    DropoutAttrs drop;
    drop.rate = 0.3f;
    drop.key = 77;
    check("elementwise", [&](const MakeOut& out) {
      Outputs o;
      for (int i = 0; i < 5; ++i) o.push_back(out(odd));
      relu_forward(a, o[0], ctx_);
      relu_backward(a, dy, o[1], ctx_);
      add_forward(a, b, o[2], ctx_);
      dropout_forward(a, o[3], drop, /*iteration=*/5, ctx_);
      dropout_backward(dy, o[4], drop, /*iteration=*/5, ctx_);
      return o;
    });
  }

  {
    const Shape ls{9, 13};
    const Tensor logits = random_tensor(ls, seed++, -4.0f, 4.0f);
    std::vector<std::int64_t> labels;
    for (std::int64_t n = 0; n < ls[0]; ++n) labels.push_back(n % ls[1]);
    Tensor dloss(Shape{1});
    dloss[0] = 1.0f;
    check("softmax", [&](const MakeOut& out) {
      Outputs o{out(Shape{1}), out(ls)};
      softmax_xent_forward(logits, labels, o[0], ctx_);
      softmax_xent_backward(logits, labels, dloss, o[1], ctx_);
      return o;
    });
  }

  {
    const Tensor a = random_tensor(Shape{2, 3, 4, 4}, seed++);
    const Tensor b = random_tensor(Shape{2, 5, 4, 4}, seed++);
    const std::vector<const Tensor*> inputs{&a, &b};
    const Shape ys = concat_output_shape(inputs);
    const Tensor dy = random_tensor(ys, seed++);
    const Shape xs{4, 3, 5, 5};
    const Tensor x = random_tensor(xs, seed++);
    const Tensor df = random_tensor(Shape{4, 75}, seed++);
    check("concat flatten", [&](const MakeOut& out) {
      Outputs o{out(ys), out(a.shape()), out(b.shape()), out(df.shape()),
                out(xs)};
      concat_forward(inputs, o[0], ctx_);
      std::vector<Tensor*> douts{&o[1], &o[2]};
      concat_backward(dy, douts, ctx_);
      flatten_forward(x, o[3], ctx_);
      flatten_backward(xs, df, o[4], ctx_);
      return o;
    });
  }
}

// ---------- parallel_for scheduling primitive ----------

TEST(ParallelFor, NullPoolRunsInlineOnce) {
  int calls = 0;
  parallel_for(nullptr, 100, 1,
               [&](std::int64_t i0, std::int64_t i1, int slot) {
                 ++calls;
                 EXPECT_EQ(i0, 0);
                 EXPECT_EQ(i1, 100);
                 EXPECT_EQ(slot, 0);
               });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, EmptyRangeNeverCalls) {
  KernelContext ctx(4);
  int calls = 0;
  parallel_for(ctx.pool(), 0, 1,
               [&](std::int64_t, std::int64_t, int) { ++calls; });
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(parallel_blocks(ctx.pool(), 0, 1), 0);
}

TEST(ParallelFor, GrainLargerThanRangeRunsInline) {
  KernelContext ctx(4);
  int calls = 0;
  parallel_for(ctx.pool(), 10, 100,
               [&](std::int64_t i0, std::int64_t i1, int slot) {
                 ++calls;
                 EXPECT_EQ(i0, 0);
                 EXPECT_EQ(i1, 10);
                 EXPECT_EQ(slot, 0);
               });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, BlocksCoverRangeExactlyWithDenseSlots) {
  KernelContext ctx(8);
  const std::int64_t n = 1000;
  const std::int64_t grain = 7;
  std::vector<int> hits(static_cast<std::size_t>(n), 0);
  std::vector<int> slots;
  std::mutex mu;
  parallel_for(ctx.pool(), n, grain,
               [&](std::int64_t i0, std::int64_t i1, int slot) {
                 std::lock_guard<std::mutex> lock(mu);
                 ASSERT_LT(i0, i1);
                 slots.push_back(slot);
                 for (std::int64_t i = i0; i < i1; ++i) {
                   ++hits[static_cast<std::size_t>(i)];
                 }
               });
  for (std::int64_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[static_cast<std::size_t>(i)], 1)
        << "index " << i << " covered " << hits[static_cast<std::size_t>(i)]
        << " times";
  }
  const int blocks = parallel_blocks(ctx.pool(), n, grain);
  ASSERT_EQ(static_cast<int>(slots.size()), blocks);
  std::sort(slots.begin(), slots.end());
  for (int s = 0; s < blocks; ++s) EXPECT_EQ(slots[static_cast<std::size_t>(s)], s);
}

TEST(ParallelFor, BlockCountRespectsGrainAndPool) {
  KernelContext ctx(4);
  // ceil(n/grain) caps the fan-out below the pool size...
  EXPECT_EQ(parallel_blocks(ctx.pool(), 10, 5), 2);
  // ...and the pool size caps it when the range is large.
  EXPECT_EQ(parallel_blocks(ctx.pool(), 1 << 20, 1), ctx.threads());
  // A null pool is always one inline block.
  EXPECT_EQ(parallel_blocks(nullptr, 1 << 20, 1), 1);
}

TEST(ParallelFor, ExceptionsPropagateToCaller) {
  KernelContext ctx(4);
  EXPECT_THROW(
      parallel_for(ctx.pool(), 1 << 16, 1,
                   [&](std::int64_t, std::int64_t, int) {
                     throw std::runtime_error("boom");
                   }),
      std::runtime_error);
}

// ---------- KernelContext scratch arenas ----------

TEST(KernelContextScratch, SlotsAndArenasNeverAlias) {
  KernelContext ctx(2);
  float* s0c = ctx.scratch(0, KernelContext::kColArena, 64);
  float* s1c = ctx.scratch(1, KernelContext::kColArena, 64);
  float* s0g = ctx.scratch(0, KernelContext::kGemmArena, 64);
  EXPECT_NE(s0c, s1c);
  EXPECT_NE(s0c, s0g);
  // Growth returns a usable buffer of the new size; shrinking requests
  // keep the old capacity (no reallocation churn across kernel calls).
  s0c[63] = 1.0f;
  float* grown = ctx.scratch(0, KernelContext::kColArena, 1 << 16);
  grown[(1 << 16) - 1] = 2.0f;
  float* shrunk = ctx.scratch(0, KernelContext::kColArena, 8);
  EXPECT_EQ(shrunk, grown);
}

TEST(KernelContextScratch, SerialContextIsSingleThreaded) {
  KernelContext& s = KernelContext::serial();
  EXPECT_EQ(s.threads(), 1);
  EXPECT_EQ(s.pool(), nullptr);
}

}  // namespace
}  // namespace pooch::kernels
