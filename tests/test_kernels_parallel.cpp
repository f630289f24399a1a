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
#include <cstdint>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <string>
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

void expect_bits(const Tensor& got, const Tensor& want,
                 const std::string& what) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  for (std::int64_t i = 0; i < got.numel(); ++i) {
    std::uint32_t gb = 0, wb = 0;
    const float gv = got[i], wv = want[i];
    std::memcpy(&gb, &gv, sizeof(gb));
    std::memcpy(&wb, &wv, sizeof(wb));
    ASSERT_EQ(gb, wb) << what << ": first bit difference at flat index " << i
                      << " (" << gv << " vs " << wv << ")";
  }
}

// ---------- fast-vs-ref bit identity, parameterized over thread count ----

class KernelBitIdentity : public ::testing::TestWithParam<int> {
 protected:
  KernelBitIdentity() : ctx_(GetParam()) {}
  KernelContext ctx_;
};

INSTANTIATE_TEST_SUITE_P(Threads, KernelBitIdentity,
                         ::testing::Values(1, 2, 8),
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
  const Case cases[] = {{1, 1, 1},      {3, 7, 5},      {4, 16, 16},
                        {5, 17, 33},    {64, 256, 240}, {67, 129, 241},
                        {2, 300, 1},    {12, 300, 16},  {13, 300, 16},
                        {25, 513, 16},  {97, 300, 40}};
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

    got = init;
    want = init;
    matmul_acc(a.data(), b.data(), got.data(), c.m, c.k, c.n, ctx_);
    matmul_acc_ref(a.data(), b.data(), want.data(), c.m, c.k, c.n);
    expect_bits(got, want, "matmul_acc " + tag);

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

TEST_P(KernelBitIdentity, ConvForwardBackward) {
  struct Case {
    const char* name;
    Shape xs;
    ConvAttrs attrs;
    bool want_dx;
  };
  // Conv runs one GEMM per group over a chunk of samples whose column
  // blocks sit side by side, so the corpus puts sample boundaries inside
  // 16-wide column panels and chunk boundaries inside the batch.
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
      // (144 + 5) x 1024 scratch floats per sample: more samples than one
      // chunk holds, so dW accumulates across chunks.
      {"chunked", Shape{9, 16, 32, 32}, ConvAttrs::conv2d(5, 3, 1, 1), true},
  };
  std::uint64_t seed = 500;
  for (const Case& c : cases) {
    const Tensor x = random_tensor(c.xs, seed++);
    const Tensor w = random_tensor(conv_weight_shape(c.xs, c.attrs), seed++);
    const Shape ys = conv_output_shape(c.xs, c.attrs);
    Tensor bias;
    if (c.attrs.has_bias) {
      bias = random_tensor(Shape{c.attrs.out_channels}, seed++);
    }
    const Tensor* bp = c.attrs.has_bias ? &bias : nullptr;

    Tensor y(ys), y_ref(ys);
    conv_forward(x, w, bp, y, c.attrs, ctx_);
    conv_forward_ref(x, w, bp, y_ref, c.attrs);
    expect_bits(y, y_ref, std::string("conv_forward ") + c.name);

    const Tensor dy = random_tensor(ys, seed++);
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
    expect_bits(dw, dw_ref, std::string("conv dw ") + c.name);
    if (c.want_dx) expect_bits(dx, dx_ref, std::string("conv dx ") + c.name);
    if (c.attrs.has_bias) {
      expect_bits(dbias, dbias_ref, std::string("conv dbias ") + c.name);
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
  const Shape shapes[] = {Shape{4, 5, 6, 7}, Shape{2, 3, 4, 4, 4},
                          Shape{7, 3}};
  std::uint64_t seed = 1300;
  for (const Shape& xs : shapes) {
    const std::int64_t channels = xs[1];
    BatchNormAttrs attrs;
    const Tensor x = random_tensor(xs, seed++);
    const Tensor gamma = random_tensor(Shape{channels}, seed++, 0.5f, 1.5f);
    const Tensor beta = random_tensor(Shape{channels}, seed++);
    Tensor y(xs), y_ref(xs);
    batchnorm_forward(x, gamma, beta, y, attrs, ctx_);
    batchnorm_forward_ref(x, gamma, beta, y_ref, attrs);
    expect_bits(y, y_ref, "batchnorm forward");

    const Tensor dy = random_tensor(xs, seed++);
    Tensor dx(xs), dx_ref(xs);
    Tensor dgamma(Shape{channels}), dgamma_ref(Shape{channels});
    Tensor dbeta(Shape{channels}), dbeta_ref(Shape{channels});
    batchnorm_backward(x, gamma, dy, &dx, dgamma, dbeta, attrs, ctx_);
    batchnorm_backward_ref(x, gamma, dy, &dx_ref, dgamma_ref, dbeta_ref,
                           attrs);
    expect_bits(dx, dx_ref, "batchnorm dx");
    expect_bits(dgamma, dgamma_ref, "batchnorm dgamma");
    expect_bits(dbeta, dbeta_ref, "batchnorm dbeta");
  }
}

TEST_P(KernelBitIdentity, Pooling) {
  struct Case {
    const char* name;
    Shape xs;
    PoolAttrs attrs;
  };
  const Case cases[] = {
      {"max2d_pad", Shape{2, 3, 9, 9}, PoolAttrs::pool2d(PoolMode::kMax, 3, 2, 1)},
      {"avg2d", Shape{3, 2, 8, 8}, PoolAttrs::pool2d(PoolMode::kAvg, 2, 2)},
      {"max3d", Shape{1, 2, 6, 6, 6}, PoolAttrs::pool3d(PoolMode::kMax, 2, 2)},
  };
  std::uint64_t seed = 1700;
  for (const Case& c : cases) {
    const Tensor x = random_tensor(c.xs, seed++);
    const Shape ys = pool_output_shape(c.xs, c.attrs);
    Tensor y(ys), y_ref(ys);
    pool_forward(x, y, c.attrs, ctx_);
    pool_forward_ref(x, y_ref, c.attrs);
    expect_bits(y, y_ref, std::string("pool forward ") + c.name);

    const Tensor dy = random_tensor(ys, seed++);
    Tensor dx(c.xs), dx_ref(c.xs);
    pool_backward(x, dy, dx, c.attrs, ctx_);
    pool_backward_ref(x, dy, dx_ref, c.attrs);
    expect_bits(dx, dx_ref, std::string("pool backward ") + c.name);
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
    const Tensor x = random_tensor(flat, seed++);
    Tensor y(flat), y_ref(flat);
    relu_forward(x, y, ctx_);
    relu_forward_ref(x, y_ref);
    expect_bits(y, y_ref, "relu forward");
    const Tensor dy = random_tensor(flat, seed++);
    Tensor dx(flat), dx_ref(flat);
    relu_backward(y, dy, dx, ctx_);
    relu_backward_ref(y_ref, dy, dx_ref);
    expect_bits(dx, dx_ref, "relu backward");
  }
  {
    const Tensor a = random_tensor(flat, seed++);
    const Tensor b = random_tensor(flat, seed++);
    Tensor y(flat), y_ref(flat);
    add_forward(a, b, y, ctx_);
    add_forward_ref(a, b, y_ref);
    expect_bits(y, y_ref, "add forward");
    Tensor da(flat), db(flat), da_ref(flat), db_ref(flat);
    add_backward(y, da, db, ctx_);
    add_backward_ref(y_ref, da_ref, db_ref);
    expect_bits(da, da_ref, "add backward da");
    expect_bits(db, db_ref, "add backward db");
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
