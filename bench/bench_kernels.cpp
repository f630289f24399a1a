// Kernel-layer throughput: blocked/vectorized/multithreaded kernels vs
// the scalar *_ref oracles.
//
//   build/bench/bench_kernels [output.json]
//
// Measures the numeric workhorses on representative shapes — a square
// GEMM, a ResNet-50 mid-network convolution, an AlexNet fully-connected
// layer, a 3-D ResNeXt convolution, and the late-stage ResNet-50
// convolutions whose outputs are only 2x2 to 16x16 — across a thread
// sweep, then skinny GEMMs, every Inception-toy conv and every other
// stride-1 ResNet-50 conv at 1, 2 and 4 threads (the shapes that pick
// between the direct and the im2col + GEMM conv paths), and ResNet-50's
// strided convs, each conv as three rows (conv2d_fwd, conv2d_dx where
// the model takes dX, conv2d_dw with dbias), then the memory-bound
// kernels (batch norm, ReLU and 2-D max pooling, forward and backward) at
// the Inception toy's and ResNet-50's shapes at 1, 2 and 4 threads, and
// writes a bench::Report (default BENCH_kernels.json) keyed on (kernel,
// shape, threads) and gated on `seconds`, lower is better: memory-bound
// rows do no FLOPs, and a row's FLOPs are fixed per key, so seconds gives
// the compute rows the verdicts gflops would. Every configuration is
// verified bit-identical to the reference before it is timed: a
// fast-but-wrong kernel aborts the bench.
//
// Times are best-of-N wall clock (first rep doubles as warm-up; N is at
// least 3 and grows until the reps of a fast kernel add up to 50 ms);
// `speedup` is ref_seconds / seconds for the same shape. Memory-bound
// rows carry `gbps`: the bytes the kernel must read and write at least,
// each tensor once, per second.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "kernels/activations.hpp"
#include "kernels/batchnorm.hpp"
#include "kernels/conv.hpp"
#include "kernels/fc.hpp"
#include "kernels/kernel_context.hpp"
#include "kernels/matmul.hpp"
#include "kernels/pool.hpp"
#include "common/rng.hpp"
#include "tensor/tensor_ops.hpp"

namespace pooch::kernels {
namespace {

// Best of at least `reps` calls, repeated until they add up to
// `min_total` seconds: a sub-millisecond kernel on a shared host needs
// many more tries than three to see one undisturbed run.
double time_best(const std::function<void()>& fn, int reps,
                 double min_total = 0.0) {
  double best = 1e300;
  double total = 0.0;
  for (int r = 0; r < reps || total < min_total; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    const double s = std::chrono::duration<double>(t1 - t0).count();
    best = std::min(best, s);
    total += s;
  }
  return best;
}

Tensor random_tensor(const Shape& shape, std::uint64_t seed) {
  Tensor t(shape);
  Rng rng(seed);
  fill_uniform(t, rng, -1.0f, 1.0f);
  return t;
}

void check_identical(const Tensor& got, const Tensor& want,
                     const char* kernel) {
  if (got.shape() == want.shape() &&
      std::memcmp(got.data(), want.data(),
                  sizeof(float) * static_cast<std::size_t>(got.numel())) ==
          0) {
    return;
  }
  std::fprintf(stderr, "%s: fast kernel is not bit-identical to ref\n",
               kernel);
  std::exit(1);
}

/// One benchmark case: `fast` runs the blocked kernel under a context and
/// `ref` the scalar oracle; each (fast, ref) pair in `outs` must then
/// hold identical bits.
struct Case {
  std::string kernel;
  std::string shape;
  double flops = 0.0;
  double bytes = 0.0;  // minimum traffic of memory-bound kernels
  std::function<void(KernelContext&)> fast;
  std::function<void()> ref;
  std::vector<std::pair<const Tensor*, const Tensor*>> outs;
};

void run_case(const Case& c, const std::vector<int>& thread_sweep,
              bench::Report& report) {
  const double ref_seconds = time_best(c.ref, 2);
  for (int threads : thread_sweep) {
    KernelContext ctx(threads);
    c.fast(ctx);
    for (const auto& [got, want] : c.outs) {
      check_identical(*got, *want, c.kernel.c_str());
    }
    const double seconds = time_best([&] { c.fast(ctx); }, 3, 0.05);
    const double gflops = c.flops / seconds * 1e-9;
    const double gbps = c.bytes / seconds * 1e-9;
    const double speedup = ref_seconds / seconds;
    obs::json::Object row;
    row["kernel"] = c.kernel;
    row["shape"] = c.shape;
    row["threads"] = threads;
    row["seconds"] = seconds;
    row["gflops"] = gflops;
    if (gbps > 0.0) row["gbps"] = gbps;  // memory-bound rows only
    row["ref_seconds"] = ref_seconds;
    row["speedup"] = speedup;
    report.add(std::move(row));
    std::printf("| %-14s | %-22s | %7d | %9.6f | %7.2f | %7.2f | %9.6f | "
                "%6.2fx |\n",
                c.kernel.c_str(), c.shape.c_str(), threads, seconds, gflops,
                gbps, ref_seconds, speedup);
  }
}

double conv_flops(const Shape& xs, const ConvAttrs& a) {
  const Shape ys = conv_output_shape(xs, a);
  double outs = 1.0;
  for (int d = 0; d < ys.rank(); ++d) outs *= static_cast<double>(ys[d]);
  const double kvol = static_cast<double>(a.kernel[0] * a.kernel[1] *
                                          a.kernel[2]);
  const double cin_per_group = static_cast<double>(xs[1] / a.groups);
  return 2.0 * outs * cin_per_group * kvol;
}

struct ConvPass {
  const char* shape;
  Shape xs;
  ConvAttrs attrs;
  bool dx = true;  // false for a conv on the network input
};

// One conv as training runs it, part by part: the forward (y), dX where
// the model takes it, and dW with dbias when the conv has a bias. The
// model's backward is the dX and dW rows together.
void run_conv_pass(const ConvPass& p, const std::vector<int>& thread_sweep,
                   std::uint64_t& seed, bench::Report& report) {
  const ConvAttrs& attrs = p.attrs;
  const Shape ys = conv_output_shape(p.xs, attrs);
  const Tensor x = random_tensor(p.xs, seed++);
  const Tensor w = random_tensor(conv_weight_shape(p.xs, attrs), seed++);
  const Tensor dy = random_tensor(ys, seed++);
  Tensor bias, db, db_ref;
  if (attrs.has_bias) {
    bias = random_tensor(Shape{attrs.out_channels}, seed++);
    db = Tensor(bias.shape());
    db_ref = Tensor(bias.shape());
  }
  const Tensor* bp = attrs.has_bias ? &bias : nullptr;
  Tensor* dbp = attrs.has_bias ? &db : nullptr;
  Tensor* dbp_ref = attrs.has_bias ? &db_ref : nullptr;
  Tensor y(ys), y_ref(ys);
  Tensor dx(p.xs), dx_ref(p.xs);
  Tensor dw(w.shape()), dw_ref(w.shape());
  const double flops = conv_flops(p.xs, attrs);

  Case fwd;
  fwd.kernel = "conv2d_fwd";
  fwd.shape = p.shape;
  fwd.flops = flops;
  fwd.fast = [&](KernelContext& ctx) { conv_forward(x, w, bp, y, attrs, ctx); };
  fwd.ref = [&] { conv_forward_ref(x, w, bp, y_ref, attrs); };
  fwd.outs = {{&y, &y_ref}};
  run_case(fwd, thread_sweep, report);

  if (p.dx) {
    Case bwd_data;
    bwd_data.kernel = "conv2d_dx";
    bwd_data.shape = p.shape;
    bwd_data.flops = flops;
    bwd_data.fast = [&](KernelContext& ctx) {
      conv_backward(x, w, dy, &dx, nullptr, nullptr, attrs, ctx);
    };
    bwd_data.ref = [&] {
      conv_backward_ref(x, w, dy, &dx_ref, dw_ref, nullptr, attrs);
    };
    bwd_data.outs = {{&dx, &dx_ref}};
    run_case(bwd_data, thread_sweep, report);
  }

  Case bwd_weights;
  bwd_weights.kernel = "conv2d_dw";
  bwd_weights.shape = p.shape;
  bwd_weights.flops = flops;
  bwd_weights.fast = [&](KernelContext& ctx) {
    conv_backward(x, w, dy, nullptr, &dw, dbp, attrs, ctx);
  };
  bwd_weights.ref = [&] {
    conv_backward_ref(x, w, dy, nullptr, dw_ref, dbp_ref, attrs);
  };
  bwd_weights.outs = {{&dw, &dw_ref}};
  if (attrs.has_bias) bwd_weights.outs.push_back({&db, &db_ref});
  run_case(bwd_weights, thread_sweep, report);
}

// A ResNet conv: no bias, since it feeds batch norm.
ConvAttrs no_bias(ConvAttrs a) {
  a.has_bias = false;
  return a;
}

int run(int argc, char** argv) {
  const std::vector<int> sweep{1, 2, 4, 8};
  bench::Report report("kernels", {"kernel", "shape", "threads"}, "seconds",
                       bench::Report::Better::kLower);
  std::printf("| kernel         | shape                  | threads | "
              "seconds   | gflops  | gbps    | ref s     | speedup |\n"
              "|----------------|------------------------|---------|"
              "-----------|---------|---------|-----------|---------|\n");

  // Square GEMM — the layer every conv/fc call funnels into.
  {
    const std::int64_t m = 512, k = 512, n = 512;
    const Tensor a = random_tensor(Shape{m, k}, 1);
    const Tensor b = random_tensor(Shape{k, n}, 2);
    Tensor c(Shape{m, n});
    Tensor c_ref(Shape{m, n});
    matmul_ref(a.data(), b.data(), c_ref.data(), m, k, n);
    Case cs;
    cs.kernel = "matmul";
    cs.shape = "512x512x512";
    cs.flops = 2.0 * static_cast<double>(m) * k * n;
    cs.fast = [&](KernelContext& ctx) {
      matmul(a.data(), b.data(), c.data(), m, k, n, ctx);
    };
    cs.ref = [&] { matmul_ref(a.data(), b.data(), c_ref.data(), m, k, n); };
    cs.outs = {{&c, &c_ref}};
    run_case(cs, sweep, report);
  }

  // ResNet-50 conv3x3 at 14x14 (conv4_x block shape, reduced batch).
  {
    const Shape xs{4, 256, 14, 14};
    const ConvAttrs attrs = ConvAttrs::conv2d(256, 3, 1, 1);
    const Tensor x = random_tensor(xs, 3);
    const Tensor w = random_tensor(conv_weight_shape(xs, attrs), 4);
    const Tensor bias = random_tensor(Shape{attrs.out_channels}, 5);
    Tensor y(conv_output_shape(xs, attrs));
    Tensor y_ref(conv_output_shape(xs, attrs));
    conv_forward_ref(x, w, &bias, y_ref, attrs);
    Case cs;
    cs.kernel = "conv2d_r50";
    cs.shape = "4x256x14x14 k3";
    cs.flops = conv_flops(xs, attrs);
    cs.fast = [&](KernelContext& ctx) {
      conv_forward(x, w, &bias, y, attrs, ctx);
    };
    cs.ref = [&] { conv_forward_ref(x, w, &bias, y_ref, attrs); };
    cs.outs = {{&y, &y_ref}};
    run_case(cs, sweep, report);
  }

  // AlexNet fc6: the big dense layer (9216 -> 4096), reduced batch.
  {
    const std::int64_t batch = 16, in_f = 9216, out_f = 4096;
    FcAttrs attrs;
    attrs.out_features = out_f;
    const Tensor x = random_tensor(Shape{batch, in_f}, 6);
    const Tensor w = random_tensor(Shape{out_f, in_f}, 7);
    const Tensor bias = random_tensor(Shape{out_f}, 8);
    Tensor y(Shape{batch, out_f});
    Tensor y_ref(Shape{batch, out_f});
    fc_forward_ref(x, w, &bias, y_ref, attrs);
    Case cs;
    cs.kernel = "fc_alexnet";
    cs.shape = "16x9216x4096";
    cs.flops = 2.0 * static_cast<double>(batch) * in_f * out_f;
    cs.fast = [&](KernelContext& ctx) {
      fc_forward(x, w, &bias, y, attrs, ctx);
    };
    cs.ref = [&] { fc_forward_ref(x, w, &bias, y_ref, attrs); };
    cs.outs = {{&y, &y_ref}};
    run_case(cs, sweep, report);
  }

  // 3-D ResNeXt-style convolution (the paper's flagship workload).
  {
    const Shape xs{1, 64, 4, 14, 14};
    const ConvAttrs attrs = ConvAttrs::conv3d(64, 3, 1, 1);
    const Tensor x = random_tensor(xs, 9);
    const Tensor w = random_tensor(conv_weight_shape(xs, attrs), 10);
    const Tensor bias = random_tensor(Shape{attrs.out_channels}, 11);
    Tensor y(conv_output_shape(xs, attrs));
    Tensor y_ref(conv_output_shape(xs, attrs));
    conv_forward_ref(x, w, &bias, y_ref, attrs);
    Case cs;
    cs.kernel = "conv3d_rx";
    cs.shape = "1x64x4x14x14 k3";
    cs.flops = conv_flops(xs, attrs);
    cs.fast = [&](KernelContext& ctx) {
      conv_forward(x, w, &bias, y, attrs, ctx);
    };
    cs.ref = [&] { conv_forward_ref(x, w, &bias, y_ref, attrs); };
    cs.outs = {{&y, &y_ref}};
    run_case(cs, sweep, report);
  }

  // Late-stage ResNet-50 convolutions (b4, 64x64 input), forward and
  // backward: outputs of 2x2 to 16x16, so one sample's GEMM would be only
  // 4 to 256 columns wide.
  const ConvPass passes[] = {
      {"4x512x2x2 k3", Shape{4, 512, 2, 2},
       no_bias(ConvAttrs::conv2d(512, 3, 1, 1))},
      {"4x256x4x4 k3", Shape{4, 256, 4, 4},
       no_bias(ConvAttrs::conv2d(256, 3, 1, 1))},
      {"4x64x16x16 k1", Shape{4, 64, 16, 16},
       no_bias(ConvAttrs::conv2d(256, 1))},
  };
  std::uint64_t seed = 12;
  for (const ConvPass& p : passes) run_conv_pass(p, sweep, seed, report);

  // Skinny shapes: one side of C is a few register tiles wide, so a
  // split over row panels leaves threads idle and a packed panel is read
  // only once. 8x800x512 is the forward GEMM of the Inception toy's first
  // 5x5 branch (8 output channels over a two-sample chunk), and
  // 12x800x512 the same with the 12 output channels of its second;
  // matmul_bt 8x512x800 is the first branch's dW GEMM. A ResNet-50 3x3
  // conv with 512 channels on 2x2 planes runs the same weights through
  // three GEMMs of equal FLOPs: 512x4608x16 forward, matmul_bt
  // 512x16x4608 for dW and matmul_at 4608x512x16 for dX. matmul_at
  // 1000x4x2048 is the dW of its fc layer at batch 4.
  const std::vector<int> skinny_sweep{1, 2, 4};
  struct MatmulShape {
    const char* kernel;
    std::int64_t m, k, n;
  };
  const MatmulShape skinny[] = {{"matmul", 8, 800, 512},
                                {"matmul", 12, 800, 512},
                                {"matmul", 512, 4608, 16},
                                {"matmul_bt", 8, 512, 800},
                                {"matmul_bt", 512, 16, 4608},
                                {"matmul_at", 4608, 512, 16},
                                {"matmul_at", 1000, 4, 2048}};
  for (const MatmulShape& s : skinny) {
    const std::string kernel = s.kernel;
    const bool at = kernel == "matmul_at";
    const bool bt = kernel == "matmul_bt";
    const Tensor a =
        random_tensor(at ? Shape{s.k, s.m} : Shape{s.m, s.k}, seed++);
    const Tensor b =
        random_tensor(bt ? Shape{s.n, s.k} : Shape{s.k, s.n}, seed++);
    Tensor c(Shape{s.m, s.n});
    Tensor c_ref(Shape{s.m, s.n});
    const auto fast_fn = at ? matmul_at : bt ? matmul_bt : matmul;
    const auto ref_fn = at ? matmul_at_ref : bt ? matmul_bt_ref : matmul_ref;
    Case cs;
    cs.kernel = kernel;
    cs.shape = std::to_string(s.m) + "x" + std::to_string(s.k) + "x" +
               std::to_string(s.n);
    cs.flops = 2.0 * static_cast<double>(s.m) * s.k * s.n;
    cs.fast = [&](KernelContext& ctx) {
      fast_fn(a.data(), b.data(), c.data(), s.m, s.k, s.n, ctx);
    };
    cs.ref = [&] { ref_fn(a.data(), b.data(), c_ref.data(), s.m, s.k, s.n); };
    cs.outs = {{&c, &c_ref}};
    run_case(cs, skinny_sweep, report);
  }

  // Every conv of the Inception toy (b32, 32x32 input), forward and
  // backward with bias as in the model: the stem (no dX: it reads the
  // network input), then each module's 1x1, 3x3, 5x5 and
  // pool-projection 1x1 branches.
  const ConvPass inception[] = {
      {"32x32x16x16 k5 oc8", Shape{32, 32, 16, 16},
       ConvAttrs::conv2d(8, 5, 1, 2)},
      {"32x32x16x16 k3 oc32", Shape{32, 32, 16, 16},
       ConvAttrs::conv2d(32, 3, 1, 1)},
      {"32x3x32x32 k3 oc32", Shape{32, 3, 32, 32},
       ConvAttrs::conv2d(32, 3, 1, 1), /*dx=*/false},
      {"32x32x16x16 k1 oc16", Shape{32, 32, 16, 16},
       ConvAttrs::conv2d(16, 1, 1, 0)},
      {"32x32x16x16 k1 oc8", Shape{32, 32, 16, 16},
       ConvAttrs::conv2d(8, 1, 1, 0)},
      {"32x64x8x8 k1 oc32", Shape{32, 64, 8, 8},
       ConvAttrs::conv2d(32, 1, 1, 0)},
      {"32x64x8x8 k3 oc48", Shape{32, 64, 8, 8},
       ConvAttrs::conv2d(48, 3, 1, 1)},
      {"32x64x8x8 k5 oc12", Shape{32, 64, 8, 8},
       ConvAttrs::conv2d(12, 5, 1, 2)},
      {"32x64x8x8 k1 oc12", Shape{32, 64, 8, 8},
       ConvAttrs::conv2d(12, 1, 1, 0)},
  };
  for (const ConvPass& p : inception) {
    run_conv_pass(p, skinny_sweep, seed, report);
  }

  // The other stride-1 convs of ResNet-50 (b4, 64x64 input), stage by
  // stage: 16x16, 8x8, 4x4 and 2x2 planes. With the late-stage rows
  // above, these cover every stride-1 layer shape of the model.
  const ConvPass resnet[] = {
      {"4x64x16x16 k1 oc64", Shape{4, 64, 16, 16},
       no_bias(ConvAttrs::conv2d(64, 1))},
      {"4x64x16x16 k3 oc64", Shape{4, 64, 16, 16},
       no_bias(ConvAttrs::conv2d(64, 3, 1, 1))},
      {"4x256x16x16 k1 oc64", Shape{4, 256, 16, 16},
       no_bias(ConvAttrs::conv2d(64, 1))},
      {"4x256x16x16 k1 oc128", Shape{4, 256, 16, 16},
       no_bias(ConvAttrs::conv2d(128, 1))},
      {"4x128x8x8 k3 oc128", Shape{4, 128, 8, 8},
       no_bias(ConvAttrs::conv2d(128, 3, 1, 1))},
      {"4x128x8x8 k1 oc512", Shape{4, 128, 8, 8},
       no_bias(ConvAttrs::conv2d(512, 1))},
      {"4x512x8x8 k1 oc128", Shape{4, 512, 8, 8},
       no_bias(ConvAttrs::conv2d(128, 1))},
      {"4x512x8x8 k1 oc256", Shape{4, 512, 8, 8},
       no_bias(ConvAttrs::conv2d(256, 1))},
      {"4x256x4x4 k1 oc1024", Shape{4, 256, 4, 4},
       no_bias(ConvAttrs::conv2d(1024, 1))},
      {"4x1024x4x4 k1 oc256", Shape{4, 1024, 4, 4},
       no_bias(ConvAttrs::conv2d(256, 1))},
      {"4x1024x4x4 k1 oc512", Shape{4, 1024, 4, 4},
       no_bias(ConvAttrs::conv2d(512, 1))},
      {"4x512x2x2 k1 oc2048", Shape{4, 512, 2, 2},
       no_bias(ConvAttrs::conv2d(2048, 1))},
      {"4x2048x2x2 k1 oc512", Shape{4, 2048, 2, 2},
       no_bias(ConvAttrs::conv2d(512, 1))},
  };
  for (const ConvPass& p : resnet) run_conv_pass(p, skinny_sweep, seed, report);

  // Its strided convs, which keep im2col + GEMM: the 7x7 s2 stem (no
  // dX), the 1x1 s2 projections into stages 1 to 3, and the 3x3 s2 entry
  // of the last stage.
  const ConvPass strided[] = {
      {"4x3x64x64 k7 s2 oc64", Shape{4, 3, 64, 64},
       no_bias(ConvAttrs::conv2d(64, 7, 2, 3)), /*dx=*/false},
      {"4x256x16x16 k1 s2 oc512", Shape{4, 256, 16, 16},
       no_bias(ConvAttrs::conv2d(512, 1, 2))},
      {"4x512x8x8 k1 s2 oc1024", Shape{4, 512, 8, 8},
       no_bias(ConvAttrs::conv2d(1024, 1, 2))},
      {"4x1024x4x4 k1 s2 oc2048", Shape{4, 1024, 4, 4},
       no_bias(ConvAttrs::conv2d(2048, 1, 2))},
      {"4x512x4x4 k3 s2 oc512", Shape{4, 512, 4, 4},
       no_bias(ConvAttrs::conv2d(512, 3, 2, 1))},
  };
  for (const ConvPass& p : strided) {
    run_conv_pass(p, skinny_sweep, seed, report);
  }

  // Memory-bound kernels: the Inception toy's (b32, 32x32 input) and
  // ResNet-50's (b4, 64x64 input) batch-norm and ReLU tensors, and their
  // max pools: the stem 2x2 s2, the modules' 3x3 s1 p1 on 16- and 8-wide
  // planes, and ResNet's 3x3 s2 p1 stem pool.
  const std::vector<Shape> eltwise_shapes{
      Shape{32, 32, 32, 32}, Shape{32, 32, 16, 16}, Shape{32, 64, 8, 8},
      Shape{4, 64, 32, 32}, Shape{4, 2048, 2, 2}};
  const double kF = sizeof(float);
  for (const Shape& xs : eltwise_shapes) {
    const std::int64_t c = xs[1];
    const double n = static_cast<double>(xs.numel());
    const std::string shape = std::to_string(xs[0]) + "x" +
                              std::to_string(xs[1]) + "x" +
                              std::to_string(xs[2]) + "x" +
                              std::to_string(xs[3]);
    const Tensor x = random_tensor(xs, seed++);
    const Tensor dy = random_tensor(xs, seed++);
    const Tensor gamma = random_tensor(Shape{c}, seed++);
    const Tensor beta = random_tensor(Shape{c}, seed++);
    const BatchNormAttrs bn;
    Tensor y(xs), y_ref(xs), dx(xs), dx_ref(xs);
    Tensor dgamma(Shape{c}), dgamma_ref(Shape{c});
    Tensor dbeta(Shape{c}), dbeta_ref(Shape{c});

    Case fwd;
    fwd.kernel = "bn_fwd";
    fwd.shape = shape;
    fwd.bytes = 2 * n * kF;
    fwd.fast = [&](KernelContext& ctx) {
      batchnorm_forward(x, gamma, beta, y, bn, ctx);
    };
    fwd.ref = [&] { batchnorm_forward_ref(x, gamma, beta, y_ref, bn); };
    fwd.outs = {{&y, &y_ref}};
    run_case(fwd, skinny_sweep, report);

    Case bwd;
    bwd.kernel = "bn_bwd";
    bwd.shape = shape;
    bwd.bytes = 3 * n * kF;
    bwd.fast = [&](KernelContext& ctx) {
      batchnorm_backward(x, gamma, dy, &dx, dgamma, dbeta, bn, ctx);
    };
    bwd.ref = [&] {
      batchnorm_backward_ref(x, gamma, dy, &dx_ref, dgamma_ref, dbeta_ref,
                             bn);
    };
    bwd.outs = {{&dx, &dx_ref}, {&dgamma, &dgamma_ref}, {&dbeta, &dbeta_ref}};
    run_case(bwd, skinny_sweep, report);

    Case relu_f;
    relu_f.kernel = "relu_fwd";
    relu_f.shape = shape;
    relu_f.bytes = 2 * n * kF;
    relu_f.fast = [&](KernelContext& ctx) { relu_forward(x, y, ctx); };
    relu_f.ref = [&] { relu_forward_ref(x, y_ref); };
    relu_f.outs = {{&y, &y_ref}};
    run_case(relu_f, skinny_sweep, report);

    // x as the mask: a random sign per element, the worst case for a
    // branch.
    Case relu_b;
    relu_b.kernel = "relu_bwd";
    relu_b.shape = shape;
    relu_b.bytes = 3 * n * kF;
    relu_b.fast = [&](KernelContext& ctx) { relu_backward(x, dy, dx, ctx); };
    relu_b.ref = [&] { relu_backward_ref(x, dy, dx_ref); };
    relu_b.outs = {{&dx, &dx_ref}};
    run_case(relu_b, skinny_sweep, report);
  }

  struct PoolShape {
    const char* shape;
    Shape xs;
    PoolAttrs attrs;
  };
  const PoolShape pools[] = {
      {"32x32x32x32 k2 s2", Shape{32, 32, 32, 32},
       PoolAttrs::pool2d(PoolMode::kMax, 2, 2)},
      {"32x32x16x16 k3 s1", Shape{32, 32, 16, 16},
       PoolAttrs::pool2d(PoolMode::kMax, 3, 1, 1)},
      {"32x64x8x8 k3 s1", Shape{32, 64, 8, 8},
       PoolAttrs::pool2d(PoolMode::kMax, 3, 1, 1)},
      {"4x64x32x32 k3 s2", Shape{4, 64, 32, 32},
       PoolAttrs::pool2d(PoolMode::kMax, 3, 2, 1)},
  };
  for (const PoolShape& p : pools) {
    const Shape ys = pool_output_shape(p.xs, p.attrs);
    const double in = static_cast<double>(p.xs.numel());
    const double out = static_cast<double>(ys.numel());
    const Tensor x = random_tensor(p.xs, seed++);
    const Tensor dy = random_tensor(ys, seed++);
    Tensor y(ys), y_ref(ys), dx(p.xs), dx_ref(p.xs);

    Case fwd;
    fwd.kernel = "maxpool_fwd";
    fwd.shape = p.shape;
    fwd.bytes = (in + out) * kF;
    fwd.fast = [&](KernelContext& ctx) { pool_forward(x, y, p.attrs, ctx); };
    fwd.ref = [&] { pool_forward_ref(x, y_ref, p.attrs); };
    fwd.outs = {{&y, &y_ref}};
    run_case(fwd, skinny_sweep, report);

    Case bwd;
    bwd.kernel = "maxpool_bwd";
    bwd.shape = p.shape;
    bwd.bytes = (2 * in + out) * kF;
    bwd.fast = [&](KernelContext& ctx) {
      pool_backward(x, dy, dx, p.attrs, ctx);
    };
    bwd.ref = [&] { pool_backward_ref(x, dy, dx_ref, p.attrs); };
    bwd.outs = {{&dx, &dx_ref}};
    run_case(bwd, skinny_sweep, report);
  }

  report.write(argc, argv);
  return 0;
}

}  // namespace
}  // namespace pooch::kernels

int main(int argc, char** argv) { return pooch::kernels::run(argc, argv); }
