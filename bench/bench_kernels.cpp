// Kernel-layer throughput: blocked/vectorized/multithreaded kernels vs
// the scalar *_ref oracles.
//
//   build/bench/bench_kernels [output.json]
//
// Measures the numeric workhorses on representative shapes — a square
// GEMM, a ResNet-50 mid-network convolution, an AlexNet fully-connected
// layer, a 3-D ResNeXt convolution, and forward+backward of the
// late-stage ResNet-50 convolutions whose outputs are only 2x2 to 16x16
// — across a thread sweep, and writes BENCH_kernels.json with the host's
// `cpus` (tools/bench_compare.py diffs two such files and fails on
// regression). Every configuration is verified bit-identical to the
// reference before it is timed: a fast-but-wrong kernel aborts the
// bench.
//
// Times are best-of-N wall clock (first rep doubles as warm-up);
// `speedup` is ref_seconds / seconds for the same shape.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "kernels/conv.hpp"
#include "kernels/fc.hpp"
#include "kernels/kernel_context.hpp"
#include "kernels/matmul.hpp"
#include "common/rng.hpp"
#include "tensor/tensor_ops.hpp"

namespace pooch::kernels {
namespace {

double time_best(const std::function<void()>& fn, int reps) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
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

struct Row {
  std::string kernel;
  std::string shape;
  int threads = 1;
  double seconds = 0.0;
  double gflops = 0.0;
  double ref_seconds = 0.0;
  double speedup = 0.0;
};

/// One benchmark case: `fast` runs the blocked kernel under a context and
/// `ref` the scalar oracle; each (fast, ref) pair in `outs` must then
/// hold identical bits.
struct Case {
  std::string kernel;
  std::string shape;
  double flops = 0.0;
  std::function<void(KernelContext&)> fast;
  std::function<void()> ref;
  std::vector<std::pair<const Tensor*, const Tensor*>> outs;
};

void run_case(const Case& c, const std::vector<int>& thread_sweep,
              std::vector<Row>& rows) {
  const double ref_seconds = time_best(c.ref, 2);
  for (int threads : thread_sweep) {
    KernelContext ctx(threads);
    c.fast(ctx);
    for (const auto& [got, want] : c.outs) {
      check_identical(*got, *want, c.kernel.c_str());
    }
    const double seconds = time_best([&] { c.fast(ctx); }, 3);
    Row r;
    r.kernel = c.kernel;
    r.shape = c.shape;
    r.threads = threads;
    r.seconds = seconds;
    r.gflops = c.flops / seconds * 1e-9;
    r.ref_seconds = ref_seconds;
    r.speedup = ref_seconds / seconds;
    rows.push_back(r);
    std::printf("| %-14s | %-22s | %7d | %9.4f | %7.2f | %9.4f | %6.2fx |\n",
                r.kernel.c_str(), r.shape.c_str(), r.threads, r.seconds,
                r.gflops, r.ref_seconds, r.speedup);
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

void write_json(const char* path, const std::vector<Row>& rows) {
  std::FILE* f = std::fopen(path, "w");
  if (!f) {
    std::fprintf(stderr, "cannot open %s\n", path);
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"bench\": \"kernels\",\n  \"cpus\": %u,\n"
               "  \"rows\": [\n",
               std::thread::hardware_concurrency());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "    {\"kernel\": \"%s\", \"shape\": \"%s\", "
                 "\"threads\": %d, \"seconds\": %.6f, \"gflops\": %.3f, "
                 "\"ref_seconds\": %.6f, \"speedup\": %.3f}%s\n",
                 r.kernel.c_str(), r.shape.c_str(), r.threads, r.seconds,
                 r.gflops, r.ref_seconds, r.speedup,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwritten to %s\n", path);
}

int run(const char* json_path) {
  const std::vector<int> sweep{1, 2, 4, 8};
  std::vector<Row> rows;
  std::printf("| kernel         | shape                  | threads | "
              "seconds   | gflops  | ref s     | speedup |\n"
              "|----------------|------------------------|---------|"
              "-----------|---------|-----------|---------|\n");

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
    run_case(cs, sweep, rows);
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
    run_case(cs, sweep, rows);
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
    run_case(cs, sweep, rows);
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
    run_case(cs, sweep, rows);
  }

  // Late-stage ResNet-50 convolutions (b4, 64x64 input), forward and
  // backward: outputs of 2x2 to 16x16, so one sample's GEMM would be only
  // 4 to 256 columns wide.
  struct ConvPass {
    const char* shape;
    Shape xs;
    ConvAttrs attrs;
  };
  const ConvPass passes[] = {
      {"4x512x2x2 k3", Shape{4, 512, 2, 2}, ConvAttrs::conv2d(512, 3, 1, 1)},
      {"4x256x4x4 k3", Shape{4, 256, 4, 4}, ConvAttrs::conv2d(256, 3, 1, 1)},
      {"4x64x16x16 k1", Shape{4, 64, 16, 16}, ConvAttrs::conv2d(256, 1)},
  };
  std::uint64_t seed = 12;
  for (const ConvPass& p : passes) {
    ConvAttrs attrs = p.attrs;
    attrs.has_bias = false;  // ResNet convs feed batch norm
    const Shape ys = conv_output_shape(p.xs, attrs);
    const Tensor x = random_tensor(p.xs, seed++);
    const Tensor w = random_tensor(conv_weight_shape(p.xs, attrs), seed++);
    const Tensor dy = random_tensor(ys, seed++);
    Tensor y(ys), y_ref(ys);
    Tensor dx(p.xs), dx_ref(p.xs);
    Tensor dw(w.shape()), dw_ref(w.shape());
    Case cs;
    cs.kernel = "conv2d_fwdbwd";
    cs.shape = p.shape;
    cs.flops = 3.0 * conv_flops(p.xs, attrs);  // y, dW and dX
    cs.fast = [&](KernelContext& ctx) {
      conv_forward(x, w, nullptr, y, attrs, ctx);
      conv_backward(x, w, dy, &dx, dw, nullptr, attrs, ctx);
    };
    cs.ref = [&] {
      conv_forward_ref(x, w, nullptr, y_ref, attrs);
      conv_backward_ref(x, w, dy, &dx_ref, dw_ref, nullptr, attrs);
    };
    cs.outs = {{&y, &y_ref}, {&dx, &dx_ref}, {&dw, &dw_ref}};
    run_case(cs, sweep, rows);
  }

  write_json(json_path, rows);
  return 0;
}

}  // namespace
}  // namespace pooch::kernels

int main(int argc, char** argv) {
  return pooch::kernels::run(argc > 1 ? argv[1] : "BENCH_kernels.json");
}
