// Shared test helpers: numeric gradient checking against the analytic
// backward kernels, small graph/tensor factories, and the two real
// executions every differential test compares — the serial in-core
// reference and an exported schedule replayed through the AsyncExecutor.
#pragma once

#include <cmath>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "exec/async_executor.hpp"
#include "graph/graph.hpp"
#include "obs/validate.hpp"
#include "pooch/pipeline.hpp"
#include "sim/data_backend.hpp"
#include "sim/runtime.hpp"
#include "tensor/tensor.hpp"
#include "tensor/tensor_ops.hpp"

namespace pooch::testing {

/// Seed of the synthetic parameters/batch the differential tests train.
inline constexpr std::uint64_t kDataSeed = 1234;

/// Serial in-core reference: `iterations` iterations of the keep-all
/// stream replayed by one compute worker (planner::run_incore_reference)
/// on a backend seeded with `seed`.
inline std::unique_ptr<sim::DataBackend> serial_reference(
    const graph::Graph& g, const std::vector<graph::BwdStep>& tape,
    int iterations = 1, std::uint64_t seed = kDataSeed) {
  auto backend = std::make_unique<sim::DataBackend>(g, seed);
  planner::run_incore_reference(g, tape, *backend, iterations);
  return backend;
}

/// Export `classes`' schedule from `rt` under `ro`, replay it through the
/// AsyncExecutor for `iterations` iterations on a backend seeded with
/// `seed`, and check each exported stream structurally and each replay
/// against the ordering oracle.
inline std::unique_ptr<sim::DataBackend> async_replay(
    const sim::Runtime& rt, const sim::Classification& classes,
    int copy_workers = 1, int compute_workers = 1, sim::RunOptions ro = {},
    int iterations = 1, std::uint64_t seed = kDataSeed) {
  const graph::Graph& g = rt.graph();
  auto backend = std::make_unique<sim::DataBackend>(g, seed);
  const obs::TimelineValidator validator(g, rt.tape());
  for (int i = 0; i < iterations; ++i) {
    ro.iteration = static_cast<std::uint64_t>(i);
    const exec::OpStream stream = planner::record_op_stream(rt, classes, ro);
    const auto structural = stream.validate(g, rt.tape());
    EXPECT_TRUE(structural.empty())
        << structural.size() << " structural errors, first: "
        << structural.front();
    const exec::AsyncExecutor executor(g, stream);
    exec::AsyncOptions ao;
    ao.workers_per_copy_lane = copy_workers;
    ao.compute_workers = compute_workers;
    ao.time_model = &rt.time_model();
    const exec::AsyncResult res = executor.run(*backend, ao);
    EXPECT_TRUE(res.ok) << res.failure;
    const auto oracle = validator.check_replay(stream, res.spans);
    EXPECT_TRUE(oracle.ok()) << oracle.to_string();
  }
  return backend;
}

/// Check the analytic gradient `analytic` of scalar L = sum(f(x) * probe)
/// against central differences. `f` evaluates the forward into a fresh
/// tensor; `probe` weights the output (fixed random), so L is a generic
/// scalar functional of the op.
inline void check_gradient(
    Tensor& x, const Tensor& probe,
    const std::function<Tensor(const Tensor&)>& f, const Tensor& analytic,
    float eps = 1e-2f, float tol = 2e-2f) {
  ASSERT_EQ(analytic.shape(), x.shape());
  auto scalar = [&](const Tensor& in) {
    Tensor y = f(in);
    EXPECT_EQ(y.shape(), probe.shape());
    double acc = 0.0;
    for (std::int64_t i = 0; i < y.numel(); ++i) {
      acc += static_cast<double>(y[i]) * static_cast<double>(probe[i]);
    }
    return acc;
  };
  double worst = 0.0;
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    const float saved = x[i];
    x[i] = saved + eps;
    const double up = scalar(x);
    x[i] = saved - eps;
    const double down = scalar(x);
    x[i] = saved;
    const double numeric = (up - down) / (2.0 * eps);
    const double diff = std::fabs(numeric - static_cast<double>(analytic[i]));
    const double denom =
        std::max(1.0, std::fabs(numeric) + std::fabs(analytic[i]));
    worst = std::max(worst, diff / denom);
  }
  EXPECT_LT(worst, tol) << "worst relative gradient error " << worst;
}

inline Tensor random_tensor(const Shape& shape, std::uint64_t seed,
                            float lo = -1.0f, float hi = 1.0f) {
  Tensor t(shape);
  Rng rng(seed);
  fill_uniform(t, rng, lo, hi);
  return t;
}

/// Random DAG builder shared by the fuzz suites: a trunk of mixed layers
/// with occasional residual adds and branches, always terminating in
/// GAP -> FC -> loss. Same seed → same graph.
inline graph::Graph random_graph(std::uint64_t seed) {
  using graph::Graph;
  using graph::LayerKind;
  using graph::ValueId;
  Rng rng(seed);
  Graph g;
  const std::int64_t batch = 1 + static_cast<std::int64_t>(rng.below(3));
  const std::int64_t image = 8 + 4 * static_cast<std::int64_t>(rng.below(3));
  std::int64_t channels = 3 + static_cast<std::int64_t>(rng.below(5));
  ValueId x = g.add_input(Shape{batch, channels, image, image}, "in");
  std::vector<ValueId> residual_candidates;

  const int depth = 4 + static_cast<int>(rng.below(8));
  for (int i = 0; i < depth; ++i) {
    const std::string tag = "n" + std::to_string(i);
    switch (rng.below(6)) {
      case 0: {
        const std::int64_t out_c = 4 + static_cast<std::int64_t>(rng.below(8));
        x = g.add(LayerKind::kConv, ConvAttrs::conv2d(out_c, 3, 1, 1),
                  {x}, tag + ".conv");
        channels = out_c;
        break;
      }
      case 1:
        x = g.add(LayerKind::kBatchNorm, BatchNormAttrs{}, {x},
                  tag + ".bn");
        break;
      case 2:
        x = g.add(LayerKind::kReLU, std::monostate{}, {x}, tag + ".relu");
        break;
      case 3: {
        DropoutAttrs d;
        d.rate = 0.3f;
        d.key = seed * 31 + static_cast<std::uint64_t>(i);
        x = g.add(LayerKind::kDropout, d, {x}, tag + ".drop");
        break;
      }
      case 4: {
        // Residual add with a same-shape earlier value when available.
        ValueId partner = -1;
        for (ValueId cand : residual_candidates) {
          if (g.value(cand).shape == g.value(x).shape && cand != x) {
            partner = cand;
          }
        }
        if (partner >= 0) {
          x = g.add(LayerKind::kAdd, std::monostate{}, {x, partner},
                    tag + ".add");
        } else {
          x = g.add(LayerKind::kReLU, std::monostate{}, {x}, tag + ".relu");
        }
        break;
      }
      default: {
        // Two-branch concat: conv branches with random widths.
        const std::int64_t c1 = 2 + static_cast<std::int64_t>(rng.below(4));
        const std::int64_t c2 = 2 + static_cast<std::int64_t>(rng.below(4));
        auto b1 = g.add(LayerKind::kConv, ConvAttrs::conv2d(c1, 1, 1, 0),
                        {x}, tag + ".b1");
        auto b2 = g.add(LayerKind::kConv, ConvAttrs::conv2d(c2, 3, 1, 1),
                        {x}, tag + ".b2");
        x = g.add(LayerKind::kConcat, std::monostate{}, {b1, b2},
                  tag + ".cat");
        channels = c1 + c2;
        break;
      }
    }
    residual_candidates.push_back(x);
  }
  x = g.add(LayerKind::kGlobalAvgPool, std::monostate{}, {x}, "gap");
  FcAttrs head;
  head.out_features = 4;
  x = g.add(LayerKind::kFullyConnected, head, {x}, "fc");
  g.add(LayerKind::kSoftmaxLoss, std::monostate{}, {x}, "loss");
  g.validate();
  return g;
}

}  // namespace pooch::testing
