// Micro-benchmarks (google-benchmark): the arena allocator, plan
// construction, graph construction and the timeline simulator itself —
// the inner loop of the classifier, whose speed bounds how large a
// search the planner can afford. The CPU kernels are timed, bit-checked
// at 1/2/4 threads, by bench_kernels.
#include <benchmark/benchmark.h>

#include "common/rng.hpp"
#include "graph/autodiff.hpp"
#include "mem/arena.hpp"
#include "models/models.hpp"
#include "sim/runtime.hpp"

namespace {

using namespace pooch;

void BM_ArenaAllocFreeCycle(benchmark::State& state) {
  mem::Arena arena(std::size_t{1} << 30);
  Rng rng(5);
  std::vector<mem::Offset> live;
  for (auto _ : state) {
    if (live.size() < 64 && (live.empty() || rng.uniform() < 0.6)) {
      if (auto off = arena.allocate(1 + rng.below(1 << 20))) {
        live.push_back(*off);
      }
    } else {
      const std::size_t i = rng.below(live.size());
      arena.free(live[i]);
      live[i] = live.back();
      live.pop_back();
    }
  }
  for (auto off : live) arena.free(off);
}
BENCHMARK(BM_ArenaAllocFreeCycle);

/// One arena operation of a replayed trace.
struct ArenaOp {
  bool alloc = false;
  int slot = 0;  // which buffer (index into the replay's offsets)
  std::size_t bytes = 0;
  mem::AllocSide side = mem::AllocSide::kBottom;
};

/// Two-ended traffic shaped like one simulated ResNeXt-101-3D iteration:
/// about 750 allocations on a 16 GiB pool. Forward outputs that persist
/// into backward grow from the bottom and are released in reverse order;
/// discarded outputs, workspaces and swap-in buffers churn at the top
/// with lifetimes of a few ops; gradients come from the bottom. Every
/// buffer is released by the end, so the trace replays on one arena.
std::vector<ArenaOp> resnext3d_like_trace(int& slots) {
  constexpr int kLayers = 250;
  Rng rng(7);
  std::vector<ArenaOp> ops;
  slots = 0;
  auto alloc = [&](std::size_t bytes, mem::AllocSide side) {
    ops.push_back({true, slots, bytes, side});
    return slots++;
  };
  auto release = [&](int slot) { ops.push_back({false, slot}); };
  auto fmap_bytes = [&] { return (1 + rng.below(48)) << 20; };
  auto workspace_bytes = [&] { return (1 + rng.below(256)) << 20; };
  // Releases the oldest buffers of `fifo` until at most `keep` remain.
  auto drain = [&](std::vector<int>& fifo, std::size_t keep) {
    while (fifo.size() > keep) {
      release(fifo.front());
      fifo.erase(fifo.begin());
    }
  };

  std::vector<int> kept, transient;
  for (int l = 0; l < kLayers; ++l) {
    if (rng.uniform() < 0.4) {
      kept.push_back(alloc(fmap_bytes(), mem::AllocSide::kBottom));
    } else {
      transient.push_back(alloc(fmap_bytes(), mem::AllocSide::kTop));
    }
    if (l % 3 == 0) release(alloc(workspace_bytes(), mem::AllocSide::kTop));
    drain(transient, 4);
  }
  drain(transient, 0);
  std::vector<int> grads;
  for (int l = kLayers; l-- > 0;) {
    if (rng.uniform() < 0.3) {
      transient.push_back(alloc(fmap_bytes(), mem::AllocSide::kTop));
    }
    grads.push_back(alloc(fmap_bytes(), mem::AllocSide::kBottom));
    if (l % 3 == 0) {
      const int ws1 = alloc(workspace_bytes(), mem::AllocSide::kTop);
      const int ws2 = alloc(workspace_bytes(), mem::AllocSide::kTop);
      release(ws1);
      release(ws2);
    }
    if (!kept.empty() && rng.uniform() < 0.4) {
      release(kept.back());
      kept.pop_back();
    }
    drain(transient, 2);
    drain(grads, 3);
  }
  drain(transient, 0);
  drain(grads, 0);
  for (auto it = kept.rbegin(); it != kept.rend(); ++it) release(*it);
  return ops;
}

void BM_ArenaTwoEndedIteration(benchmark::State& state) {
  int slots = 0;
  const std::vector<ArenaOp> trace = resnext3d_like_trace(slots);
  std::vector<mem::Offset> offsets(static_cast<std::size_t>(slots));
  mem::Arena arena(std::size_t{16} << 30);
  std::int64_t allocs = 0;
  for (auto _ : state) {
    for (const ArenaOp& op : trace) {
      auto& off = offsets[static_cast<std::size_t>(op.slot)];
      if (!op.alloc) {
        arena.free(off);
      } else if (auto got = arena.allocate(op.bytes, op.side)) {
        off = *got;
        ++allocs;
      } else {
        state.SkipWithError("trace does not fit the arena");
        return;
      }
    }
  }
  state.SetItemsProcessed(allocs);
}
BENCHMARK(BM_ArenaTwoEndedIteration)->Unit(benchmark::kMicrosecond);

void BM_BackwardPlanBuild(benchmark::State& state) {
  const auto g = models::resnet50(4, 64);
  const auto tape = graph::build_backward_tape(g);
  const sim::Classification swap_all(g, sim::ValueClass::kSwap);
  for (auto _ : state) {
    auto plan = sim::build_backward_plan(g, tape, swap_all);
    benchmark::DoNotOptimize(plan.steps.size());
  }
}
BENCHMARK(BM_BackwardPlanBuild);

// The classifier's unit of work: one full timeline simulation of a
// ResNet-50 training iteration.
void BM_TimelineSimulationResnet50(benchmark::State& state) {
  const auto g = models::resnet50(state.range(0));
  const auto tape = graph::build_backward_tape(g);
  const auto machine = cost::x86_pcie();
  const sim::CostTimeModel tm(g, machine);
  const sim::Runtime rt(g, tape, machine, tm);
  const sim::Classification swap_all(g, sim::ValueClass::kSwap);
  for (auto _ : state) {
    auto r = rt.run(swap_all);
    benchmark::DoNotOptimize(r.iteration_time);
  }
}
BENCHMARK(BM_TimelineSimulationResnet50)->Arg(256)->Arg(640);

// The largest planning problem: ResNeXt-101-3D (1x128x384), whose search
// runs the most simulations of any perfbench plan.
void BM_TimelineSimulationResnext3d(benchmark::State& state) {
  const auto g = models::resnext101_3d(1, 128, 384);
  const auto tape = graph::build_backward_tape(g);
  const auto machine = cost::x86_pcie();
  const sim::CostTimeModel tm(g, machine);
  const sim::Runtime rt(g, tape, machine, tm);
  const sim::Classification swap_all(g, sim::ValueClass::kSwap);
  for (auto _ : state) {
    auto r = rt.run(swap_all);
    benchmark::DoNotOptimize(r.iteration_time);
  }
}
BENCHMARK(BM_TimelineSimulationResnext3d)->Unit(benchmark::kMicrosecond);

void BM_GraphConstructionResnet50(benchmark::State& state) {
  for (auto _ : state) {
    auto g = models::resnet50(64);
    benchmark::DoNotOptimize(g.num_nodes());
  }
}
BENCHMARK(BM_GraphConstructionResnet50);

}  // namespace

BENCHMARK_MAIN();
