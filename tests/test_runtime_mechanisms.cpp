// Focused tests for the runtime's memory-management machinery: the
// two-ended placement, the rescue chain (prefetch cancellation, clean-
// page eviction, in-flight waits), gradient aliasing, workspace capping,
// capacity clamping and the planned-execution fallback chain — the
// engineering that keeps out-of-core execution alive where a naive
// allocator would OOM.
#include <gtest/gtest.h>

#include <algorithm>

#include "baselines/policies.hpp"
#include "cost/cost_model.hpp"
#include "exec/op_stream.hpp"
#include "graph/autodiff.hpp"
#include "graph/liveness.hpp"
#include "models/models.hpp"
#include "obs/stats.hpp"
#include "pooch/pipeline.hpp"
#include "profile/profiler.hpp"
#include "sim/runtime.hpp"
#include "testing_util.hpp"

namespace pooch::sim {
namespace {

struct Rig {
  graph::Graph g;
  std::vector<graph::BwdStep> tape;
  cost::MachineConfig machine;
  std::unique_ptr<CostTimeModel> tm;
  std::unique_ptr<Runtime> rt;

  Rig(graph::Graph graph, std::size_t cap_mib, double link_gbps = 3.0)
      : g(std::move(graph)), tape(graph::build_backward_tape(g)),
        machine(cost::test_machine(cap_mib)) {
    machine.link_gbps = link_gbps;
    tm = std::make_unique<CostTimeModel>(g, machine);
    rt = std::make_unique<Runtime>(g, tape, machine, *tm);
  }
};

TEST(Placement, NaiveFlagChangesNothingSemantically) {
  Rig rig(models::paper_example(16, 56, 64), 4096);
  RunOptions naive;
  naive.naive_placement = true;
  const auto a = rig.rt->run(Classification(rig.g, ValueClass::kSwap));
  const auto b = rig.rt->run(Classification(rig.g, ValueClass::kSwap), naive);
  ASSERT_TRUE(a.ok && b.ok);
  // Timing identical with ample memory; only block placement differs.
  EXPECT_DOUBLE_EQ(a.iteration_time, b.iteration_time);
  EXPECT_EQ(a.swapped_bytes, b.swapped_bytes);
}

TEST(Placement, TwoEndedNeverWorseAcrossCapacities) {
  // With the rescue chain (clean-page eviction) in place, single-ended
  // placement usually recovers too — but lifetime-aware placement must
  // never be the one that loses: at every capacity it is at least as
  // feasible and at least as fast.
  auto make = [](std::size_t cap) {
    return Rig(models::resnet50(64, 112), cap, 8.0);
  };
  const Classification swap_all(make(4096).g, ValueClass::kSwap);
  int compared = 0;
  for (std::size_t cap = 1100; cap >= 600; cap -= 100) {
    Rig rig = make(cap);
    RunOptions naive;
    naive.naive_placement = true;
    const auto two_ended = rig.rt->run(swap_all);
    const auto single = rig.rt->run(swap_all, naive);
    EXPECT_FALSE(!two_ended.ok && single.ok) << "capacity " << cap;
    if (two_ended.ok && single.ok) {
      EXPECT_LE(two_ended.iteration_time, single.iteration_time * 1.02)
          << "capacity " << cap;
      ++compared;
    }
  }
  EXPECT_GT(compared, 0);
}

TEST(GradAliasing, ElementwiseChainsShareOneBuffer) {
  // fc -> relu -> dropout -> fc: the gradients of the relu and dropout
  // inputs alias the dropout-output gradient buffer.
  graph::Graph g;
  auto x = g.add_input(Shape{4, 64}, "in");
  x = g.add(graph::LayerKind::kFullyConnected, FcAttrs{.out_features = 64},
            {x}, "fc1");
  auto fc1 = x;
  x = g.add(graph::LayerKind::kReLU, std::monostate{}, {x}, "relu");
  auto relu = x;
  DropoutAttrs d;
  d.key = 3;
  x = g.add(graph::LayerKind::kDropout, d, {x}, "drop");
  auto drop = x;
  x = g.add(graph::LayerKind::kFullyConnected, FcAttrs{.out_features = 8},
            {x}, "fc2");
  g.add(graph::LayerKind::kSoftmaxLoss, std::monostate{}, {x}, "loss");
  const auto tape = graph::build_backward_tape(g);
  const auto plan =
      build_backward_plan(g, tape, Classification(g, ValueClass::kKeep));
  // Roots resolve through the chain to the dropout output.
  EXPECT_EQ(plan.grad_root[static_cast<std::size_t>(fc1)], drop);
  EXPECT_EQ(plan.grad_root[static_cast<std::size_t>(relu)], drop);
  EXPECT_EQ(plan.grad_root[static_cast<std::size_t>(drop)], drop);
  // Only the root allocates; its buffer lives until fc1's backward step.
  int allocs = 0;
  for (const auto& step : plan.steps) {
    for (auto v : step.grad_allocs) {
      allocs += (v == fc1 || v == relu || v == drop);
    }
  }
  EXPECT_EQ(allocs, 1);
  const int n = g.num_nodes();
  EXPECT_EQ(plan.root_free_step[static_cast<std::size_t>(drop)],
            n - 1 - g.value(fc1).producer);
}

TEST(GradAliasing, BranchInputsDoNotAlias) {
  // A value consumed by two nodes accumulates gradients — no aliasing.
  graph::Graph g;
  auto x = g.add_input(Shape{1, 4, 8, 8}, "in");
  auto a = g.add(graph::LayerKind::kConv, ConvAttrs::conv2d(4, 3, 1, 1), {x},
                 "c1");
  auto r = g.add(graph::LayerKind::kReLU, std::monostate{}, {a}, "relu");
  auto b = g.add(graph::LayerKind::kConv, ConvAttrs::conv2d(4, 3, 1, 1), {r},
                 "c2");
  auto s = g.add(graph::LayerKind::kAdd, std::monostate{}, {b, r}, "add");
  auto f = g.add(graph::LayerKind::kFlatten, std::monostate{}, {s}, "flat");
  auto h = g.add(graph::LayerKind::kFullyConnected, FcAttrs{.out_features = 2},
                 {f}, "fc");
  g.add(graph::LayerKind::kSoftmaxLoss, std::monostate{}, {h}, "loss");
  const auto tape = graph::build_backward_tape(g);
  const auto plan =
      build_backward_plan(g, tape, Classification(g, ValueClass::kKeep));
  // relu's INPUT (conv out `a`) aliases relu's output gradient...
  EXPECT_EQ(plan.grad_root[static_cast<std::size_t>(a)], r);
  // ...but `r` itself (2 consumers) does not alias into the add.
  EXPECT_EQ(plan.grad_root[static_cast<std::size_t>(r)], r);
  // flatten's input `s` has one consumer -> aliases through flatten.
  EXPECT_EQ(plan.grad_root[static_cast<std::size_t>(s)], f);
}

TEST(GradAliasing, ReducesPeakOnEltwiseHeavyNet) {
  // AlexNet's fc6/fc7 blocks are relu+dropout chains; aliasing must show
  // up as a materially lower keep-all peak than the sum of grads.
  Rig rig(models::alexnet(64), 4096);
  const auto r = rig.rt->run(Classification(rig.g, ValueClass::kKeep));
  ASSERT_TRUE(r.ok);
  // conv1.out at b64 is 74 MB; without aliasing the relu1 backward alone
  // holds three such buffers (y, dy, dx) on top of the retained set —
  // with aliasing the whole iteration stays within ~11 map-equivalents.
  const std::size_t map = rig.g.value(1).byte_size();
  EXPECT_LT(r.peak_bytes, 11 * map);
}

TEST(WorkspaceCap, CapsOversizedIm2col) {
  // The ResNeXt-3D stem's full column buffer would be ~2.3 GiB per copy;
  // accounting caps it at 1 GiB (cuDNN-style algorithm fallback).
  const auto g = models::resnext101_3d(1, 64, 384);
  EXPECT_EQ(g.workspace_bytes(0), graph::Graph::kMaxConvWorkspace);
  // Small convs stay exact.
  const auto g2 = models::small_cnn(2, 16);
  EXPECT_LT(g2.workspace_bytes(0), graph::Graph::kMaxConvWorkspace);
  EXPECT_GT(g2.workspace_bytes(0), 0u);
}

TEST(CapacityOverride, ClampsThePool) {
  Rig rig(models::paper_example(16, 56, 64), 4096);
  RunOptions clamped;
  clamped.usable_bytes_override = 96 * kMiB;
  const auto r =
      rig.rt->run(Classification(rig.g, ValueClass::kSwap), clamped);
  ASSERT_TRUE(r.ok);
  EXPECT_LE(r.peak_bytes, 96 * kMiB);
  // Clamping below the persistent pool is an OOM outcome, not a crash.
  RunOptions tiny;
  tiny.usable_bytes_override = 1 * kMiB;
  const auto t =
      rig.rt->run(Classification(rig.g, ValueClass::kSwap), tiny);
  EXPECT_FALSE(t.ok);
  EXPECT_TRUE(t.oom);
}

TEST(RescueChain, EvictionKeepsTightRunsAliveAndNumbersExact) {
  // A capacity where swap-all only completes thanks to the rescue chain
  // (prefetch cancel/evict): verify it completes AND that the evictions'
  // extra fetches do not disturb the numerics.
  Rig probe(models::small_cnn(8, 32), 4096, 1.0);
  const auto keep = probe.rt->run(Classification(probe.g, ValueClass::kKeep));
  ASSERT_TRUE(keep.ok);
  Rig tight(models::small_cnn(8, 32), keep.peak_bytes * 7 / 10 / kMiB + 1,
            1.0);
  const auto r = tight.rt->run(Classification(tight.g, ValueClass::kSwap));
  ASSERT_TRUE(r.ok) << r.failure;

  const auto tight_backend = testing::async_replay(
      *tight.rt, Classification(tight.g, ValueClass::kSwap), 1, 1, {}, 1, 31);
  const auto ref_backend =
      testing::serial_reference(probe.g, probe.tape, 1, 31);
  EXPECT_EQ(tight_backend->first_difference(*ref_backend), "");
}

TEST(RescueChain, CancelledPrefetchesNeverLeaveDanglingSwapIns) {
  // Regression guard for the recorded stream: when the rescue chain
  // cancels an issued-but-not-started prefetch, unrecord_swapin must
  // erase that H2D op along with its busy time. A dangling span here
  // would make the AsyncExecutor fetch a value whose host copy was never
  // meant to be read at that point.
  Rig probe(models::small_cnn(8, 32), 4096, 1.0);
  const auto keep = probe.rt->run(Classification(probe.g, ValueClass::kKeep));
  ASSERT_TRUE(keep.ok);

  // Sweep capacity downward until a completing run actually exercised
  // prefetch cancellation (the chain's first rung).
  std::unique_ptr<Rig> tight;
  RunResult r;
  for (const std::size_t pct : {80, 75, 70, 65, 60}) {
    auto rig = std::make_unique<Rig>(
        models::small_cnn(8, 32),
        std::max<std::size_t>(1, keep.peak_bytes * pct / 100 / kMiB + 1), 1.0);
    obs::StatsRegistry stats;
    RunOptions ro;
    ro.stats = &stats;
    ro.record_stream = true;
    r = rig->rt->run(Classification(rig->g, ValueClass::kSwap), ro);
    if (r.ok && stats.counter_value("runtime.rescue.cancel_prefetch") > 0) {
      tight = std::move(rig);
      break;
    }
  }
  ASSERT_TRUE(tight) << "no capacity in the sweep triggered a prefetch cancel";

  // Exactly the surviving transfers appear in the stream: their
  // durations add up to the H2D busy time, from which every cancelled
  // prefetch was taken back out. A cancelled op left in the stream would
  // add its full duration.
  double h2d = 0.0;
  for (const auto& op : r.stream.ops) {
    if (op.type == exec::OpType::kSwapIn) h2d += op.sim_end - op.sim_start;
  }
  EXPECT_NEAR(h2d, r.h2d_busy, 1e-12 * std::max(1.0, r.iteration_time));
  const auto errors = r.stream.validate(tight->g, tight->tape);
  EXPECT_TRUE(errors.empty())
      << errors.size() << " errors, first: " << errors.front();

  // And the stream still replays to the exact in-core numbers.
  const auto async_backend = testing::async_replay(
      *tight->rt, Classification(tight->g, ValueClass::kSwap), 2, 1, {}, 1,
      31);
  const auto ref_backend =
      testing::serial_reference(probe.g, probe.tape, 1, 31);
  EXPECT_EQ(async_backend->first_difference(*ref_backend), "");
}

TEST(StallAttribution, BlamesTheSlowValues) {
  // On a very slow link, the per-value stall vector must attribute most
  // of the stall time to specific swapped values, and those values must
  // appear in the unhidden sets.
  Rig rig(models::paper_example(16, 56, 64), 4096, 0.5);
  const auto r = rig.rt->run(Classification(rig.g, ValueClass::kSwap));
  ASSERT_TRUE(r.ok);
  double attributed = 0.0;
  for (graph::ValueId v = 0; v < rig.g.num_values(); ++v) {
    const double s = r.stall_by_value[static_cast<std::size_t>(v)];
    if (s <= 0.0) continue;
    attributed += s;
    const bool in_li =
        std::binary_search(r.unhidden_swapins.begin(),
                           r.unhidden_swapins.end(), v);
    const bool in_lo =
        std::binary_search(r.unhidden_swapouts.begin(),
                           r.unhidden_swapouts.end(), v);
    EXPECT_TRUE(in_li || in_lo) << "v" << v;
  }
  EXPECT_NEAR(attributed, r.swapin_stall + r.memory_stall, 1e-9);
  EXPECT_GT(attributed, 0.0);
}

/// Every forward node takes 1 s and every copy 10 s, so each swap-out is
/// still in flight when the next nodes allocate.
class SlowCopies : public TimeModel {
 public:
  double forward_time(graph::NodeId) const override { return 1.0; }
  double backward_time(graph::NodeId) const override { return 1.0; }
  double d2h_time(graph::ValueId) const override { return 10.0; }
  double h2d_time(graph::ValueId) const override { return 10.0; }
  double update_time() const override { return 1.0; }
};

TEST(StallAttribution, MemoryWaitBlamesTheSwapOutItWaitedFor) {
  // x -relu-> r1 ... -relu-> r5 -fc-> e -loss: every map is `s` bytes
  // but e, which is two. r1..r5 are swapped and e is recomputed. The
  // arena holds five maps; x, needed by no backward step, stays in one.
  // r1..r4 take the other four, so r5 waits for r1's swap-out, and e,
  // two maps in one piece, waits through r2's and then r3's.
  constexpr std::int64_t n = 1024;
  const std::size_t s = n * sizeof(float);
  graph::Graph g;
  auto x = g.add_input(Shape{1, n}, "x");
  for (const char* name : {"relu1", "relu2", "relu3", "relu4", "relu5"}) {
    x = g.add(graph::LayerKind::kReLU, std::monostate{}, {x}, name);
  }
  const graph::ValueId e = g.add(graph::LayerKind::kFullyConnected,
                                 FcAttrs{.out_features = 2 * n}, {x}, "fc");
  g.add(graph::LayerKind::kSoftmaxLoss, std::monostate{}, {e}, "loss");
  const auto tape = graph::build_backward_tape(g);
  const SlowCopies tm;
  cost::MachineConfig machine = cost::test_machine(0);
  // One alignment unit more holds the loss output.
  machine.gpu_capacity_bytes = 2 * g.total_param_bytes() + 5 * s + 256;
  const Runtime rt(g, tape, machine, tm);
  Classification classes(g, ValueClass::kSwap);
  classes.set(e, ValueClass::kRecompute);
  RunOptions ro;
  ro.record_stream = true;
  const RunResult r = rt.run(classes, ro);
  ASSERT_TRUE(r.ok) << r.failure;

  std::vector<double> swapout_end(static_cast<std::size_t>(g.num_values()),
                                  -1.0);
  for (const auto& op : r.stream.ops) {
    if (op.type == exec::OpType::kSwapOut) {
      swapout_end[static_cast<std::size_t>(op.value)] = op.sim_end;
    }
  }
  struct Wait {
    graph::NodeId node;
    graph::ValueId blamed;
    int awaited;  // swap-outs that completed during the stall
    double stall;
  };
  std::vector<Wait> waits;
  double cursor = 0.0;  // end of the previous compute op
  double memory_waits = 0.0;
  for (const auto& op : r.stream.ops) {
    if (exec::lane_of(op.type) != exec::kComputeLane ||
        exec::is_bookkeeping(op.type)) {
      continue;
    }
    if (op.stall_cause == exec::StallCause::kMemoryWait) {
      // Only a swap-out is ever waited for: never a workspace or a
      // feature map freed at the compute cursor.
      ASSERT_GE(op.stall_value, 0) << "node " << op.node;
      const double end =
          swapout_end[static_cast<std::size_t>(op.stall_value)];
      ASSERT_GE(end, 0.0) << "v" << op.stall_value << " not swapped out";
      EXPECT_EQ(op.stall, end - cursor) << "node " << op.node;
      EXPECT_EQ(op.sim_start, end) << "node " << op.node;
      int awaited = 0;
      for (double t : swapout_end) awaited += t > cursor && t <= end;
      waits.push_back({op.node, op.stall_value, awaited, op.stall});
      memory_waits += op.stall;
      EXPECT_TRUE(std::binary_search(r.unhidden_swapouts.begin(),
                                     r.unhidden_swapouts.end(),
                                     op.stall_value));
    }
    cursor = op.sim_end;
  }
  // r5 (node 4) waits for r1 (v1) from 4 s to 12 s; e (node 5) waits
  // through r2 and r3 (v3) from 13 s to 32 s.
  ASSERT_EQ(waits.size(), 2u);
  EXPECT_EQ(waits[0].node, 4);
  EXPECT_EQ(waits[0].blamed, 1);
  EXPECT_EQ(waits[0].awaited, 1);
  EXPECT_EQ(waits[0].stall, 8.0);
  EXPECT_EQ(waits[1].node, 5);
  EXPECT_EQ(waits[1].blamed, 3);
  EXPECT_EQ(waits[1].awaited, 2);
  EXPECT_EQ(waits[1].stall, 19.0);
  EXPECT_EQ(r.memory_stall, memory_waits);
}

TEST(ExecutePlan, FallsBackWhenScheduleCannotRun) {
  // A plan whose planning capacity cannot even hold the parameters must
  // still execute via the dynamic fallback.
  Rig rig(models::paper_example(16, 56, 64), 96);
  planner::PoochPlanner p(rig.g, rig.tape, rig.machine, *rig.tm);
  auto plan = p.plan();
  ASSERT_TRUE(plan.feasible);
  // Corrupt the planning capacity so the clamped attempt is hopeless.
  plan.planning_usable_bytes = 1 * kMiB;
  const auto r = planner::execute_plan(*rig.rt, plan);
  EXPECT_TRUE(r.ok) << r.failure;
}

/// Op for op: what runs, on which node/value, how many bytes, and when
/// the simulator scheduled it.
bool same_ops(const exec::OpStream& a, const exec::OpStream& b) {
  return std::equal(
      a.ops.begin(), a.ops.end(), b.ops.begin(), b.ops.end(),
      [](const exec::StreamOp& x, const exec::StreamOp& y) {
        return x.type == y.type && x.node == y.node && x.value == y.value &&
               x.bytes == y.bytes && x.sim_start == y.sim_start &&
               x.sim_end == y.sim_end;
      });
}

TEST(ExecutePlan, RecordsTheRunItReturns) {
  // A hand-built plan, so no planner runs: swap-all on a 96 MiB device,
  // "validated" against a clamped pool.
  Rig rig(models::paper_example(16, 56, 64), 96);
  planner::PlannerResult plan;
  plan.classes = Classification(rig.g, ValueClass::kSwap);
  plan.feasible = true;
  const exec::OpStream dynamic =
      planner::record_op_stream(*rig.rt, plan.classes);

  // Clamped to 72 MiB, the scheduled run ties the full-device run in
  // iteration time but issues its swap-ins at other times. Ties go to
  // the scheduled run, and so must the recorded stream.
  plan.planning_usable_bytes = 72 * kMiB;
  RunOptions clamped;
  clamped.usable_bytes_override = plan.planning_usable_bytes;
  const exec::OpStream scheduled =
      planner::record_op_stream(*rig.rt, plan.classes, clamped);
  ASSERT_FALSE(same_ops(scheduled, dynamic))
      << "the two attempts must record different streams";
  RunOptions ro;
  ro.record_stream = true;
  RunResult r = planner::execute_plan(*rig.rt, plan, ro);
  ASSERT_TRUE(r.ok) << r.failure;
  EXPECT_EQ(r.iteration_time,
            rig.rt->run(plan.classes, clamped).iteration_time);
  EXPECT_TRUE(same_ops(r.stream, scheduled)) << "scheduled wins the tie";

  // Clamped to 1 MiB the parameters alone do not fit: the scheduled
  // attempt fails and the dynamic run, with its stream, is returned.
  plan.planning_usable_bytes = 1 * kMiB;
  r = planner::execute_plan(*rig.rt, plan, ro);
  ASSERT_TRUE(r.ok) << r.failure;
  EXPECT_EQ(r.iteration_time, rig.rt->run(plan.classes).iteration_time);
  EXPECT_TRUE(same_ops(r.stream, dynamic)) << "dynamic fallback";
}

TEST(Profiler, RecordsThePolicyItActuallyUsed) {
  // The swap-all rule has three outcomes: eager swap-ins, on-demand
  // swap-ins when the eager schedule OOMs
  // (FallsBackToOnDemandWhenEagerSwapAllOOMs below), and no profile at
  // all (ReportsFailureWhenNothingFits below). Under normal conditions
  // the eager policy profiles fine and is recorded as used.
  Rig rig(models::paper_example(16, 56, 64), 96, 1.0);
  EXPECT_EQ(profile::swap_all_policy(*rig.rt),
            SwapInPolicy::kEagerMemoryAware);
  const auto data =
      profile::run_profiler(rig.g, rig.tape, rig.machine, *rig.tm, {});
  ASSERT_TRUE(data.ok);
  EXPECT_EQ(data.policy_used, SwapInPolicy::kEagerMemoryAware);
}

TEST(Profiler, FallsBackToOnDemandWhenEagerSwapAllOOMs) {
  // A narrow band of capacities (here 71.2% of the in-core peak on the
  // x86 machine) where the eager swap-all schedule OOMs but fetching
  // only on demand fits: both pipelines must profile on demand, and the
  // measured one must still plan, train and stay bit-identical.
  const graph::Graph g = models::paper_example(8, 32);
  const auto tape = graph::build_backward_tape(g);
  cost::MachineConfig machine = cost::x86_pcie();
  machine.gpu_capacity_bytes = graph::incore_peak_bytes(g) * 712 / 1000;
  machine.gpu_reserved_bytes = 0;
  const CostTimeModel tm(g, machine);
  const Runtime rt(g, tape, machine, tm);
  ASSERT_FALSE(rt.run(Classification(g, ValueClass::kSwap)).ok)
      << "eager swap-all must OOM in this regime";
  EXPECT_EQ(profile::swap_all_policy(rt), SwapInPolicy::kOnDemand);
  const auto on_demand = profile::run_profiler(g, tape, machine, tm, {});
  ASSERT_TRUE(on_demand.ok);
  EXPECT_EQ(on_demand.policy_used, SwapInPolicy::kOnDemand);

  planner::MeasuredPipelineOptions mo;
  mo.measure.iterations = 2;
  const auto out = planner::run_pooch_measured(g, tape, machine, tm, mo);
  EXPECT_TRUE(out.failure.empty()) << out.failure;
  EXPECT_TRUE(out.ok);
  EXPECT_TRUE(out.bit_identical);
}

TEST(Profiler, ReportsFailureWhenNothingFits) {
  Rig rig(models::paper_example(16, 56, 64), 16, 1.0);
  EXPECT_FALSE(profile::swap_all_policy(*rig.rt).has_value());
  const auto data =
      profile::run_profiler(rig.g, rig.tape, rig.machine, *rig.tm, {});
  EXPECT_FALSE(data.ok);
  planner::PipelineOptions po;
  const auto out =
      planner::run_pooch(rig.g, rig.tape, rig.machine, *rig.tm, po);
  EXPECT_FALSE(out.ok);
  // The measured pipeline stops at the same rule: nothing ran, so
  // nothing may be called bit-identical.
  const auto measured =
      planner::run_pooch_measured(rig.g, rig.tape, rig.machine, *rig.tm);
  EXPECT_FALSE(measured.ok);
  EXPECT_FALSE(measured.bit_identical);
  EXPECT_EQ(measured.iterations_executed, 0);
  EXPECT_NE(measured.failure.find("profiling"), std::string::npos)
      << measured.failure;
}

}  // namespace
}  // namespace pooch::sim
