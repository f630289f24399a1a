// The measured-calibration loop (docs/PROFILING.md):
//   - MeasuredProfile's estimator is a median with outlier rejection;
//   - record_op maps each op type onto the right sample set, and an
//     executor run's spans cover every timed stream op;
//   - CalibratedTimeModel learns per-category fallback scales, serves
//     observed ops as measured, and stays concurrent_safe (the parallel
//     planner must choose the identical plan at any thread count under
//     it);
//   - run_pooch_measured profiles the swap-all stream first, calibrates
//     below the roofline's error and stays bit-identical to serial
//     in-core training — including when a stale (drift-injected) profile
//     forces the drift detector to re-plan, after which the roofline
//     scores the plan that ran.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>

#include "common/units.hpp"
#include "cost/calibrated_time_model.hpp"
#include "cost/cost_model.hpp"
#include "graph/autodiff.hpp"
#include "graph/liveness.hpp"
#include "kernels/kernel_context.hpp"
#include "models/models.hpp"
#include "obs/stats.hpp"
#include "obs/trace.hpp"
#include "pooch/pipeline.hpp"
#include "profile/measured_profile.hpp"
#include "sim/runtime.hpp"
#include "testing_util.hpp"

namespace pooch {
namespace {

using profile::MeasuredProfile;

TEST(MeasuredProfile, MedianOfSamples) {
  MeasuredProfile p(2, 3);
  p.record_forward(0, 3.0);
  p.record_forward(0, 1.0);
  p.record_forward(0, 2.0);
  EXPECT_DOUBLE_EQ(p.forward_seconds(0), 2.0);
  EXPECT_TRUE(p.has_forward(0));
  EXPECT_FALSE(p.has_forward(1));
  EXPECT_DOUBLE_EQ(p.forward_seconds(1), 0.0);  // unobserved -> 0
}

TEST(MeasuredProfile, OutlierRejection) {
  MeasuredProfile p(1, 1);
  // Median of {1.0, 1.1, 1.2, 100.0} is 1.15; 100.0 falls outside
  // [1.15/3, 1.15*3] and must not drag the estimate.
  p.record_backward(0, 1.0);
  p.record_backward(0, 1.1);
  p.record_backward(0, 1.2);
  p.record_backward(0, 100.0);
  // The count comes from the samples, not from how often they are
  // queried.
  EXPECT_EQ(p.outliers_rejected(), 1);
  for (int i = 0; i < 3; ++i) {
    const double est = p.backward_seconds(0);
    EXPECT_GE(est, 1.0);
    EXPECT_LE(est, 1.2);
  }
  EXPECT_EQ(p.outliers_rejected(), 1);
}

TEST(MeasuredProfile, MeanKeepsOneSamplePerOp) {
  MeasuredProfile p(2, 1);
  p.record_forward(0, 1.0);
  p.record_forward(0, 2.0);
  p.record_forward(0, 4.0);  // median 2, mean 7/3
  p.record_d2h(0, 0.5);
  p.record_update(3.0);
  p.record_update(5.0);
  const MeasuredProfile m = p.mean();
  EXPECT_EQ(m.forward_seconds(0), (1.0 + 2.0 + 4.0) / 3.0);
  EXPECT_EQ(m.d2h_seconds(0), 0.5);
  EXPECT_EQ(m.update_seconds(), 4.0);
  EXPECT_FALSE(m.has_forward(1));  // unobserved stays unobserved
  EXPECT_FALSE(m.has_h2d(0));
  EXPECT_EQ(m.total_samples(), 3);
}

TEST(MeasuredProfile, RecordOpMapsOpTypes) {
  // Hand-built stream: each op type must land in its own sample set (a
  // recompute counts as a forward sample, bookkeeping ops count nothing).
  exec::OpStream stream;
  auto push = [&](exec::OpType type, graph::NodeId n, graph::ValueId v) {
    stream.ops.push_back({.type = type, .node = n, .value = v});
  };
  push(exec::OpType::kBeginIteration, graph::kNoNode, -1);
  push(exec::OpType::kForward, 0, 0);
  push(exec::OpType::kSwapOut, graph::kNoNode, 1);
  push(exec::OpType::kSwapIn, graph::kNoNode, 1);
  push(exec::OpType::kRecompute, 0, 1);
  push(exec::OpType::kBackward, 0, -1);
  push(exec::OpType::kFreeValue, graph::kNoNode, 1);
  push(exec::OpType::kFreeGrad, graph::kNoNode, 1);
  push(exec::OpType::kUpdate, graph::kNoNode, -1);

  MeasuredProfile p(1, 2);
  for (const exec::StreamOp& op : stream.ops) {
    p.record_op(op, 0.5);  // every op "took" 0.5s
  }
  p.record_iteration(8.0);
  EXPECT_TRUE(p.has_forward(0));
  EXPECT_TRUE(p.has_backward(0));
  EXPECT_TRUE(p.has_d2h(1));
  EXPECT_TRUE(p.has_h2d(1));
  EXPECT_FALSE(p.has_d2h(0));
  EXPECT_DOUBLE_EQ(p.backward_seconds(0), 0.5);
  EXPECT_DOUBLE_EQ(p.update_seconds(), 0.5);
  EXPECT_DOUBLE_EQ(p.iteration_seconds(), 8.0);
  EXPECT_EQ(p.iterations_recorded(), 1);
  // forward + recompute = two forward samples for node 0.
  EXPECT_EQ(p.total_samples(), 7);  // 2 fwd + bwd + d2h + h2d + upd + iter
  EXPECT_DOUBLE_EQ(p.compute_coverage(), 1.0);
}

TEST(MeasuredProfile, ExecutorSpansCoverEveryTimedStreamOp) {
  // The measured spans of one executor run fold in through record_op:
  // every kernel and transfer of the stream becomes one sample of its
  // op, and bookkeeping ops (begin, frees) none.
  const graph::Graph g = models::small_cnn(2, 16);
  const auto tape = graph::build_backward_tape(g);
  const cost::MachineConfig machine = cost::x86_pcie();
  const sim::CostTimeModel tm(g, machine);
  const sim::Runtime rt(g, tape, machine, tm);
  const exec::OpStream stream = planner::record_op_stream(
      rt, sim::Classification(g, sim::ValueClass::kSwap));
  sim::DataBackend data(g, /*seed=*/1);
  const exec::AsyncResult res = exec::AsyncExecutor(g, stream).run(data);
  ASSERT_TRUE(res.ok) << res.failure;

  MeasuredProfile p(g.num_nodes(), g.num_values());
  for (std::size_t i = 0; i < stream.ops.size(); ++i) {
    p.record_op(stream.ops[i], res.spans[i].end - res.spans[i].start);
  }
  p.record_iteration(res.wall_seconds);
  std::int64_t timed = 1;  // the iteration time
  for (const exec::StreamOp& op : stream.ops) {
    switch (op.type) {
      case exec::OpType::kForward:
      case exec::OpType::kRecompute:
        EXPECT_TRUE(p.has_forward(op.node)) << "n" << op.node;
        break;
      case exec::OpType::kBackward:
        EXPECT_TRUE(p.has_backward(op.node)) << "n" << op.node;
        break;
      case exec::OpType::kSwapOut:
        EXPECT_TRUE(p.has_d2h(op.value)) << "v" << op.value;
        break;
      case exec::OpType::kSwapIn:
        EXPECT_TRUE(p.has_h2d(op.value)) << "v" << op.value;
        break;
      case exec::OpType::kUpdate:
        break;
      case exec::OpType::kBeginIteration:
      case exec::OpType::kFreeValue:
      case exec::OpType::kFreeGrad:
        continue;  // bookkeeping, not hardware time
    }
    ++timed;
  }
  EXPECT_GT(p.update_seconds(), 0.0);
  EXPECT_EQ(p.total_samples(), timed);
}

/// Tiny model + machine rig for the calibrated-model tests.
struct CalRig {
  graph::Graph g;
  std::vector<graph::BwdStep> tape;
  cost::MachineConfig machine;
  std::unique_ptr<sim::CostTimeModel> tm;

  CalRig()
      : g(models::small_cnn(4, 16)),
        tape(graph::build_backward_tape(g)),
        machine(cost::x86_pcie()) {
    tm = std::make_unique<sim::CostTimeModel>(g, machine);
  }
};

TEST(CalibratedTimeModel, ServesMeasurementsAndScaledFallback) {
  CalRig rig;
  MeasuredProfile p(rig.g.num_nodes(), rig.g.num_values());
  // Observe every node's forward except node 0, at exactly 2x roofline:
  // the learned forward scale must be 2, and the unobserved node must be
  // served fallback * 2, not raw fallback.
  for (graph::NodeId n = 1; n < rig.g.num_nodes(); ++n) {
    p.record_forward(n, 2.0 * rig.tm->forward_time(n));
  }
  cost::CalibratedTimeModel cal(rig.g, p, *rig.tm);
  EXPECT_NEAR(cal.forward_scale(), 2.0, 1e-9);
  EXPECT_NEAR(cal.forward_time(0), 2.0 * rig.tm->forward_time(0), 1e-12);
  for (graph::NodeId n = 1; n < rig.g.num_nodes(); ++n) {
    EXPECT_NEAR(cal.forward_time(n), 2.0 * rig.tm->forward_time(n), 1e-12);
  }
  // No backward observations: scale stays 1, raw fallback served.
  EXPECT_NEAR(cal.backward_scale(), 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(cal.backward_time(0), rig.tm->backward_time(0));
  EXPECT_GT(cal.measured_ops(), 0);
  EXPECT_GT(cal.fallback_ops(), 0);
  EXPECT_TRUE(cal.concurrent_safe());
}

TEST(CalibratedTimeModel, InjectDriftScalesServedTimes) {
  CalRig rig;
  MeasuredProfile p(rig.g.num_nodes(), rig.g.num_values());
  const double measured0 = 4.0 * rig.tm->forward_time(0);
  p.record_forward(0, measured0);
  // inject_drift multiplies every served time.
  cost::CalibrationOptions co;
  co.inject_drift = 3.0;
  cost::CalibratedTimeModel cal(rig.g, p, *rig.tm, co);
  EXPECT_NEAR(cal.forward_time(0), 3.0 * measured0, 1e-12);
}

/// Fuzz: under a calibrated model built from real measured runs of a
/// random graph, the parallel planner must stay enabled
/// (concurrent_safe) and choose the bit-identical plan at 1, 2 and 8
/// threads.
TEST(CalibrationFuzz, PlannerDeterministicUnderCalibratedModel) {
  int exercised = 0;
  for (const std::uint64_t seed : {7ull, 21ull, 33ull}) {
    graph::Graph g = testing::random_graph(seed);
    const auto tape = graph::build_backward_tape(g);
    cost::MachineConfig machine = cost::x86_pcie();
    sim::CostTimeModel probe_tm(g, machine);
    sim::Runtime probe_rt(g, tape, machine, probe_tm);
    const auto keep =
        probe_rt.run(sim::Classification(g, sim::ValueClass::kKeep));
    ASSERT_TRUE(keep.ok);
    // Tighten the device below the keep-all peak so the plan swaps; the
    // random graphs' conv workspaces are huge next to their activations,
    // so loosen in steps until the swap-all schedule fits.
    exec::OpStream stream;
    std::unique_ptr<sim::CostTimeModel> tm;
    std::unique_ptr<sim::Runtime> rt;
    bool feasible = false;
    for (int pct = 70; pct <= 150 && !feasible; pct += 10) {
      machine.gpu_capacity_bytes =
          keep.persistent_bytes +
          (keep.peak_bytes - keep.persistent_bytes) *
              static_cast<std::size_t>(pct) / 100;
      machine.gpu_reserved_bytes = 0;
      tm = std::make_unique<sim::CostTimeModel>(g, machine);
      rt = std::make_unique<sim::Runtime>(g, tape, machine, *tm);
      try {
        stream = planner::record_op_stream(
            *rt, sim::Classification(g, sim::ValueClass::kSwap));
        feasible = true;
      } catch (const Error&) {
      }
    }
    if (!feasible) continue;  // no feasible swap-all schedule; skip seed
    sim::DataBackend data(g, /*seed=*/seed);
    profile::MeasureOptions mo;
    mo.iterations = 2;
    mo.warmup_iterations = 0;
    const MeasuredProfile p =
        profile::measure_op_stream(g, stream, data, mo);
    const cost::CalibratedTimeModel cal(g, p, *tm);
    ASSERT_TRUE(cal.concurrent_safe());
    ++exercised;

    auto plan_with = [&](int threads) {
      planner::PlannerOptions po;
      po.threads = threads;
      planner::PoochPlanner planner(g, tape, machine, cal, po);
      return planner.plan();
    };
    const auto ref = plan_with(1);
    for (int threads : {2, 8}) {
      const auto got = plan_with(threads);
      EXPECT_EQ(got.feasible, ref.feasible) << "seed " << seed;
      EXPECT_EQ(got.classes.serialize(), ref.classes.serialize())
          << "seed " << seed << " threads " << threads;
      EXPECT_EQ(got.predicted_time, ref.predicted_time)
          << "seed " << seed << " threads " << threads;
    }
  }
  // The skip path (no feasible swap-all schedule) must not quietly turn
  // this test into a no-op.
  EXPECT_GE(exercised, 1);
}

/// OOC config for the pipeline tests: small CNN with the device clamped
/// so the planner must swap (same shape the calibration_smoke ctest uses
/// through the CLI).
struct PipelineRig {
  graph::Graph g;
  std::vector<graph::BwdStep> tape;
  cost::MachineConfig machine;
  std::unique_ptr<sim::CostTimeModel> tm;

  PipelineRig()
      : g(models::small_cnn(8, 16)),
        tape(graph::build_backward_tape(g)),
        machine(cost::x86_pcie()) {
    machine.gpu_capacity_bytes =
        static_cast<std::size_t>(0.0007 * kGiB);
    machine.gpu_reserved_bytes = 0;
    tm = std::make_unique<sim::CostTimeModel>(g, machine);
  }
};

TEST(MeasuredPipeline, CalibratesBelowRooflineAndStaysBitIdentical) {
  PipelineRig rig;
  kernels::KernelContext kctx(2);
  planner::MeasuredPipelineOptions mo;
  mo.measure.iterations = 3;
  mo.kernel_ctx = &kctx;
  const auto out = planner::run_pooch_measured(rig.g, rig.tape, rig.machine,
                                               *rig.tm, mo);
  ASSERT_TRUE(out.failure.empty()) << out.failure;
  EXPECT_TRUE(out.ok);
  EXPECT_TRUE(out.bit_identical);
  EXPECT_GT(out.observed_seconds, 0.0);
  EXPECT_GT(out.iterations_executed, 0);
  // The roofline prices a simulated V100; the kernels ran on this CPU.
  // Calibration must close most of that gap.
  EXPECT_LT(out.calibrated_error, out.roofline_error);
  EXPECT_GE(out.drift_checks, 1);
  EXPECT_GT(out.measured.compute_coverage(), 0.9);
}

TEST(MeasuredPipeline, InjectedDriftForcesReplanBitIdentically) {
  PipelineRig rig;
  kernels::KernelContext kctx(2);
  planner::MeasuredPipelineOptions mo;
  mo.measure.iterations = 2;
  mo.calibrate.inject_drift = 4.0;  // stale profile: 4x the real times
  mo.replan_threshold = 0.25;
  mo.collect_session_trace = true;
  const auto out = planner::run_pooch_measured(rig.g, rig.tape, rig.machine,
                                               *rig.tm, mo);
  ASSERT_TRUE(out.failure.empty()) << out.failure;
  // The drift detector must notice the 4x miscalibration and re-plan,
  // and every executed iteration must still match serial in-core
  // training bit for bit.
  EXPECT_GE(out.replans, 1);
  EXPECT_TRUE(out.bit_identical);
  // Re-plan markers are stamped into the session for trace export.
  EXPECT_EQ(out.trace_markers.size(), static_cast<std::size_t>(out.replans));
  // The session trace holds one copy of the stream per executed run,
  // each span on the session clock.
  EXPECT_FALSE(out.session_stream.ops.empty());
  ASSERT_EQ(out.session_spans.size(), out.session_stream.ops.size());
  for (const auto& span : out.session_spans) EXPECT_GE(span.end, span.start);
  const obs::json::Value trace = obs::async_chrome_trace(
      rig.g, out.session_stream, out.session_spans,
      {.markers = out.trace_markers});
  std::size_t markers = 0;
  for (const obs::json::Value& e : trace.find("traceEvents")->as_array()) {
    markers += e.find("cat") && e.find("cat")->as_string() == "calibration";
  }
  EXPECT_EQ(markers, out.trace_markers.size());
  for (const auto& [seconds, label] : out.trace_markers) {
    EXPECT_GE(seconds, 0.0);
    EXPECT_NE(label.find("re-plan"), std::string::npos);
  }
}

TEST(MeasuredPipeline, ProfilesTheSwapAllStreamFirst) {
  // §4.2: the first measured iterations run every feature map swapped,
  // so every map's transfers are observed before anything is planned.
  PipelineRig rig;
  planner::MeasuredPipelineOptions mo;
  mo.measure.warmup_iterations = 1;
  mo.measure.iterations = 2;
  mo.collect_session_trace = true;
  const auto out = planner::run_pooch_measured(rig.g, rig.tape, rig.machine,
                                               *rig.tm, mo);
  ASSERT_TRUE(out.failure.empty()) << out.failure;
  const sim::Runtime gt(rig.g, rig.tape, rig.machine, *rig.tm);
  const exec::OpStream swap_all = planner::record_op_stream(
      gt, sim::Classification(rig.g, sim::ValueClass::kSwap));
  ASSERT_FALSE(swap_all.ops.empty());
  const std::size_t runs = static_cast<std::size_t>(
      mo.measure.warmup_iterations + mo.measure.iterations);
  ASSERT_GT(out.session_stream.ops.size(), runs * swap_all.ops.size());
  for (std::size_t i = 0; i < runs * swap_all.ops.size(); ++i) {
    const exec::StreamOp& got = out.session_stream.ops[i];
    const exec::StreamOp& want = swap_all.ops[i % swap_all.ops.size()];
    ASSERT_TRUE(got.type == want.type && got.node == want.node &&
                got.value == want.value)
        << "session op " << i << " is not the swap-all stream's op "
        << i % swap_all.ops.size();
  }
}

TEST(MeasuredPipeline, RooflinePredictsTheExecutedPlan) {
  // After a re-plan the roofline must score the plan that ran, not the
  // first one.
  PipelineRig rig;
  planner::MeasuredPipelineOptions mo;
  mo.measure.iterations = 2;
  mo.calibrate.inject_drift = 4.0;
  const auto out = planner::run_pooch_measured(rig.g, rig.tape, rig.machine,
                                               *rig.tm, mo);
  ASSERT_TRUE(out.failure.empty()) << out.failure;
  ASSERT_GE(out.replans, 1);
  const sim::Runtime gt(rig.g, rig.tape, rig.machine, *rig.tm);
  const sim::RunResult executed = planner::execute_plan(gt, out.final_plan);
  ASSERT_TRUE(executed.ok) << executed.failure;
  EXPECT_EQ(out.roofline_predicted, executed.iteration_time);
}

TEST(CalibratedTimeModel, SwapAllProfileServesEveryTransferMeasured) {
  // §4.2: profiling runs every map swapped, so every transfer any plan
  // can issue is observed, and the calibrated model serves each one
  // from measurement instead of from the scaled roofline.
  PipelineRig rig;
  const sim::Runtime rt(rig.g, rig.tape, rig.machine, *rig.tm);
  const exec::OpStream swap_all = planner::record_op_stream(
      rt, sim::Classification(rig.g, sim::ValueClass::kSwap));
  sim::DataBackend data(rig.g, /*seed=*/1);
  profile::MeasureOptions mo;
  mo.iterations = 2;
  const MeasuredProfile p =
      profile::measure_op_stream(rig.g, swap_all, data, mo);
  EXPECT_DOUBLE_EQ(p.compute_coverage(), 1.0);
  const cost::CalibratedTimeModel cal(rig.g, p, *rig.tm);
  int transfers = 0;
  for (const exec::StreamOp& op : swap_all.ops) {
    if (op.type == exec::OpType::kSwapOut) {
      ASSERT_TRUE(p.has_d2h(op.value)) << "v" << op.value;
      EXPECT_EQ(cal.d2h_time(op.value), p.d2h_seconds(op.value));
      ++transfers;
    } else if (op.type == exec::OpType::kSwapIn) {
      ASSERT_TRUE(p.has_h2d(op.value)) << "v" << op.value;
      EXPECT_EQ(cal.h2d_time(op.value), p.h2d_seconds(op.value));
      ++transfers;
    }
  }
  EXPECT_GT(transfers, 0);
}

TEST(CalibratedTimeModel, RecordedSpansAreTheModelsTimes) {
  // A stream recorded under a calibrated model carries that model's time
  // in every timed op's span, up to one rounding, and bookkeeping ops
  // take none: the stream alone prices the executor's dispatch.
  PipelineRig rig;
  MeasuredProfile p(rig.g.num_nodes(), rig.g.num_values());
  // Some ops measured at uneven multiples of the roofline, the rest
  // served from the scaled fallback.
  for (graph::NodeId n = 0; n < rig.g.num_nodes(); n += 2) {
    p.record_forward(n, 2.7 * rig.tm->forward_time(n));
    p.record_backward(n, 1.3 * rig.tm->backward_time(n));
  }
  for (graph::ValueId v = 1; v < rig.g.num_values(); v += 3) {
    p.record_d2h(v, 4.1 * rig.tm->d2h_time(v));
    p.record_h2d(v, 3.9 * rig.tm->h2d_time(v));
  }
  p.record_update(0.7 * rig.tm->update_time());
  const cost::CalibratedTimeModel cal(rig.g, p, *rig.tm);
  ASSERT_GT(cal.measured_ops(), 0);
  ASSERT_GT(cal.fallback_ops(), 0);
  const sim::Runtime rt(rig.g, rig.tape, rig.machine, cal);

  // The swap-all profile schedule and the plan chosen on this model.
  const auto policy = profile::swap_all_policy(rt);
  ASSERT_TRUE(policy.has_value());
  sim::RunOptions profiling;
  profiling.swapin_policy = *policy;
  const planner::PlannerResult plan =
      planner::PoochPlanner(rig.g, rig.tape, rig.machine, cal).plan();
  ASSERT_TRUE(plan.feasible);
  sim::RunOptions ro;
  ro.record_stream = true;
  const sim::RunResult planned = planner::execute_plan(rt, plan, ro);
  ASSERT_TRUE(planned.ok) << planned.failure;
  const exec::OpStream streams[] = {
      planner::record_op_stream(
          rt, sim::Classification(rig.g, sim::ValueClass::kSwap), profiling),
      planned.stream};

  const auto model_time = [&](const exec::StreamOp& op) {
    switch (op.type) {
      case exec::OpType::kForward:
      case exec::OpType::kRecompute:
        return cal.forward_time(op.node);
      case exec::OpType::kBackward:
        return cal.backward_time(op.node);
      case exec::OpType::kSwapOut:
        return cal.d2h_time(op.value);
      case exec::OpType::kSwapIn:
        return cal.h2d_time(op.value);
      case exec::OpType::kUpdate:
        return cal.update_time();
      case exec::OpType::kBeginIteration:
      case exec::OpType::kFreeValue:
      case exec::OpType::kFreeGrad:
        break;
    }
    return 0.0;
  };
  int timed = 0;
  for (const exec::OpStream& stream : streams) {
    for (std::size_t i = 0; i < stream.ops.size(); ++i) {
      const exec::StreamOp& op = stream.ops[i];
      const double span = op.sim_end - op.sim_start;
      const double want = model_time(op);
      if (exec::is_bookkeeping(op.type)) {
        EXPECT_EQ(span, 0.0) << "op " << i;
        continue;
      }
      ASSERT_GT(want, 0.0) << "op " << i;
      EXPECT_NEAR(span, want, 1e-12 * want)
          << exec::op_type_name(op.type) << " op " << i;
      ++timed;
    }
  }
  EXPECT_GT(timed, 0);
}

TEST(MeasuredPipeline, NoDriftMeansOneCheckAndNoReplan) {
  // Under a threshold no prediction can exceed, the plan made on the
  // swap-all profile is measured once, checked once and kept: two
  // measured rounds (profile, plan) plus the validation iterations.
  PipelineRig rig;
  planner::MeasuredPipelineOptions mo;
  mo.measure.warmup_iterations = 1;
  mo.measure.iterations = 2;
  mo.replan_threshold = 1e9;
  const auto out = planner::run_pooch_measured(rig.g, rig.tape, rig.machine,
                                               *rig.tm, mo);
  ASSERT_TRUE(out.failure.empty()) << out.failure;
  EXPECT_TRUE(out.bit_identical);
  EXPECT_EQ(out.drift_checks, 1);
  EXPECT_EQ(out.replans, 0);
  EXPECT_TRUE(out.trace_markers.empty());
  EXPECT_EQ(out.iterations_executed, 2 * 3 + mo.validation_iterations);
  EXPECT_TRUE(out.final_plan.feasible);
}

TEST(MeasuredPipeline, ReplansStopAtMaxReplans) {
  // A zero threshold calls every prediction drifted: the loop re-plans
  // kMaxReplans times, checks once more, and stops. Every check costs
  // one measured round, and all of them train bit-identically.
  PipelineRig rig;
  planner::MeasuredPipelineOptions mo;
  mo.measure.warmup_iterations = 1;
  mo.measure.iterations = 2;
  mo.calibrate.inject_drift = 4.0;
  mo.replan_threshold = 0.0;
  const auto out = planner::run_pooch_measured(rig.g, rig.tape, rig.machine,
                                               *rig.tm, mo);
  ASSERT_TRUE(out.failure.empty()) << out.failure;
  EXPECT_TRUE(out.bit_identical);
  EXPECT_EQ(out.replans, planner::kMaxReplans);
  EXPECT_EQ(out.drift_checks, planner::kMaxReplans + 1);
  EXPECT_GT(out.last_drift_error, 0.0);
  EXPECT_EQ(out.iterations_executed,
            3 * (1 + out.drift_checks) + mo.validation_iterations);
}

TEST(MeasuredPipeline, WithoutValidationTheLastRoundIsObserved) {
  // validation_iterations = 0 skips the out-of-sample round: the
  // predictors are scored against the plan's last measured round, and
  // no extra iteration runs.
  PipelineRig rig;
  planner::MeasuredPipelineOptions mo;
  mo.measure.warmup_iterations = 1;
  mo.measure.iterations = 2;
  mo.replan_threshold = 1e9;
  mo.validation_iterations = 0;
  const auto out = planner::run_pooch_measured(rig.g, rig.tape, rig.machine,
                                               *rig.tm, mo);
  ASSERT_TRUE(out.failure.empty()) << out.failure;
  EXPECT_TRUE(out.bit_identical);
  EXPECT_EQ(out.iterations_executed, 2 * 3);
  EXPECT_GT(out.observed_seconds, 0.0);
  EXPECT_EQ(out.observed_seconds, out.measured.iteration_seconds());
}

TEST(MeasuredPipeline, StatsMirrorTheDriftDetector) {
  PipelineRig rig;
  obs::StatsRegistry stats;
  planner::MeasuredPipelineOptions mo;
  mo.measure.iterations = 2;
  mo.calibrate.inject_drift = 4.0;
  mo.replan_threshold = 0.25;
  mo.stats = &stats;
  const auto out = planner::run_pooch_measured(rig.g, rig.tape, rig.machine,
                                               *rig.tm, mo);
  ASSERT_TRUE(out.failure.empty()) << out.failure;
  ASSERT_GE(out.replans, 1);
  EXPECT_EQ(stats.counter_value("profile.drift.checks"),
            static_cast<std::uint64_t>(out.drift_checks));
  EXPECT_EQ(stats.counter_value("profile.drift.replans"),
            static_cast<std::uint64_t>(out.replans));
  EXPECT_EQ(stats.gauge_value("profile.drift.last.relative_error"),
            out.last_drift_error);
  EXPECT_EQ(stats.gauge_value("profile.drift.last.threshold"), 0.25);
  EXPECT_EQ(stats.gauge_value("calibration.last.observed_seconds"),
            out.observed_seconds);
  EXPECT_EQ(stats.gauge_value("calibration.last.predicted_seconds"),
            out.calibrated_predicted);
  EXPECT_EQ(stats.gauge_value("calibration.last.roofline_error"),
            out.roofline_error);
  EXPECT_EQ(stats.gauge_value("calibration.last.calibrated_error"),
            out.calibrated_error);
}

TEST(MeasuredPipeline, SessionTraceHoldsEveryExecutedIteration) {
  // Warm-ups, the swap-all profile, every plan round and validation all
  // land in the session trace, one run per iteration, on one clock that
  // never runs backwards from one run to the next.
  PipelineRig rig;
  planner::MeasuredPipelineOptions mo;
  mo.measure.iterations = 2;
  mo.calibrate.inject_drift = 4.0;
  mo.collect_session_trace = true;
  const auto out = planner::run_pooch_measured(rig.g, rig.tape, rig.machine,
                                               *rig.tm, mo);
  ASSERT_TRUE(out.failure.empty()) << out.failure;
  ASSERT_EQ(out.session_spans.size(), out.session_stream.ops.size());
  int runs = 0;
  double last_begin = -1.0;
  for (std::size_t i = 0; i < out.session_stream.ops.size(); ++i) {
    if (out.session_stream.ops[i].type != exec::OpType::kBeginIteration) {
      continue;
    }
    ++runs;
    EXPECT_GE(out.session_spans[i].start, last_begin) << "run " << runs;
    last_begin = out.session_spans[i].start;
  }
  EXPECT_EQ(runs, out.iterations_executed);
}

TEST(MeasuredPipeline, LossDependsOnlyOnTheDataSeed) {
  // Transparency: the plans and measured times may differ run to run,
  // but the trained weights may not. The same seed and iteration count
  // give the same loss bit for bit; another seed trains another model.
  PipelineRig rig;
  planner::MeasuredPipelineOptions mo;
  mo.measure.iterations = 2;
  mo.replan_threshold = 1e9;
  const auto a = planner::run_pooch_measured(rig.g, rig.tape, rig.machine,
                                             *rig.tm, mo);
  mo.measure.compute_workers = 2;
  mo.measure.copy_workers = 2;
  const auto b = planner::run_pooch_measured(rig.g, rig.tape, rig.machine,
                                             *rig.tm, mo);
  mo.data_seed += 1;
  const auto c = planner::run_pooch_measured(rig.g, rig.tape, rig.machine,
                                             *rig.tm, mo);
  for (const auto* out : {&a, &b, &c}) {
    ASSERT_TRUE(out->failure.empty()) << out->failure;
    ASSERT_EQ(out->iterations_executed, a.iterations_executed);
  }
  EXPECT_EQ(std::memcmp(&a.loss, &b.loss, sizeof a.loss), 0)
      << a.loss << " vs " << b.loss;
  EXPECT_NE(a.loss, c.loss);
}

}  // namespace
}  // namespace pooch
