#include "pooch/pipeline.hpp"

#include <cmath>
#include <memory>
#include <optional>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "cost/machine.hpp"
#include "graph/liveness.hpp"
#include "obs/stats.hpp"

namespace pooch::planner {

PipelineResult run_pooch(const graph::Graph& graph,
                         const std::vector<graph::BwdStep>& tape,
                         const cost::MachineConfig& machine,
                         const sim::TimeModel& ground_truth,
                         const PipelineOptions& options) {
  PipelineResult out;

  // Phase 1: profiling (swap-all, a few iterations, noisy observation).
  out.profile =
      profile::run_profiler(graph, tape, machine, ground_truth,
                            options.profile);
  if (!out.profile.ok) {
    out.ok = false;
    return out;
  }
  const cost::CalibratedTimeModel profiled(graph, out.profile.times,
                                           ground_truth);

  // Phase 2: classification over the profiled times.
  PoochPlanner planner(graph, tape, machine, profiled, options.planner);
  out.plan = planner.plan();
  if (!out.plan.feasible) {
    out.ok = false;
    return out;
  }

  // Phase 3: execution on the ground-truth hardware. The model is
  // deterministic, so one simulated iteration is the iteration time; the
  // run records its op stream, the schedule exec::AsyncExecutor replays.
  const sim::Runtime runtime(graph, tape, machine, ground_truth);
  sim::RunOptions run_options;
  run_options.record_stream = true;
  run_options.stats = options.planner.stats;
  out.execution = execute_plan(runtime, out.plan, run_options);
  if (!out.execution.ok) {
    POOCH_LOG_WARN("planned classification failed at execution: "
                   << out.execution.failure);
    out.ok = false;
    return out;
  }
  out.iteration_time = out.execution.iteration_time;
  out.ok = true;
  return out;
}

sim::RunResult execute_plan(const sim::Runtime& runtime,
                            const PlannerResult& plan,
                            sim::RunOptions options) {
  // Autotune over two executions (training runs thousands of identical
  // iterations, so measuring both once is free):
  //   (a) the §4.3 schedule as planned: memory-aware scheduling with the
  //       device pool clamped to the capacity the plan was validated
  //       against — when profiled times hold, this reproduces the
  //       planning simulation exactly;
  //   (b) dynamic scheduling with the full device.
  // Each attempt records its own stream, so the returned run carries
  // the schedule it scored.
  options.swapin_policy = sim::SwapInPolicy::kEagerMemoryAware;
  options.usable_bytes_override = plan.planning_usable_bytes;
  sim::RunResult scheduled = runtime.run(plan.classes, options);
  options.usable_bytes_override = 0;
  sim::RunResult dynamic = runtime.run(plan.classes, options);
  if (scheduled.ok &&
      (!dynamic.ok || scheduled.iteration_time <= dynamic.iteration_time)) {
    return scheduled;
  }
  if (dynamic.ok) return dynamic;
  // Last resort: fetch only when needed.
  POOCH_LOG_WARN("scheduled and dynamic execution both failed; trying "
                 "on-demand swap-ins");
  options.swapin_policy = sim::SwapInPolicy::kOnDemand;
  return runtime.run(plan.classes, options);
}

exec::OpStream record_op_stream(const sim::Runtime& runtime,
                                const sim::Classification& classes,
                                sim::RunOptions options) {
  options.record_stream = true;
  sim::RunResult r = runtime.run(classes, options);
  if (!r.ok) {
    throw Error("record_op_stream: simulation failed: " + r.failure);
  }
  return std::move(r.stream);
}

exec::OpStream record_incore_stream(const graph::Graph& graph,
                                    const std::vector<graph::BwdStep>& tape) {
  // Capacity shapes the schedule, never the numerics: on a device that
  // holds every feature map the keep-all run cannot (simulated-)OOM.
  cost::MachineConfig roomy = cost::x86_pcie();
  roomy.gpu_capacity_bytes =
      std::max(roomy.gpu_capacity_bytes,
               graph::incore_peak_bytes(graph) * 2 + (std::size_t{1} << 30));
  const sim::CostTimeModel time_model(graph, roomy);
  const sim::Runtime runtime(graph, tape, roomy, time_model);
  return record_op_stream(runtime,
                          sim::Classification(graph, sim::ValueClass::kKeep));
}

void run_incore_reference(const graph::Graph& graph,
                          const std::vector<graph::BwdStep>& tape,
                          sim::DataBackend& data, int iterations) {
  exec::OpStream stream = record_incore_stream(graph, tape);
  const exec::AsyncExecutor executor(graph, stream);
  for (int i = 0; i < iterations; ++i) {
    stream.iteration = static_cast<std::uint64_t>(i);
    const exec::AsyncResult res = executor.run(data);
    if (!res.ok) {
      throw Error("in-core reference iteration " + std::to_string(i) +
                  " failed: " + res.failure);
    }
  }
}

namespace {

double relative_error(double predicted, double observed) {
  return observed > 0.0 ? std::fabs(predicted - observed) / observed : 0.0;
}

/// The run execute_plan picks for `plan` under `runtime`'s time model,
/// with its replayable op stream. Throws when every attempt of the
/// fallback chain is infeasible.
sim::RunResult export_plan_stream(const sim::Runtime& runtime,
                                  const PlannerResult& plan) {
  sim::RunOptions options;
  options.record_stream = true;
  sim::RunResult r = execute_plan(runtime, plan, options);
  if (!r.ok) {
    throw Error("planned classification failed at execution: " + r.failure);
  }
  return r;
}

/// Predicted iteration time of `plan` under `runtime`'s time model,
/// mirroring execute_plan's autotuned choice.
double predict_iteration_time(const sim::Runtime& runtime,
                              const PlannerResult& plan) {
  const sim::RunResult r = execute_plan(runtime, plan, {});
  return r.ok ? r.iteration_time : 0.0;
}

/// Append `runs[first..]`, replays of `stream`, to the session trace:
/// the stream's ops once per run, with the run's spans shifted onto one
/// monotone session clock. Returns the advanced clock.
double append_session_runs(MeasuredPipelineResult& out, double clock,
                           const exec::OpStream& stream,
                           const std::vector<exec::AsyncResult>& runs,
                           std::size_t first) {
  for (std::size_t i = first; i < runs.size(); ++i) {
    const exec::AsyncResult& run = runs[i];
    out.session_stream.ops.insert(out.session_stream.ops.end(),
                                  stream.ops.begin(), stream.ops.end());
    for (exec::OpSpan span : run.spans) {
      span.start += clock;
      span.end += clock;
      out.session_spans.push_back(span);
    }
    clock += run.wall_seconds;
  }
  return clock;
}

}  // namespace

MeasuredPipelineResult run_pooch_measured(
    const graph::Graph& graph, const std::vector<graph::BwdStep>& tape,
    const cost::MachineConfig& machine, const sim::TimeModel& ground_truth,
    const MeasuredPipelineOptions& options) {
  MeasuredPipelineResult out;
  out.measured =
      profile::MeasuredProfile(graph.num_nodes(), graph.num_values());
  obs::StatsRegistry* stats = options.stats;

  // The profile runs swap-all (§4.2: every map swapped, so every map's
  // transfers are measured) under the one swap-all rule, on the
  // ground-truth runtime. Nothing executes when no policy fits.
  const sim::Runtime gt_runtime(graph, tape, machine, ground_truth);
  const std::optional<sim::SwapInPolicy> policy =
      profile::swap_all_policy(gt_runtime);
  if (!policy) {
    out.failure = "profiling impossible: swap-all OOMs even with "
                  "on-demand swap-ins";
    return out;
  }

  profile::MeasureOptions mo = options.measure;
  mo.stats = stats;
  std::vector<exec::AsyncResult> session_runs;
  if (options.collect_session_trace) mo.keep_runs = &session_runs;

  kernels::KernelContext* kctx = options.kernel_ctx;
  sim::DataBackend data(graph, options.data_seed, options.learning_rate,
                        kctx);
  std::uint64_t next_iteration = 0;
  double session_clock = 0.0;
  std::size_t session_consumed = 0;
  // Run warm-up + k measured iterations of `stream` into out.measured,
  // continuing the training trajectory and the session trace.
  const auto measure = [&](const exec::OpStream& stream) {
    out.measured = profile::measure_op_stream(graph, stream, data, mo,
                                              next_iteration);
    next_iteration += static_cast<std::uint64_t>(mo.warmup_iterations +
                                                 mo.iterations);
    session_clock = append_session_runs(out, session_clock, stream,
                                        session_runs, session_consumed);
    session_consumed = session_runs.size();
  };
  // The calibrated model over the latest measurement round.
  std::unique_ptr<cost::CalibratedTimeModel> model;
  const auto calibrate = [&] {
    model = std::make_unique<cost::CalibratedTimeModel>(
        graph, out.measured, ground_truth, options.calibrate);
  };
  try {
    // Phase 1: profile the swap-all stream on the executor.
    sim::RunOptions profiling;
    profiling.swapin_policy = *policy;
    measure(record_op_stream(
        gt_runtime, sim::Classification(graph, sim::ValueClass::kSwap),
        profiling));

    // Phase 2: one calibrated model over that profile, one plan.
    calibrate();
    out.final_plan = PoochPlanner(graph, tape, machine, *model,
                                  options.pipeline.planner)
                         .plan();
    if (!out.final_plan.feasible) {
      throw Error("plan infeasible on the measured profile");
    }

    // Phase 3 + 4: execute and measure the plan under the model that
    // chose it, and check that model's prediction against the
    // observation — out of sample, since the model never saw this plan
    // run. On drift, re-plan on a model rebuilt from the latest
    // measurement (real drift is absorbed; an injected miscalibration
    // persists by design). The recorded run is the prediction, and its
    // stream's spans are that model's times, so the multi-worker
    // dispatch follows the model too.
    sim::RunResult run;
    for (;;) {
      run = export_plan_stream(sim::Runtime(graph, tape, machine, *model),
                               out.final_plan);
      measure(run.stream);
      const double drift = relative_error(run.iteration_time,
                                          out.measured.iteration_seconds());
      ++out.drift_checks;
      out.last_drift_error = drift;
      if (stats) {
        stats->counter("profile.drift.checks").add(1);
        stats->gauge("profile.drift.last.relative_error").set(drift);
        stats->gauge("profile.drift.last.threshold")
            .set(options.replan_threshold);
      }
      calibrate();
      if (drift <= options.replan_threshold ||
          out.replans >= kMaxReplans) {
        break;
      }

      // Drift: the calibrated simulation disagrees with the hardware.
      // Re-plan on the latest measurement and keep training.
      ++out.replans;
      if (stats) stats->counter("profile.drift.replans").add(1);
      out.trace_markers.emplace_back(
          session_clock, "re-plan (drift " +
                             std::to_string(static_cast<int>(drift * 100)) +
                             "%)");
      POOCH_LOG_INFO("drift " << drift * 100 << "% > threshold "
                              << options.replan_threshold * 100
                              << "%: re-planning on calibrated times");
      const PlannerResult replanned =
          PoochPlanner(graph, tape, machine, *model, options.pipeline.planner)
              .plan();
      if (!replanned.feasible) {
        POOCH_LOG_WARN("re-plan infeasible; keeping the current plan");
        break;
      }
      out.final_plan = replanned;
    }
    // Both predictors price the plan that runs: the analytic model, and
    // the model calibrated on the plan's own latest measured round (the
    // one a further re-plan would use). Validation never feeds either.
    out.roofline_predicted = predict_iteration_time(gt_runtime, out.final_plan);
    out.calibrated_predicted = predict_iteration_time(
        sim::Runtime(graph, tape, machine, *model), out.final_plan);

    // Phase 5: out-of-sample validation — fresh iterations under the
    // final plan score both predictors against wall time the calibration
    // never saw.
    double observed = out.measured.iteration_seconds();
    if (options.validation_iterations > 0) {
      profile::MeasureOptions vo = mo;
      vo.warmup_iterations = 0;
      vo.iterations = options.validation_iterations;
      const profile::MeasuredProfile validation =
          profile::measure_op_stream(graph, run.stream, data, vo,
                                     next_iteration);
      next_iteration +=
          static_cast<std::uint64_t>(options.validation_iterations);
      session_clock = append_session_runs(out, session_clock, run.stream,
                                          session_runs, session_consumed);
      session_consumed = session_runs.size();
      observed = validation.iteration_seconds();
    }
    out.observed_seconds = observed;
    out.roofline_error = relative_error(out.roofline_predicted, observed);
    out.calibrated_error =
        relative_error(out.calibrated_predicted, observed);
  } catch (const Error& e) {
    out.failure = e.what();
    return out;
  }
  out.iterations_executed = static_cast<int>(next_iteration);

  // Phase 6: the whole measured trajectory — across warm-ups, the
  // swap-all profile and every plan — must be bit-identical to serial
  // in-core training of the same iterations (the transparency contract).
  out.loss = data.loss();
  sim::DataBackend ref(graph, options.data_seed, options.learning_rate);
  try {
    run_incore_reference(graph, tape, ref, out.iterations_executed);
    const std::string diff = data.first_difference(ref);
    out.bit_identical = diff.empty();
    if (!out.bit_identical) {
      out.failure = "measured execution not bit-identical to in-core: " +
                    diff + " differs";
    }
  } catch (const Error& e) {
    out.failure = e.what();
  }

  if (stats && model) {
    stats->gauge("calibration.last.measured_ops")
        .set(static_cast<double>(model->measured_ops()));
    stats->gauge("calibration.last.fallback_ops")
        .set(static_cast<double>(model->fallback_ops()));
    stats->gauge("calibration.last.forward_scale")
        .set(model->forward_scale());
    stats->gauge("calibration.last.h2d_scale").set(model->h2d_scale());
    stats->gauge("calibration.last.predicted_seconds")
        .set(out.calibrated_predicted);
    stats->gauge("calibration.last.observed_seconds")
        .set(out.observed_seconds);
    stats->gauge("calibration.last.roofline_error").set(out.roofline_error);
    stats->gauge("calibration.last.calibrated_error")
        .set(out.calibrated_error);
  }
  out.ok = out.bit_identical;
  return out;
}

}  // namespace pooch::planner
