#include "pooch/pipeline.hpp"

#include <cmath>
#include <memory>

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
  // deterministic, so one simulated iteration is the iteration time.
  const sim::Runtime runtime(graph, tape, machine, ground_truth);
  out.execution = execute_plan(runtime, out.plan);
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

/// The replayable op stream of the run execute_plan picks for `plan`
/// under `runtime`'s time model. Throws when every attempt of the
/// fallback chain is infeasible.
exec::OpStream export_plan_stream(const sim::Runtime& runtime,
                                  const PlannerResult& plan) {
  sim::RunOptions options;
  options.record_stream = true;
  sim::RunResult r = execute_plan(runtime, plan, options);
  if (!r.ok) {
    throw Error("planned classification failed at execution: " + r.failure);
  }
  return std::move(r.stream);
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

  // Phase 1: the standard simulated-profile pipeline chooses the initial
  // plan — the paper's profile -> classify pass, roofline-observed.
  out.initial =
      run_pooch(graph, tape, machine, ground_truth, options.pipeline);
  if (!out.initial.ok) {
    out.failure = out.initial.plan.feasible
                      ? "initial pipeline execution failed"
                      : "initial plan infeasible";
    return out;
  }
  out.final_plan = out.initial.plan;
  out.roofline_predicted = out.initial.plan.predicted_time;

  // Phase 2: execute the plan for real and measure it. The stream is
  // recorded under the model the plan was made with; the backend then
  // runs warm-up + k genuine training iterations through the async
  // executor while MeasuredProfile collects per-op wall times.
  sim::Runtime gt_runtime(graph, tape, machine, ground_truth);
  profile::MeasureOptions mo = options.measure;
  mo.stats = stats;
  // Priorities for the multi-worker compute dispatch: the plan's own
  // time model (replaced by the calibrated model after a re-plan).
  if (!mo.time_model) mo.time_model = &ground_truth;
  std::vector<exec::AsyncResult> session_runs;
  if (options.collect_session_trace) mo.keep_runs = &session_runs;

  kernels::KernelContext* kctx = options.kernel_ctx;
  sim::DataBackend data(graph, options.data_seed, options.learning_rate,
                        kctx);
  std::uint64_t next_iteration = 0;
  double session_clock = 0.0;
  std::size_t session_consumed = 0;
  std::unique_ptr<cost::CalibratedTimeModel> model;
  std::unique_ptr<sim::Runtime> cal_runtime;
  double predicted = 0.0;
  try {
    exec::OpStream stream = export_plan_stream(gt_runtime, out.final_plan);
    out.measured = profile::measure_op_stream(graph, stream, data, mo,
                                              next_iteration);
    next_iteration += static_cast<std::uint64_t>(mo.warmup_iterations +
                                                 mo.iterations);
    session_clock = append_session_runs(out, session_clock, stream,
                                        session_runs, session_consumed);
    session_consumed = session_runs.size();

    // Phase 3 + 4: calibrate, check drift, re-plan while it persists.
    // Each round rebuilds the model from the latest measurements (real
    // drift is absorbed; an injected miscalibration persists by design)
    // and re-checks the calibrated prediction against the observation.
    double observed = out.measured.iteration_seconds();
    for (;;) {
      model = std::make_unique<cost::CalibratedTimeModel>(
          graph, out.measured, ground_truth, options.calibrate);
      // After a re-plan the priorities follow the latest calibrated
      // model; the one they pointed at was just replaced.
      if (out.replans > 0 && options.measure.time_model == nullptr) {
        mo.time_model = model.get();
      }
      cal_runtime = std::make_unique<sim::Runtime>(graph, tape, machine,
                                                   *model);
      predicted = predict_iteration_time(*cal_runtime, out.final_plan);
      const double drift = relative_error(predicted, observed);
      ++out.drift_checks;
      out.last_drift_error = drift;
      if (stats) {
        stats->counter("profile.drift.checks").add(1);
        stats->gauge("profile.drift.last.relative_error").set(drift);
        stats->gauge("profile.drift.last.threshold")
            .set(options.replan_threshold);
      }
      if (drift <= options.replan_threshold ||
          out.replans >= kMaxReplans) {
        break;
      }

      // Drift: the calibrated simulation disagrees with the hardware.
      // Re-plan on the calibrated times and keep training.
      ++out.replans;
      if (stats) stats->counter("profile.drift.replans").add(1);
      out.trace_markers.emplace_back(
          session_clock, "re-plan (drift " +
                             std::to_string(static_cast<int>(drift * 100)) +
                             "%)");
      POOCH_LOG_INFO("drift " << drift * 100 << "% > threshold "
                              << options.replan_threshold * 100
                              << "%: re-planning on calibrated times");
      PoochPlanner replanner(graph, tape, machine, *model,
                             options.pipeline.planner);
      const PlannerResult replanned = replanner.plan();
      if (!replanned.feasible) {
        POOCH_LOG_WARN("re-plan infeasible; keeping the current plan");
        break;
      }
      out.final_plan = replanned;
      stream = export_plan_stream(*cal_runtime, out.final_plan);
      if (options.measure.time_model == nullptr) {
        mo.time_model = model.get();  // calibrated priorities from here on
      }
      out.measured = profile::measure_op_stream(graph, stream, data, mo,
                                                next_iteration);
      next_iteration += static_cast<std::uint64_t>(mo.warmup_iterations +
                                                   mo.iterations);
      session_clock = append_session_runs(out, session_clock, stream,
                                          session_runs, session_consumed);
      session_consumed = session_runs.size();
      observed = out.measured.iteration_seconds();
    }

    // Phase 5: out-of-sample validation — fresh iterations under the
    // final plan score both predictors against wall time the calibration
    // never saw.
    if (options.validation_iterations > 0) {
      profile::MeasureOptions vo = mo;
      vo.warmup_iterations = 0;
      vo.iterations = options.validation_iterations;
      const profile::MeasuredProfile validation =
          profile::measure_op_stream(graph, stream, data, vo,
                                     next_iteration);
      next_iteration +=
          static_cast<std::uint64_t>(options.validation_iterations);
      session_clock = append_session_runs(out, session_clock, stream,
                                          session_runs, session_consumed);
      session_consumed = session_runs.size();
      observed = validation.iteration_seconds();
    }
    out.observed_seconds = observed;
    out.calibrated_predicted = predicted;
    out.roofline_error = relative_error(out.roofline_predicted, observed);
    out.calibrated_error = relative_error(predicted, observed);
  } catch (const Error& e) {
    out.failure = e.what();
    return out;
  }
  out.iterations_executed = static_cast<int>(next_iteration);

  // Phase 6: the whole measured trajectory — across warm-ups, both
  // plans, and the re-records — must be bit-identical to serial in-core
  // training of the same iterations (the transparency contract).
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
