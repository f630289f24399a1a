// End-to-end PoocH pipeline (paper §4.1.2):
//   1. Profile a few swap-all training iterations.
//   2. Classify every feature map (keep / swap / recompute) by searching
//      with the timeline simulator over the profiled times.
//   3. Execute training under the chosen classification.
//
// The pipeline binds the pieces the way the Chainer extension does, and
// is what the examples and benches call.
#pragma once

#include <utility>

#include "cost/calibrated_time_model.hpp"
#include "exec/op_stream.hpp"
#include "pooch/planner.hpp"
#include "profile/measured_profile.hpp"
#include "profile/profiler.hpp"
#include "sim/data_backend.hpp"

namespace pooch::kernels {
class KernelContext;
}

namespace pooch::planner {

struct PipelineOptions {
  profile::ProfileOptions profile;
  PlannerOptions planner;
};

struct PipelineResult {
  profile::ProfileData profile;
  PlannerResult plan;
  /// Execution of the planned classification on the ground-truth model
  /// (execute_plan's choice), with the op stream it scored: the
  /// schedule exec::AsyncExecutor replays.
  sim::RunResult execution;
  double iteration_time = 0.0;  // execution.iteration_time when ok
  bool ok = false;

  double throughput(std::int64_t batch) const {
    return ok && iteration_time > 0.0
               ? static_cast<double>(batch) / iteration_time
               : 0.0;
  }
};

/// Run profile -> classify -> execute on one (graph, machine) pair.
/// `ground_truth` is the hardware model; profiling observes it with
/// noise, the classifier plans on cost::CalibratedTimeModel over the
/// profiled means (ground truth as its fallback), and execution runs
/// against the ground truth again, recording its stream and publishing
/// runtime.* metrics into `options.planner.stats`.
PipelineResult run_pooch(const graph::Graph& graph,
                         const std::vector<graph::BwdStep>& tape,
                         const cost::MachineConfig& machine,
                         const sim::TimeModel& ground_truth,
                         const PipelineOptions& options = {});

/// Execute a planned classification with the standard fallback chain:
/// memory-aware scheduling on the pool clamped to
/// `plan.planning_usable_bytes` and on the full device, the faster of
/// the two winning (ties go to the clamped run); if both OOM (timing
/// drift), on-demand swap-ins. Returns the chosen run (or the last
/// failure); with `options.record_stream` set it carries the op stream
/// it scored — the one path from a plan to a replayable stream.
sim::RunResult execute_plan(const sim::Runtime& runtime,
                            const PlannerResult& plan,
                            sim::RunOptions options = {});

/// Simulate `classes` on `runtime` and return the recorded replayable op
/// stream for exec::AsyncExecutor (plans go through execute_plan instead,
/// so the stream follows its fallback chain). Throws
/// pooch::Error when the simulation cannot complete under `options`
/// (simulated OOM) — an infeasible classification has no schedule to
/// replay.
exec::OpStream record_op_stream(const sim::Runtime& runtime,
                                const sim::Classification& classes,
                                sim::RunOptions options = {});

/// The in-core schedule: `graph`'s keep-all op stream, recorded on a
/// device large enough to keep every feature map resident.
exec::OpStream record_incore_stream(const graph::Graph& graph,
                                    const std::vector<graph::BwdStep>& tape);

/// The in-core reference every out-of-core execution is verified
/// against: train `data` through iterations [0, iterations) by replaying
/// record_incore_stream on one compute worker — serial program order.
/// Throws pooch::Error when the recording or a replay fails, so a reference
/// that did not run can never compare equal.
void run_incore_reference(const graph::Graph& graph,
                          const std::vector<graph::BwdStep>& tape,
                          sim::DataBackend& data, int iterations);

// ---------------------------------------------------------------------
// Measured-profile calibration loop (docs/PROFILING.md).
//
// run_pooch(...) and run_pooch_measured(...) are one sequence — profile
// the swap-all schedule, build one cost::CalibratedTimeModel over the
// profile, plan once — and differ only in the observer. run_pooch
// simulates noisy iterations of the analytic model (run_profiler);
// run_pooch_measured replays the swap-all stream through
// exec::AsyncExecutor on a real DataBackend and records wall-clock
// per-op times into a profile::MeasuredProfile (measure_op_stream). It
// then executes and measures the plan, and when the model's predicted
// iteration time drifts from the observed wall time by more than
// `replan_threshold`, rebuilds the model from the latest measurement,
// re-plans and continues training under the new plan. Every executed
// iteration remains bit-identical to serial in-core training.
// ---------------------------------------------------------------------

/// Upper bound on drift-triggered re-planning rounds.
inline constexpr int kMaxReplans = 2;

struct MeasuredPipelineOptions {
  /// Only `pipeline.planner` is read: the measured path profiles on the
  /// executor, so `pipeline.profile` (the simulated profiler) is unused.
  PipelineOptions pipeline;
  /// Wall-clock measurement: warm-up, median-of-k, outlier rejection.
  profile::MeasureOptions measure;
  /// Drift-injection knob of the calibrated model.
  cost::CalibrationOptions calibrate;
  /// Re-plan when |predicted - observed| / observed exceeds this.
  double replan_threshold = 0.25;
  /// Extra measured iterations executed under the final plan; the
  /// reported calibrated error is out-of-sample, scored on these.
  int validation_iterations = 2;
  /// Seed of the synthetic parameters/batch (matches the CLI's backend).
  std::uint64_t data_seed = 0x5eed;
  float learning_rate = 0.01f;
  /// Kernel execution context for the real runs (null = serial).
  kernels::KernelContext* kernel_ctx = nullptr;
  /// Collect a whole-session trace (all measured iterations
  /// concatenated on one clock) for obs::write_async_chrome_trace. Off
  /// by default — it retains every run's spans.
  bool collect_session_trace = false;
  /// Metrics sink (calibration.* and profile.drift.* metrics).
  obs::StatsRegistry* stats = nullptr;
};

struct MeasuredPipelineResult {
  bool ok = false;
  std::string failure;

  /// Wall-clock profile of the *last* measurement round.
  profile::MeasuredProfile measured{0, 0};
  /// Plan actually executing at the end: the plan made on the swap-all
  /// profile, or the last re-plan after drift.
  PlannerResult final_plan;

  // Planned-vs-actual iteration time of the final plan, both scored
  // against the observed median wall time of the final validation
  // iterations: on the analytic model, and on the model calibrated on
  // the final plan's own latest measured round.
  double roofline_predicted = 0.0;
  double calibrated_predicted = 0.0;
  double observed_seconds = 0.0;
  double roofline_error = 0.0;    // |roofline_predicted - observed|/observed
  double calibrated_error = 0.0;  // |calibrated_predicted - observed|/observed

  // Drift detector outcome.
  int drift_checks = 0;
  int replans = 0;
  double last_drift_error = 0.0;

  // Numeric verification: loss after all measured iterations, compared
  // bit-for-bit against a serial in-core run of the same trajectory.
  int iterations_executed = 0;
  float loss = 0.0f;
  bool bit_identical = false;

  /// Whole measured session on one clock (collect_session_trace): each
  /// executed run's stream ops, and parallel to them its measured spans
  /// shifted onto the session clock.
  exec::OpStream session_stream;
  std::vector<exec::OpSpan> session_spans;
  /// (seconds-into-session, label) re-plan instants for trace export.
  std::vector<std::pair<double, std::string>> trace_markers;
};

/// Run the measured calibration loop end-to-end:
/// profile swap-all on the executor -> calibrate -> plan -> execute &
/// measure -> drift check -> re-plan on drift -> validate -> verify
/// bit-identity. `ground_truth` records the swap-all schedule, is the
/// calibrated model's fallback for unobserved ops, and prices
/// `roofline_predicted`. `failure` names the phase that failed:
/// profiling (swap-all OOMs under every policy), planning, execution or
/// bit-identity.
MeasuredPipelineResult run_pooch_measured(
    const graph::Graph& graph, const std::vector<graph::BwdStep>& tape,
    const cost::MachineConfig& machine, const sim::TimeModel& ground_truth,
    const MeasuredPipelineOptions& options = {});

}  // namespace pooch::planner
