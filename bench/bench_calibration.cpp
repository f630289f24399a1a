// Planned-vs-actual iteration time: analytic roofline vs measured-time
// calibration (docs/PROFILING.md).
//
//   build/bench/bench_calibration [output.json]
//
// For each OOC workload (ResNet-50 and AlexNet under a device capacity
// tight enough to force swap traffic) the bench runs the full measured
// calibration loop — profile the swap-all schedule for real through
// exec::AsyncExecutor, build the planner's time source as a
// cost::CalibratedTimeModel from the measured per-op wall times, plan
// once, execute and measure the plan — and scores both models, each
// simulating the final plan, out-of-sample against the observed median
// wall time of the final validation iterations:
//
//   roofline_error   = |roofline_predicted   - observed| / observed
//   calibrated_error = |calibrated_predicted - observed| / observed
//
// The analytic model prices a simulated V100; the kernels run on this
// host's CPU, so roofline_error is expected to be near 100% while the
// calibrated model tracks the machine it measured. Every measured
// iteration is verified bit-identical to serial in-core training; a
// mismatch or a calibrated model that fails to beat the roofline aborts
// the bench (the acceptance bar, not a soft warning). The bench::Report
// (default BENCH_calibration.json) is keyed on `model` and gated on
// calibrated_error, lower is better.
#include <cstdio>

#include "bench_common.hpp"
#include "kernels/kernel_context.hpp"

namespace pooch::bench {
namespace {

void run_workload(const char* name, const graph::Graph& g, int capacity_pct,
                  Report& report) {
  // Loosen in 5-point steps until both the swap-all profiling pass and
  // the planner's classification are feasible (bench_async_exec's probe,
  // plus the planner — the calibration loop needs a plan to execute).
  // AlexNet's FC-heavy parameter pool leaves little activation headroom,
  // so its feasibility floor sits much higher than ResNet-50's.
  const auto wp = tightest_feasible(
      name, g, capacity_pct, 5, [](const Workload& w) {
        try {
          (void)planner::record_op_stream(
              w.rt, sim::Classification(w.g, sim::ValueClass::kSwap));
          planner::PoochPlanner probe(w.g, w.tape, w.machine, w.tm);
          return probe.plan().feasible;
        } catch (const Error&) {
          return false;
        }
      });
  const Workload& w = *wp;

  kernels::KernelContext kctx(2);
  planner::MeasuredPipelineOptions mo;
  mo.measure.iterations = 3;
  mo.measure.warmup_iterations = 1;
  mo.kernel_ctx = &kctx;
  const auto out =
      planner::run_pooch_measured(w.g, w.tape, w.machine, w.tm, mo);
  if (!out.failure.empty()) {
    std::fprintf(stderr, "%s: calibration loop failed: %s\n", name,
                 out.failure.c_str());
    std::exit(1);
  }
  if (!out.bit_identical) {
    std::fprintf(stderr, "%s: NOT bit-identical to in-core reference\n",
                 name);
    std::exit(1);
  }
  if (out.calibrated_error >= out.roofline_error) {
    std::fprintf(stderr,
                 "%s: calibrated error %.3f did not beat roofline %.3f\n",
                 name, out.calibrated_error, out.roofline_error);
    std::exit(1);
  }

  const auto& counts = out.final_plan.counts;
  obs::json::Object row;
  row["model"] = name;
  row["keep"] = counts[0];
  row["swap"] = counts[1];
  row["recompute"] = counts[2];
  row["observed_seconds"] = out.observed_seconds;
  row["roofline_error"] = out.roofline_error;
  row["calibrated_error"] = out.calibrated_error;
  row["drift_checks"] = out.drift_checks;
  row["replans"] = out.replans;
  row["bit_identical"] = out.bit_identical;
  report.add(std::move(row));
  std::printf("| %-10s | %2d/%2d/%2d | %10.4f | %9.1f%% | %11.1f%% | %d |\n",
              name, counts[0], counts[1], counts[2], out.observed_seconds,
              out.roofline_error * 100.0, out.calibrated_error * 100.0,
              out.replans);
}

int run(int argc, char** argv) {
  Report report("calibration", {"model"}, "calibrated_error",
                Report::Better::kLower);
  std::printf("| model      | k/s/r    | observed s | roofline   "
              "| calibrated   | replans |\n"
              "|------------|----------|------------|------------"
              "|--------------|---------|\n");
  // Same OOC configurations as bench_async_exec: small-resolution
  // ResNet-50 and stock AlexNet, device clamped to 60% of keep-all peak.
  run_workload("resnet50", models::resnet50(4, 64, 64), /*capacity_pct=*/60,
               report);
  run_workload("alexnet", models::alexnet(16, 64), /*capacity_pct=*/60,
               report);
  report.write(argc, argv);
  return 0;
}

}  // namespace
}  // namespace pooch::bench

int main(int argc, char** argv) { return pooch::bench::run(argc, argv); }
