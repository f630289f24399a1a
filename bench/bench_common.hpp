// Shared harness for the figure/table reproduction binaries.
//
// Each bench binary regenerates one table or figure of the paper's
// evaluation (see DESIGN.md §4) and prints a markdown table to stdout:
// series name, parameters, and the measured values. Absolute numbers
// come from the virtual machine models; the *shape* (who wins, by how
// much, where methods fail) is the reproduction target. EXPERIMENTS.md
// records paper-vs-measured for every row.
//
// Set POOCH_BENCH_VALIDATE=1 in the environment to run every method
// with its op stream recorded and push the result through the
// obs::TimelineValidator; any invariant violation aborts the bench with
// a diagnostic. The tier-1 ctest bench_validate does this for three
// benches to keep the simulator honest while the default bench runs
// stay fast.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>

#include "baselines/policies.hpp"
#include "baselines/superneurons.hpp"
#include "common/units.hpp"
#include "graph/autodiff.hpp"
#include "graph/liveness.hpp"
#include "models/models.hpp"
#include "obs/validate.hpp"
#include "pooch/pipeline.hpp"

namespace pooch::bench {

struct Workload {
  graph::Graph g;
  std::vector<graph::BwdStep> tape;
  cost::MachineConfig machine;
  sim::CostTimeModel tm;
  sim::Runtime rt;

  Workload(graph::Graph graph, const cost::MachineConfig& m)
      : g(std::move(graph)),
        tape(graph::build_backward_tape(g)),
        machine(m),
        tm(g, machine),
        rt(g, tape, machine, tm) {}
};

struct MethodResult {
  bool ok = false;
  double iteration_time = 0.0;
  double throughput = 0.0;  // images/s
  std::array<int, 3> counts{0, 0, 0};
};

inline bool validate_enabled() {
  static const bool on = [] {
    const char* v = std::getenv("POOCH_BENCH_VALIDATE");
    return v != nullptr && *v != '\0' && *v != '0';
  }();
  return on;
}

/// POOCH_BENCH_VALIDATE hook: check a recorded run against the timeline
/// invariants and abort loudly on violation. No-op when validation is
/// off or the run did not complete.
inline void validate_run(const Workload& w, const char* what,
                         const sim::RunResult& r) {
  if (!validate_enabled() || !r.ok) return;
  obs::TimelineValidator validator(w.g, w.tape);
  const obs::ValidationReport rep =
      validator.check_run(r, w.machine.usable_gpu_bytes());
  if (rep.ok()) return;
  std::fprintf(stderr, "POOCH_BENCH_VALIDATE: %s violates timeline "
               "invariants\n%s", what, rep.to_string().c_str());
  std::exit(1);
}

inline MethodResult run_in_core(const Workload& w, std::int64_t batch) {
  sim::RunOptions ro;
  ro.record_stream = validate_enabled();
  const auto r =
      w.rt.run(sim::Classification(w.g, sim::ValueClass::kKeep), ro);
  validate_run(w, "in-core", r);
  return {r.ok, r.iteration_time, r.ok ? r.throughput(batch) : 0.0, {}};
}

inline MethodResult run_swap_all(const Workload& w, std::int64_t batch,
                                 bool scheduled) {
  auto opts = scheduled ? baselines::swap_all_scheduled_options()
                        : baselines::swap_all_naive_options();
  opts.record_stream = validate_enabled();
  const auto r =
      w.rt.run(sim::Classification(w.g, sim::ValueClass::kSwap), opts);
  validate_run(w, scheduled ? "swap-all" : "swap-all-naive", r);
  return {r.ok, r.iteration_time, r.ok ? r.throughput(batch) : 0.0, {}};
}

inline MethodResult run_superneurons(const Workload& w, std::int64_t batch) {
  const auto plan =
      baselines::superneurons_plan(w.g, w.tape, w.machine, w.tm);
  auto opts = baselines::superneurons_run_options();
  opts.record_stream = validate_enabled();
  const auto r = w.rt.run(plan.classes, opts);
  validate_run(w, "superneurons", r);
  return {r.ok, r.iteration_time, r.ok ? r.throughput(batch) : 0.0,
          plan.counts};
}

inline MethodResult run_pooch_method(const Workload& w, std::int64_t batch,
                                     planner::PlannerResult* plan_out = nullptr,
                                     bool swap_opt_only = false) {
  planner::PipelineOptions po;
  if (swap_opt_only) po.planner.enable_recompute = false;
  const auto out = planner::run_pooch(w.g, w.tape, w.machine, w.tm, po);
  if (plan_out) *plan_out = out.plan;
  if (validate_enabled() && out.ok) {
    // The pipeline's execution runs without recording; repeat it with
    // recording on so there are spans to validate.
    sim::RunOptions ro;
    ro.record_stream = true;
    validate_run(w, "pooch", planner::execute_plan(w.rt, out.plan, ro));
  }
  return {out.ok, out.iteration_time, out.throughput(batch), out.plan.counts};
}

inline std::string fmt(double v, int digits = 1) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return buf;
}

inline std::string cell(const MethodResult& r, int digits = 0) {
  return r.ok ? fmt(r.throughput, digits) : std::string("OOM");
}

inline void print_header(const char* title, const char* columns) {
  std::printf("\n## %s\n\n%s\n", title, columns);
}

}  // namespace pooch::bench
