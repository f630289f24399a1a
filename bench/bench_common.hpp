// Shared harness for the figure/table reproduction binaries.
//
// Each bench binary regenerates one table or figure of the paper's
// evaluation (see DESIGN.md §4) and prints a markdown table to stdout:
// series name, parameters, and the measured values. Absolute numbers
// come from the virtual machine models; the *shape* (who wins, by how
// much, where methods fail) is the reproduction target. EXPERIMENTS.md
// records paper-vs-measured for every row.
//
// Every method runs with its op stream recorded, and every completed
// run goes through the obs::TimelineValidator; any invariant violation
// aborts the bench with a diagnostic, so no reported number comes from
// a schedule that breaks the timeline invariants. The tier-1 ctest
// bench_validate runs the benches that together cover every method:
// in-core, swap-all with and without scheduling, swap-opt,
// SuperNeurons, vDNN, sublinear checkpointing and PoocH.
//
// The benches that gate regressions (bench_kernels, bench_async_exec,
// bench_calibration, bench_planner_cost) also write one JSON document
// through bench::Report below; tools/bench_compare.py diffs two of them.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "baselines/policies.hpp"
#include "baselines/superneurons.hpp"
#include "common/units.hpp"
#include "graph/autodiff.hpp"
#include "graph/liveness.hpp"
#include "models/models.hpp"
#include "obs/json.hpp"
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

/// The workload on the tightest out-of-core x86_pcie device on which
/// `feasible(workload)` holds. The device fits `pct` percent of `g`'s
/// keep-all activation headroom — peak minus the persistent parameter
/// pool, which can never be swapped — and loosens in `step`-point steps
/// up to 95: fragmentation and unswappable workspaces set a per-model
/// floor. Exits when keep-all fails even unclamped or no step is
/// feasible.
template <typename Feasible>
std::unique_ptr<Workload> tightest_feasible(const char* name,
                                            const graph::Graph& g, int pct,
                                            int step, Feasible&& feasible) {
  const Workload roomy(g, cost::x86_pcie());
  const auto keep =
      roomy.rt.run(sim::Classification(g, sim::ValueClass::kKeep));
  if (!keep.ok) {
    std::fprintf(stderr, "%s: keep-all probe failed: %s\n", name,
                 keep.failure.c_str());
    std::exit(1);
  }
  for (; pct <= 95; pct += step) {
    cost::MachineConfig m = roomy.machine;
    m.gpu_capacity_bytes =
        keep.persistent_bytes +
        (keep.peak_bytes - keep.persistent_bytes) * pct / 100;
    m.gpu_reserved_bytes = 0;
    auto w = std::make_unique<Workload>(g, m);
    if (feasible(*w)) return w;
  }
  std::fprintf(stderr, "%s: no feasible OOC capacity found\n", name);
  std::exit(1);
}

/// The one JSON document every regression-gated bench writes:
///
///   {"bench": <name>, "cpus": <hardware threads>, "key": [<field>, ...],
///    "metric": <field>, "better": "higher" | "lower", "rows": [...]}
///
/// Every row is a flat object holding each key field and the metric.
/// The bench that owns the rows declares how they are keyed and gated,
/// so tools/bench_compare.py reads both from the document and names no
/// bench.
class Report {
 public:
  enum class Better { kHigher, kLower };

  Report(std::string bench, std::vector<std::string> key, std::string metric,
         Better better)
      : bench_(std::move(bench)),
        key_(std::move(key)),
        metric_(std::move(metric)),
        better_(better) {}

  /// Append one row: it must hold every key field and the metric.
  void add(obs::json::Object row) { rows_.emplace_back(std::move(row)); }

  /// Write the document to argv[1], or to BENCH_<bench>.json when no
  /// path is given. Exits 1 when the file cannot be opened or written.
  void write(int argc, char** argv) const {
    const std::string path =
        argc > 1 ? argv[1] : "BENCH_" + bench_ + ".json";
    obs::json::Object doc;
    doc["bench"] = bench_;
    doc["cpus"] =
        static_cast<std::int64_t>(std::thread::hardware_concurrency());
    doc["key"] = obs::json::Array(key_.begin(), key_.end());
    doc["metric"] = metric_;
    doc["better"] = better_ == Better::kHigher ? "higher" : "lower";
    doc["rows"] = rows_;
    std::ofstream f(path, std::ios::trunc);
    if (f) f << obs::json::Value(std::move(doc)).dump() << "\n";
    if (!f) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      std::exit(1);
    }
    std::printf("\nrows written to %s\n", path.c_str());
  }

 private:
  std::string bench_;
  std::vector<std::string> key_;
  std::string metric_;
  Better better_;
  obs::json::Array rows_;
};

struct MethodResult {
  bool ok = false;
  double iteration_time = 0.0;
  double throughput = 0.0;  // images/s
  std::array<int, 3> counts{0, 0, 0};
};

/// Check a recorded run against the timeline invariants and abort
/// loudly on violation. No-op when the run did not complete.
inline void validate_run(const Workload& w, const char* what,
                         const sim::RunResult& r) {
  if (!r.ok) return;
  obs::TimelineValidator validator(w.g, w.tape);
  const obs::ValidationReport rep =
      validator.check_run(r, w.machine.usable_gpu_bytes());
  if (rep.ok()) return;
  std::fprintf(stderr, "%s violates timeline invariants\n%s", what,
               rep.to_string().c_str());
  std::exit(1);
}

inline MethodResult run_in_core(const Workload& w, std::int64_t batch) {
  sim::RunOptions ro;
  ro.record_stream = true;
  const auto r =
      w.rt.run(sim::Classification(w.g, sim::ValueClass::kKeep), ro);
  validate_run(w, "in-core", r);
  return {r.ok, r.iteration_time, r.ok ? r.throughput(batch) : 0.0, {}};
}

inline MethodResult run_swap_all(const Workload& w, std::int64_t batch,
                                 bool scheduled) {
  auto opts = scheduled ? baselines::swap_all_scheduled_options()
                        : baselines::swap_all_naive_options();
  opts.record_stream = true;
  const auto r =
      w.rt.run(sim::Classification(w.g, sim::ValueClass::kSwap), opts);
  validate_run(w, scheduled ? "swap-all" : "swap-all-naive", r);
  return {r.ok, r.iteration_time, r.ok ? r.throughput(batch) : 0.0, {}};
}

inline MethodResult run_superneurons(const Workload& w, std::int64_t batch) {
  const auto plan =
      baselines::superneurons_plan(w.g, w.tape, w.machine, w.tm);
  auto opts = baselines::superneurons_run_options();
  opts.record_stream = true;
  const auto r = w.rt.run(plan.classes, opts);
  validate_run(w, "superneurons", r);
  return {r.ok, r.iteration_time, r.ok ? r.throughput(batch) : 0.0,
          plan.counts};
}

inline MethodResult run_pooch_method(
    const Workload& w, std::int64_t batch,
    planner::PlannerResult* plan_out = nullptr) {
  const auto out = planner::run_pooch(w.g, w.tape, w.machine, w.tm);
  if (plan_out) *plan_out = out.plan;
  if (out.ok) validate_run(w, "pooch", out.execution);
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
