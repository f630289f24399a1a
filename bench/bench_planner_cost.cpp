// §5.2 planner-cost claim: "profiling and optimization ... was about 2
// minutes even for resnext101 with >300 layers", amortized over training.
// Measures the real wall-clock of the PoocH search per model, the number
// of timeline simulations it runs split by phase (step-1 keep/swap
// search, step-2 recompute rounds), and how the parallel search and the
// candidate memo cache change both: a threads × cache sweep per model.
//
//   build/bench/bench_planner_cost [output.json]
//
// Besides the markdown tables, the bench writes a bench::Report
// (default BENCH_planner_cost.json) with one row per (model, threads,
// cache) cell: wall seconds, simulations per wall second, per-phase
// simulation counts, cache hits and forward_skip_share (the share of
// forward nodes the simulations skipped by resuming from a checkpoint).
// It is keyed on (model, threads, cache) and gated on sims_per_s, higher
// is better.
#include "bench_common.hpp"

using namespace pooch;

namespace {

/// One report row for a finished search.
void record_row(bench::Report& report, const char* name,
                const bench::Workload& w, const planner::PlannerResult& plan,
                bool cache) {
  obs::json::Object row;
  row["model"] = name;
  row["layers"] = w.g.num_nodes();
  row["feature_maps"] =
      static_cast<std::int64_t>(sim::classifiable_values(w.g, w.tape).size());
  row["threads"] = plan.threads_used;
  row["cache"] = cache;
  row["feasible"] = plan.feasible;
  row["search"] = plan.used_beam_fallback ? "beam" : "exact";
  row["wall_seconds"] = plan.planning_wall_seconds;
  row["sims_per_s"] = plan.planning_wall_seconds > 0.0
                          ? plan.simulations / plan.planning_wall_seconds
                          : 0.0;
  row["simulations"] = plan.simulations;
  row["step1_simulations"] = plan.step1_simulations;
  row["step2_simulations"] = plan.step2_simulations;
  row["cache_hits"] = plan.cache_hits;
  row["forward_skip_share"] = plan.forward_skip_share();
  row["recompute_rounds"] = plan.recompute_rounds;
  row["predicted_time"] = plan.predicted_time;
  report.add(std::move(row));
}

struct Cell {
  double wall = 0.0;
  int simulations = 0;
};

/// Plan once under (threads, cache); record the report row.
Cell run_cell(bench::Report& report, const char* name,
              const bench::Workload& w, int threads, bool cache,
              const planner::PlannerResult* reference) {
  planner::PlannerOptions po;
  po.threads = threads;
  po.cache = cache;
  planner::PoochPlanner planner(w.g, w.tape, w.machine, w.tm, po);
  const auto plan = planner.plan();

  // The parallel/cached searches must land on the very plan the
  // sequential search chose — determinism is part of what this bench
  // certifies (the test suite asserts it too; here it guards the
  // numbers below from comparing different searches).
  if (reference &&
      (plan.classes.serialize() != reference->classes.serialize() ||
       plan.predicted_time != reference->predicted_time)) {
    std::fprintf(stderr,
                 "FATAL: %s threads=%d cache=%d diverged from the "
                 "sequential plan\n",
                 name, threads, cache ? 1 : 0);
    std::exit(1);
  }

  record_row(report, name, w, plan, cache);

  return {plan.planning_wall_seconds, plan.simulations};
}

void model_rows(bench::Report& report, const char* name, graph::Graph g,
                const cost::MachineConfig& machine) {
  bench::Workload w(std::move(g), machine);

  // Sequential, cache off: the reference search every other cell must
  // reproduce bit-identically.
  planner::PlannerOptions ref_po;
  ref_po.threads = 1;
  ref_po.cache = false;
  planner::PoochPlanner ref_planner(w.g, w.tape, w.machine, w.tm, ref_po);
  const auto ref = ref_planner.plan();

  std::printf("| %s | %d | %zu | %d | %d | %d | %s | %s | %s |\n", name,
              w.g.num_nodes(),
              sim::classifiable_values(w.g, w.tape).size(), ref.simulations,
              ref.step1_simulations, ref.step2_simulations,
              bench::fmt(ref.forward_skip_share(), 3).c_str(),
              bench::fmt(ref.planning_wall_seconds, 2).c_str(),
              ref.feasible ? (ref.used_beam_fallback ? "beam" : "exact")
                           : "infeasible");

  record_row(report, name, w, ref, ref_po.cache);

  if (!ref.feasible) return;

  // The sweep: cache alone, then threads × cache. Wall-clock speedups
  // depend on the machine running the bench (report, don't assert);
  // simulation counts are deterministic.
  struct Config {
    int threads;
    bool cache;
  };
  const Config sweep[] = {{1, true}, {2, true}, {4, true}, {8, true}};
  std::printf("|   sweep |  |  |  |  |  |  |  |  |\n");
  const double base = ref.planning_wall_seconds;
  for (const Config& cfg : sweep) {
    const Cell cell =
        run_cell(report, name, w, cfg.threads, cfg.cache, &ref);
    std::printf("|   threads=%d cache=%s | | | %d | | | | %s | x%.2f |\n",
                cfg.threads, cfg.cache ? "on" : "off", cell.simulations,
                bench::fmt(cell.wall, 2).c_str(),
                cell.wall > 0.0 ? base / cell.wall : 0.0);
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::Report report("planner_cost", {"model", "threads", "cache"},
                       "sims_per_s", bench::Report::Better::kHigher);
  std::printf("\n## Planner cost (paper: ~2 min for ResNeXt-101, amortized)\n\n");
  std::printf("| model | layers | feature maps | simulations | step1 | step2 "
              "| forward skip share | wall time (s) | search |\n"
              "|---|---|---|---|---|---|---|---|---|\n");
  const auto x86 = cost::x86_pcie();
  model_rows(report, "paper-example (b16)",
             models::paper_example(16, 56, 64), cost::test_machine(96));
  model_rows(report, "AlexNet (b4096)", models::alexnet(4096), x86);
  model_rows(report, "ResNet-18 (b512)", models::resnet18(512), x86);
  model_rows(report, "ResNet-50 (b256)", models::resnet50(256), x86);
  model_rows(report, "ResNet-50 (b640)", models::resnet50(640), x86);
  model_rows(report, "ResNeXt-101 3D (96x384)",
             models::resnext101_3d(1, 96, 384), x86);

  report.write(argc, argv);
  return 0;
}
