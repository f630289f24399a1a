// Figures 15 and 16: contribution of each optimization, on the x86
// (PCIe) machine and the POWER9 (NVLink) machine. Speedups are relative
// to "swap-all (w/o scheduling)", as in the paper.
// Paper shape: swap-all +2-14%; swap-opt x1.4-3.0 over swap-all; PoocH
// highest everywhere, with the largest step over swap-opt on ResNet-50 /
// x86 (recompute matters there) and almost none on AlexNet or POWER9.
#include "bench_common.hpp"

using namespace pooch;

namespace {

void ablation_row(const char* model_name, graph::Graph g, std::int64_t batch,
                  const cost::MachineConfig& machine) {
  bench::Workload w(std::move(g), machine);
  const auto naive = bench::run_swap_all(w, batch, /*scheduled=*/false);
  const auto sched = bench::run_swap_all(w, batch, /*scheduled=*/true);

  planner::PoochPlanner planner(w.g, w.tape, w.machine, w.tm);
  const auto opt_plan = planner.plan_keep_swap_only();
  const auto pooch_plan = planner.plan();
  sim::RunOptions ro;
  ro.record_stream = true;
  const auto opt_run = planner::execute_plan(w.rt, opt_plan, ro);
  const auto pooch_run = planner::execute_plan(w.rt, pooch_plan, ro);
  bench::validate_run(w, "swap-opt", opt_run);
  bench::validate_run(w, "pooch", pooch_run);

  auto speedup = [&](bool ok, double t) {
    return ok && naive.ok ? naive.iteration_time / t : 0.0;
  };
  std::printf("| %s (b=%ld) | 1.00 | %s | %s | %s |\n", model_name,
              static_cast<long>(batch),
              bench::fmt(speedup(sched.ok, sched.iteration_time), 2).c_str(),
              bench::fmt(speedup(opt_run.ok, opt_run.iteration_time), 2)
                  .c_str(),
              bench::fmt(speedup(pooch_run.ok, pooch_run.iteration_time), 2)
                  .c_str());
}

void machine_section(const char* fig, const cost::MachineConfig& machine) {
  std::printf("\n## %s — per-optimization speedup on %s\n\n", fig,
              machine.name.c_str());
  std::printf("| workload | swap-all (w/o sched) | swap-all | swap-opt | "
              "PoocH |\n|---|---|---|---|---|\n");
  ablation_row("ResNet-50", models::resnet50(384), 384, machine);
  ablation_row("ResNet-50", models::resnet50(512), 512, machine);
  ablation_row("AlexNet", models::alexnet(4096), 4096, machine);
}

}  // namespace

int main() {
  machine_section("Figure 15", cost::x86_pcie());
  machine_section("Figure 16", cost::power9_nvlink());
  return 0;
}
