// The paper's headline scenario: ResNet-50 at batch 640 — a training
// iteration needing ~50 GB of device memory — on a single 16 GB V100,
// over PCIe. Compares every method the evaluation uses.
//
//   build/examples/out_of_core_resnet50 [batch]
#include <cstdio>
#include <cstdlib>

#include "baselines/policies.hpp"
#include "baselines/superneurons.hpp"
#include "common/strings.hpp"
#include "graph/autodiff.hpp"
#include "graph/liveness.hpp"
#include "models/models.hpp"
#include "pooch/pipeline.hpp"

using namespace pooch;

int main(int argc, char** argv) {
  const std::int64_t batch = argc > 1 ? std::atol(argv[1]) : 640;
  std::printf("ResNet-50, batch %ld, on a V100-16GB over PCIe gen3\n",
              static_cast<long>(batch));

  graph::Graph g = models::resnet50(batch);
  const auto tape = graph::build_backward_tape(g);
  const auto machine = cost::x86_pcie();
  const sim::CostTimeModel hardware(g, machine);
  const sim::Runtime runtime(g, tape, machine, hardware);

  std::printf("in-core memory requirement: %.1f GiB (device: %.1f GiB)\n\n",
              bytes_to_gib(graph::incore_peak_bytes(g)),
              bytes_to_gib(machine.gpu_capacity_bytes));

  auto report = [&](const char* name, const sim::RunResult& r) {
    if (r.ok) {
      std::printf("%-24s %8.0f img/s  (iteration %s, peak %.2f GiB)\n", name,
                  r.throughput(batch), format_time(r.iteration_time).c_str(),
                  bytes_to_gib(r.peak_bytes));
    } else {
      std::printf("%-24s      OOM\n", name);
    }
  };

  report("in-core",
         runtime.run(sim::Classification(g, sim::ValueClass::kKeep)));
  report("swap-all (w/o sched)",
         runtime.run(sim::Classification(g, sim::ValueClass::kSwap),
                     baselines::swap_all_naive_options()));
  report("swap-all",
         runtime.run(sim::Classification(g, sim::ValueClass::kSwap),
                     baselines::swap_all_scheduled_options()));

  const auto sn = baselines::superneurons_plan(g, tape, machine, hardware);
  report("superneurons",
         runtime.run(sn.classes, baselines::superneurons_run_options()));

  planner::PipelineOptions options;
  const auto pooch = planner::run_pooch(g, tape, machine, hardware, options);
  report("PoocH", pooch.execution);
  if (pooch.ok) {
    std::printf("\n%s", pooch.plan.summary().c_str());
    std::printf("profiled %d iterations (%s simulated time)\n",
                pooch.profile.iterations,
                format_time(pooch.profile.profiled_seconds).c_str());
  }
  return 0;
}
