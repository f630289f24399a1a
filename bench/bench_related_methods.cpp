// Extension beyond the paper's comparison set: the related-work methods
// of §6 — vDNN-style conv offloading (Rhu et al. 2016) and Chen et al.'s
// sublinear-memory checkpointing (recompute only) — next to PoocH, on
// the paper's workloads plus VGG-16.
#include "bench_common.hpp"

using namespace pooch;

namespace {

void row(const char* name, graph::Graph g, std::int64_t batch,
         const cost::MachineConfig& machine) {
  bench::Workload w(std::move(g), machine);
  auto run = [&](const char* method,
                 const sim::Classification& c) -> std::string {
    sim::RunOptions ro;
    ro.record_stream = true;
    const auto r = w.rt.run(c, ro);
    bench::validate_run(w, method, r);
    return r.ok ? bench::fmt(r.throughput(batch), 0) : "OOM";
  };
  const auto incore =
      run("in-core", sim::Classification(w.g, sim::ValueClass::kKeep));
  const auto vdnn = run("vdnn", baselines::vdnn_conv_classify(w.g, w.tape));
  const auto sublinear =
      run("sublinear", baselines::sublinear_classify(w.g, w.tape));
  planner::PlannerResult plan;
  const auto pooch = bench::run_pooch_method(w, batch, &plan);
  std::printf("| %s (b=%ld) | %s | %s | %s | %s |\n", name,
              static_cast<long>(batch), incore.c_str(), vdnn.c_str(),
              sublinear.c_str(), bench::cell(pooch).c_str());
}

}  // namespace

int main() {
  std::printf("\n## Related methods (§6) — throughput [img/s] on x86-pcie\n\n");
  std::printf("| workload | in-core | vDNN (conv offload) | sublinear "
              "(recompute only) | PoocH |\n|---|---|---|---|---|\n");
  const auto machine = cost::x86_pcie();
  row("ResNet-50", models::resnet50(256), 256, machine);
  row("ResNet-50", models::resnet50(512), 512, machine);
  row("VGG-16", models::vgg16(192), 192, machine);
  row("VGG-16", models::vgg16(320), 320, machine);
  row("AlexNet", models::alexnet(4096), 4096, machine);
  std::printf(
      "\n(vDNN cannot shrink non-conv maps. Sublinear checkpointing only "
      "shrinks the forward-retention window — every conv input is still "
      "materialized through its own backward, so on VGG-style nets whose "
      "peak sits at the backward crossing it saves almost nothing and "
      "fragments. PoocH blends per map and wins everywhere it fits.)\n");
  return 0;
}
