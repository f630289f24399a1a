// Method illustrations (Figures 2, 7, 10, 11, 13): the paper's 8-layer
// running example rendered as ASCII timelines, with the exposed swap
// sets L_O / L_I extracted the way the classifier sees them.
#include "bench_common.hpp"

using namespace pooch;

namespace {

void show(const char* title, const bench::Workload& w,
          const sim::Classification& classes, const sim::RunOptions& opts) {
  sim::RunOptions ro = opts;
  ro.record_stream = true;
  const auto r = w.rt.run(classes, ro);
  bench::validate_run(w, title, r);
  std::printf("\n### %s\n", title);
  if (!r.ok) {
    std::printf("OOM: %s\n", r.failure.c_str());
    return;
  }
  std::printf("iteration %s, compute stall %s (swap-in %s, memory %s)\n",
              bench::fmt(sec_to_ms(r.iteration_time), 2).c_str(),
              bench::fmt(sec_to_ms(r.compute_stall), 2).c_str(),
              bench::fmt(sec_to_ms(r.swapin_stall), 2).c_str(),
              bench::fmt(sec_to_ms(r.memory_stall), 2).c_str());
  std::fputs(r.stream.render().c_str(), stdout);
  std::printf("L_O (unhidden swap-outs): {");
  for (auto v : r.unhidden_swapouts) std::printf(" v%d", v);
  std::printf(" }\nL_I (unhidden swap-ins):  {");
  for (auto v : r.unhidden_swapins) std::printf(" v%d", v);
  std::printf(" }\n");
}

}  // namespace

int main() {
  auto machine = cost::test_machine(96);
  machine.link_gbps = 3.0;
  bench::Workload w(models::paper_example(16, 56, 64), machine);

  std::printf("## Timeline anatomy — the paper's 8-layer example\n");
  std::printf("(F forward, B backward, R recompute, o swap-out, i swap-in, "
              "U update, # stall)\n");

  show("Figure 2 — in-core (classes: all keep, unconstrained)",
       bench::Workload(models::paper_example(16, 56, 64),
                       cost::test_machine(1024)),
       sim::Classification(w.g, sim::ValueClass::kKeep), {});

  show("Figure 7 — swap-all without scheduling (one-step lookahead)", w,
       sim::Classification(w.g, sim::ValueClass::kSwap),
       baselines::swap_all_naive_options());

  show("Figure 10 — swap-all with the eager swap-in scheduling of §4.3", w,
       sim::Classification(w.g, sim::ValueClass::kSwap),
       baselines::swap_all_scheduled_options());

  // Figures 11/13/14: the classification the planner derives from the
  // exposed sets above.
  planner::PoochPlanner planner(w.g, w.tape, w.machine, w.tm);
  const auto plan = planner.plan();
  std::printf("\n### Figures 11/13/14 — PoocH classification from L_O/L_I\n");
  std::fputs(plan.summary().c_str(), stdout);
  show("PoocH plan executed", w, plan.classes, {});
  return 0;
}
