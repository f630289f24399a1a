// Property/fuzz tests over randomly generated graphs and random
// classifications. The invariants:
//   - the runtime either completes or reports OOM — never throws, never
//     corrupts accounting (peak <= capacity, busy <= span);
//   - every feasible classification executes numerically bit-identical
//     to the in-core run (real kernels attached);
//   - plan structure stays consistent (every swapped-in value has uses,
//     recompute preps appear in topological order).
#include <gtest/gtest.h>

#include "baselines/policies.hpp"
#include "baselines/superneurons.hpp"
#include "common/rng.hpp"
#include "graph/autodiff.hpp"
#include "obs/validate.hpp"
#include "pooch/pipeline.hpp"
#include "sim/runtime.hpp"
#include "tensor/tensor_ops.hpp"
#include "testing_util.hpp"

namespace pooch::sim {
namespace {

using graph::Graph;
using graph::ValueId;
// The random-DAG builder lives in testing_util.hpp, shared with
// test_planner_parallel.cpp so both suites fuzz the same corpus.
using pooch::testing::random_graph;

Classification random_classes(const Graph& g, Rng& rng) {
  Classification c(g, ValueClass::kKeep);
  for (const auto& v : g.values()) {
    if (v.producer == graph::kNoNode) {
      if (rng.uniform() < 0.3) c.set(v.id, ValueClass::kSwap);
      continue;
    }
    switch (rng.below(3)) {
      case 0: c.set(v.id, ValueClass::kSwap); break;
      case 1: c.set(v.id, ValueClass::kRecompute); break;
      default: break;
    }
  }
  return c;
}

class RandomGraphFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomGraphFuzz, PlanInvariantsHold) {
  const Graph g = random_graph(GetParam());
  const auto tape = graph::build_backward_tape(g);
  Rng rng(GetParam() * 7919);
  for (int round = 0; round < 5; ++round) {
    const Classification c = random_classes(g, rng);
    const auto plan = build_backward_plan(g, tape, c);
    // Every swapped-in value has backward uses and a valid last-use.
    for (const SwapInNeed& need : plan.swapin_order) {
      const auto v = static_cast<std::size_t>(need.value);
      EXPECT_GT(plan.bwd_uses[v], 0);
      EXPECT_GE(plan.last_use_step[v], need.step);
      EXPECT_GE(need.step, 0);
    }
    // Recompute preps: within each step, a recomputed value's producer
    // inputs were materialized by earlier preps or are keep/swapped-in.
    for (std::size_t k = 0; k < plan.steps.size(); ++k) {
      std::vector<char> ready(static_cast<std::size_t>(g.num_values()), 0);
      for (const auto& prep : plan.steps[k].preps) {
        if (prep.kind == PrepOp::Kind::kRecompute) {
          for (ValueId in : g.node(prep.node).inputs) {
            const auto cls = c.of(in);
            const bool ok = cls == ValueClass::kKeep ||
                            cls == ValueClass::kSwap ||
                            ready[static_cast<std::size_t>(in)] ||
                            plan.last_use_step[static_cast<std::size_t>(
                                in)] >= 0;
            EXPECT_TRUE(ok) << "seed " << GetParam() << " step " << k;
          }
        }
        ready[static_cast<std::size_t>(prep.value)] = 1;
      }
    }
  }
}

TEST_P(RandomGraphFuzz, RuntimeNeverLiesAboutMemory) {
  const Graph g = random_graph(GetParam());
  const auto tape = graph::build_backward_tape(g);
  Rng rng(GetParam() * 104729);
  for (std::size_t cap_mib : {2, 8, 64}) {
    auto machine = cost::test_machine(cap_mib);
    machine.link_gbps = 1.0 + rng.uniform() * 10.0;
    const CostTimeModel tm(g, machine);
    const Runtime rt(g, tape, machine, tm);
    for (int round = 0; round < 4; ++round) {
      const Classification c = random_classes(g, rng);
      const RunResult r = rt.run(c);
      if (r.ok) {
        EXPECT_LE(r.peak_bytes, machine.usable_gpu_bytes());
        EXPECT_GE(r.iteration_time, r.compute_busy - 1e-12);
        EXPECT_GE(r.swapin_stall + r.memory_stall, -1e-12);
      } else {
        EXPECT_TRUE(r.oom);
        EXPECT_FALSE(r.failure.empty());
      }
    }
  }
}

TEST_P(RandomGraphFuzz, FeasibleClassificationsAreNumericallyExact) {
  const Graph g = random_graph(GetParam());
  const auto tape = graph::build_backward_tape(g);
  auto machine = cost::test_machine(512);
  const CostTimeModel tm(g, machine);
  const Runtime rt(g, tape, machine, tm);

  const auto reference =
      pooch::testing::serial_reference(g, tape, 1, GetParam());

  Rng rng(GetParam() * 28657);
  for (int round = 0; round < 3; ++round) {
    const Classification c = random_classes(g, rng);
    ASSERT_TRUE(rt.run(c).ok);
    const auto backend =
        pooch::testing::async_replay(rt, c, 1, 1, {}, 1, GetParam());
    EXPECT_EQ(backend->first_difference(*reference), "")
        << "seed " << GetParam();
  }
}

TEST_P(RandomGraphFuzz, EveryTimelineSatisfiesTheValidator) {
  const Graph g = random_graph(GetParam());
  const auto tape = graph::build_backward_tape(g);
  const obs::TimelineValidator validator(g, tape);
  Rng rng(GetParam() * 6151);

  auto check = [&](const cost::MachineConfig& machine, const char* what,
                   const RunResult& r) {
    if (!r.ok) return;  // OOM outcomes carry no complete stream
    const auto rep = validator.check_run(r, machine.usable_gpu_bytes());
    EXPECT_TRUE(rep.ok()) << "seed " << GetParam() << " " << what << "\n"
                          << rep.to_string();
  };

  for (std::size_t cap_mib : {4, 32, 256}) {
    auto machine = cost::test_machine(cap_mib);
    machine.link_gbps = 1.0 + rng.uniform() * 10.0;
    const CostTimeModel tm(g, machine);
    const Runtime rt(g, tape, machine, tm);

    RunOptions ro;
    ro.record_stream = true;
    check(machine, "in-core",
          rt.run(Classification(g, ValueClass::kKeep), ro));

    for (bool scheduled : {false, true}) {
      auto opts = scheduled ? baselines::swap_all_scheduled_options()
                            : baselines::swap_all_naive_options();
      opts.record_stream = true;
      check(machine, scheduled ? "swap-all" : "swap-all-naive",
            rt.run(Classification(g, ValueClass::kSwap), opts));
    }

    const auto sn = baselines::superneurons_plan(g, tape, machine, tm);
    auto sn_opts = baselines::superneurons_run_options();
    sn_opts.record_stream = true;
    check(machine, "superneurons", rt.run(sn.classes, sn_opts));

    const planner::PoochPlanner planner(g, tape, machine, tm);
    const auto plan = planner.plan();
    if (plan.feasible) {
      check(machine, "pooch", planner::execute_plan(rt, plan, ro));
    }

    // Random classifications exercise schedules no planner would emit.
    for (int round = 0; round < 3; ++round) {
      check(machine, "random", rt.run(random_classes(g, rng), ro));
    }
  }
}

TEST_P(RandomGraphFuzz, RecordingDoesNotPerturbTheSimulation) {
  // Recording only appends ops: under every swap-in policy a recorded run
  // scores exactly like an unrecorded one, and the recorded ops add up
  // to the run's accounting bit for bit.
  const Graph g = random_graph(GetParam());
  const auto tape = graph::build_backward_tape(g);
  Rng rng(GetParam() * 3571);
  int recorded_runs = 0;
  for (std::size_t cap_mib : {2, 8, 64}) {
    auto machine = cost::test_machine(cap_mib);
    machine.link_gbps = 1.0 + rng.uniform() * 10.0;
    const CostTimeModel tm(g, machine);
    const Runtime rt(g, tape, machine, tm);
    std::vector<Classification> corpus{Classification(g, ValueClass::kKeep),
                                       Classification(g, ValueClass::kSwap)};
    for (int round = 0; round < 3; ++round) {
      corpus.push_back(random_classes(g, rng));
    }
    for (const Classification& c : corpus) {
      for (const SwapInPolicy policy :
           {SwapInPolicy::kOnDemand, SwapInPolicy::kLookahead1,
            SwapInPolicy::kLookaheadPrevConv,
            SwapInPolicy::kEagerMemoryAware}) {
        RunOptions off;
        off.swapin_policy = policy;
        RunOptions on = off;
        on.record_stream = true;
        const RunResult a = rt.run(c, off);
        const RunResult b = rt.run(c, on);
        const std::string what = "seed " + std::to_string(GetParam()) +
                                 " cap " + std::to_string(cap_mib) +
                                 " policy " +
                                 std::to_string(static_cast<int>(policy));
        ASSERT_EQ(a.ok, b.ok) << what;
        EXPECT_TRUE(a.stream.ops.empty()) << what;
        EXPECT_EQ(a.iteration_time, b.iteration_time) << what;
        EXPECT_EQ(a.forward_time, b.forward_time) << what;
        EXPECT_EQ(a.peak_bytes, b.peak_bytes) << what;
        EXPECT_EQ(a.peak_arena_bytes, b.peak_arena_bytes) << what;
        EXPECT_EQ(a.peak_host_bytes, b.peak_host_bytes) << what;
        EXPECT_EQ(a.compute_busy, b.compute_busy) << what;
        EXPECT_EQ(a.d2h_busy, b.d2h_busy) << what;
        EXPECT_EQ(a.h2d_busy, b.h2d_busy) << what;
        EXPECT_EQ(a.compute_stall, b.compute_stall) << what;
        EXPECT_EQ(a.swapin_stall, b.swapin_stall) << what;
        EXPECT_EQ(a.memory_stall, b.memory_stall) << what;
        EXPECT_EQ(a.stall_by_value, b.stall_by_value) << what;
        EXPECT_EQ(a.unhidden_swapouts, b.unhidden_swapouts) << what;
        EXPECT_EQ(a.unhidden_swapins, b.unhidden_swapins) << what;
        if (!b.ok) {
          EXPECT_TRUE(b.stream.ops.empty()) << what;
          continue;
        }
        ++recorded_runs;
        double busy[exec::kNumLanes] = {};
        double stall = 0.0;
        for (const exec::StreamOp& op : b.stream.ops) {
          busy[exec::lane_of(op.type)] += op.sim_end - op.sim_start;
          stall += op.stall;
        }
        EXPECT_EQ(busy[exec::kComputeLane], b.compute_busy) << what;
        EXPECT_EQ(busy[exec::kD2HLane], b.d2h_busy) << what;
        EXPECT_EQ(busy[exec::kH2DLane], b.h2d_busy) << what;
        EXPECT_EQ(stall, b.compute_stall) << what;
      }
    }
  }
  EXPECT_GT(recorded_runs, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomGraphFuzz,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u,
                                           55u, 89u));

}  // namespace
}  // namespace pooch::sim
