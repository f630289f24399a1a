// The parallel planner's determinism contract: at any thread count, with
// the memo cache on or off, the search must choose the *bit-identical*
// plan the sequential search chooses — same classification string, same
// predicted time, same L_O/L_I sets, same planning capacity — and the
// real-simulation count with the cache on must never exceed the count
// with it off. Exercised over the shared random-graph fuzz corpus and
// the real model zoo (ResNet-50, AlexNet on x86+PCIe).
//
// The argument for why this holds is in docs/ALGORITHMS.md ("Why the
// parallel search is deterministic"); this test is the teeth.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>

#include "common/thread_pool.hpp"
#include "graph/autodiff.hpp"
#include "models/models.hpp"
#include "obs/stats.hpp"
#include "pooch/planner.hpp"
#include "testing_util.hpp"

namespace pooch::planner {
namespace {

using graph::Graph;

struct Rig {
  Graph g;
  std::vector<graph::BwdStep> tape;
  cost::MachineConfig machine;
  std::unique_ptr<sim::CostTimeModel> tm;

  Rig(Graph graph, cost::MachineConfig m)
      : g(std::move(graph)), tape(graph::build_backward_tape(g)),
        machine(m) {
    tm = std::make_unique<sim::CostTimeModel>(g, machine);
  }
};

PlannerResult plan_with(const Rig& rig, int threads, bool cache) {
  PlannerOptions po;
  po.threads = threads;
  po.cache = cache;
  PoochPlanner planner(rig.g, rig.tape, rig.machine, *rig.tm, po);
  return planner.plan();
}

/// Everything the plan hands to the executor must match, not just the
/// headline classification.
void expect_identical(const PlannerResult& got, const PlannerResult& ref,
                      const std::string& what) {
  EXPECT_EQ(got.feasible, ref.feasible) << what;
  EXPECT_EQ(got.classes.serialize(), ref.classes.serialize()) << what;
  // Bit-identical, not approximately equal: the parallel reduction must
  // replay the sequential comparison sequence exactly.
  EXPECT_EQ(got.predicted_time, ref.predicted_time) << what;
  EXPECT_EQ(got.predicted_peak, ref.predicted_peak) << what;
  EXPECT_EQ(got.lo, ref.lo) << what;
  EXPECT_EQ(got.li, ref.li) << what;
  EXPECT_EQ(got.counts, ref.counts) << what;
  EXPECT_EQ(got.planning_usable_bytes, ref.planning_usable_bytes) << what;
  EXPECT_EQ(got.recompute_rounds, ref.recompute_rounds) << what;
  EXPECT_EQ(got.used_beam_fallback, ref.used_beam_fallback) << what;
}

void check_all_configs(const Rig& rig) {
  const PlannerResult ref = plan_with(rig, /*threads=*/1, /*cache=*/false);
  for (int threads : {1, 2, 8}) {
    for (bool cache : {false, true}) {
      if (threads == 1 && !cache) continue;  // that's the reference
      const PlannerResult got = plan_with(rig, threads, cache);
      expect_identical(got, ref,
                       "threads=" + std::to_string(threads) +
                           " cache=" + (cache ? std::string("on")
                                              : std::string("off")));
      if (threads > 1) {
        EXPECT_GT(got.threads_used, 1);
      }
      // The cache may only remove simulations, never add them, and a
      // cache-off run must have no hits to report.
      EXPECT_LE(got.simulations, ref.simulations);
      if (!cache) {
        EXPECT_EQ(got.cache_hits, 0);
      }
    }
  }
}

class PlannerParallelFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PlannerParallelFuzz, ParallelAndCachedPlansMatchSequential) {
  // Two capacities per seed: one tight (deep search with real L_I sets
  // and recompute rounds), one roomy (mostly-keep plans).
  for (std::size_t cap_mib : {8, 64}) {
    Rig rig(pooch::testing::random_graph(GetParam()),
            cost::test_machine(cap_mib));
    check_all_configs(rig);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlannerParallelFuzz,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u,
                                           55u, 89u));

TEST(PlannerParallel, ResNet50MatchesSequential) {
  Rig rig(models::resnet50(256), cost::x86_pcie());
  const PlannerResult ref = plan_with(rig, 1, false);
  for (int threads : {2, 8}) {
    for (bool cache : {false, true}) {
      expect_identical(plan_with(rig, threads, cache), ref,
                       "resnet50 threads=" + std::to_string(threads));
    }
  }
}

TEST(PlannerParallel, AlexNetMatchesSequential) {
  Rig rig(models::alexnet(4096), cost::x86_pcie());
  const PlannerResult ref = plan_with(rig, 1, false);
  for (int threads : {2, 8}) {
    for (bool cache : {false, true}) {
      expect_identical(plan_with(rig, threads, cache), ref,
                       "alexnet threads=" + std::to_string(threads));
    }
  }
}

TEST(PlannerParallel, SwapOptAblationMatchesSequential) {
  // plan_keep_swap_only() runs the same step-1 search; the parallel path
  // must agree there too (the ablation benches depend on it).
  Rig rig(models::alexnet(4096), cost::x86_pcie());
  PlannerOptions seq;
  seq.threads = 1;
  seq.cache = false;
  const auto ref =
      PoochPlanner(rig.g, rig.tape, rig.machine, *rig.tm, seq)
          .plan_keep_swap_only();
  PlannerOptions par;
  par.threads = 8;
  par.cache = true;
  const auto got =
      PoochPlanner(rig.g, rig.tape, rig.machine, *rig.tm, par)
          .plan_keep_swap_only();
  EXPECT_EQ(got.classes.serialize(), ref.classes.serialize());
  EXPECT_EQ(got.predicted_time, ref.predicted_time);
  EXPECT_EQ(got.classes.serialize().find('r'), std::string::npos);
}

TEST(PlannerParallel, CacheServesTheSwapOptPlanPair) {
  // The swap-opt + full-plan pair on one planner instance (the Figure
  // 15/16 bench pattern) must replay step 1 from the cache: the second
  // search reports hits and runs fewer fresh simulations.
  Rig rig(models::alexnet(4096), cost::x86_pcie());
  PlannerOptions po;
  po.threads = 1;
  po.cache = true;
  PoochPlanner planner(rig.g, rig.tape, rig.machine, *rig.tm, po);
  const auto swap_opt = planner.plan_keep_swap_only();
  const auto full = planner.plan();
  EXPECT_GT(full.cache_hits, 0);
  EXPECT_LT(full.step1_simulations, swap_opt.step1_simulations);
}

TEST(PlannerParallel, NoisyTimeModelForcesSequential) {
  // NoisyTimeModel draws from a shared Rng per query, so concurrent
  // simulations would consume draws in a nondeterministic order. The
  // planner must refuse the requested parallelism.
  Rig rig(models::alexnet(4096), cost::x86_pcie());
  sim::NoisyTimeModel noisy(*rig.tm, /*rel_sigma=*/0.0, /*seed=*/42);
  ASSERT_FALSE(noisy.concurrent_safe());
  PlannerOptions po;
  po.threads = 8;
  PoochPlanner planner(rig.g, rig.tape, rig.machine, noisy, po);
  const auto plan = planner.plan();
  EXPECT_EQ(plan.threads_used, 1);
}

TEST(PlannerParallel, StatsReportCacheAndThreadCounters) {
  obs::StatsRegistry stats;
  Rig rig(models::alexnet(4096), cost::x86_pcie());
  PlannerOptions po;
  po.threads = 2;
  po.cache = true;
  po.stats = &stats;
  PoochPlanner planner(rig.g, rig.tape, rig.machine, *rig.tm, po);
  const auto plan = planner.plan();
  ASSERT_TRUE(plan.feasible);
  EXPECT_EQ(stats.counter_value("planner.simulations"),
            static_cast<std::uint64_t>(plan.simulations));
  EXPECT_EQ(stats.counter_value("planner.cache_hits"),
            static_cast<std::uint64_t>(plan.cache_hits));
  EXPECT_EQ(stats.gauge_value("planner.last.threads"), 2.0);
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  for (auto& h : hits) h.store(0);
  pool.parallel_for(hits.size(),
                    [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
  // Empty and single-element ranges are fine too.
  pool.parallel_for(0, [&](std::size_t) { FAIL(); });
  std::atomic<int> once{0};
  pool.parallel_for(1, [&](std::size_t) { once.fetch_add(1); });
  EXPECT_EQ(once.load(), 1);
}

TEST(ThreadPool, PropagatesTheLowestIndexException) {
  ThreadPool pool(4);
  try {
    pool.parallel_for(100, [&](std::size_t i) {
      if (i % 7 == 3) throw std::runtime_error("boom@" + std::to_string(i));
    });
    FAIL() << "expected a rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "boom@3");
  }
  // The pool survives an aborted job and runs the next one.
  std::atomic<int> n{0};
  pool.parallel_for(10, [&](std::size_t) { n.fetch_add(1); });
  EXPECT_EQ(n.load(), 10);
}

}  // namespace
}  // namespace pooch::planner
