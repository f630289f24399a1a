// Runtime::run reuses one scratch set per thread across simulations. These
// tests check that the reuse is invisible: whatever ran before on the
// thread — another Runtime over another graph, another swap-in policy, a
// run that went out of memory half way, a recorded run — every RunResult
// equals the same run done first on a fresh thread.
#include <gtest/gtest.h>

#include <numeric>
#include <thread>

#include "cost/cost_model.hpp"
#include "graph/autodiff.hpp"
#include "models/models.hpp"
#include "sim/runtime.hpp"
#include "testing_util.hpp"

namespace pooch::sim {
namespace {

using graph::BwdStep;
using graph::Graph;

struct Rig {
  Graph g;
  std::vector<BwdStep> tape;
  cost::MachineConfig machine;
  CostTimeModel tm;
  Runtime rt;

  Rig(Graph graph, cost::MachineConfig m)
      : g(std::move(graph)),
        tape(graph::build_backward_tape(g)),
        machine(std::move(m)),
        tm(g, machine),
        rt(g, tape, machine, tm) {}
};

struct Case {
  const Runtime* rt;
  Classification classes;
  RunOptions options;

  RunResult run() const { return rt->run(classes, options); }
};

/// Every (classification, policy, recording, device clamp) combination on
/// `rig`. The clamp halves the keep-all activation headroom, so keep-all
/// runs (and others) go out of memory midway.
void add_cases(const Rig& rig, std::uint64_t seed, std::vector<Case>& cases) {
  const RunResult keep = rig.rt.run(Classification(rig.g, ValueClass::kKeep));
  ASSERT_TRUE(keep.ok);
  const std::size_t clamped =
      keep.persistent_bytes + (keep.peak_bytes - keep.persistent_bytes) / 2;

  Classification mixed(rig.g, ValueClass::kKeep);
  Rng rng(seed);
  for (const auto& v : rig.g.values()) {
    if (v.producer == graph::kNoNode) continue;
    mixed.set(v.id, static_cast<ValueClass>(rng.below(3)));
  }
  const Classification corpus[] = {Classification(rig.g, ValueClass::kKeep),
                                   Classification(rig.g, ValueClass::kSwap),
                                   mixed};
  for (const Classification& classes : corpus) {
    for (const SwapInPolicy policy :
         {SwapInPolicy::kOnDemand, SwapInPolicy::kLookahead1,
          SwapInPolicy::kLookaheadPrevConv,
          SwapInPolicy::kEagerMemoryAware}) {
      for (const bool record : {false, true}) {
        for (const std::size_t usable : {std::size_t{0}, clamped}) {
          RunOptions o;
          o.swapin_policy = policy;
          o.record_stream = record;
          o.usable_bytes_override = usable;
          cases.push_back({&rig.rt, classes, o});
        }
      }
    }
  }
}

class RuntimeScratch : public ::testing::Test {
 protected:
  void SetUp() override {
    add_cases(resnet_, 7, cases_);
    add_cases(random_, 11, cases_);
    // The reference: each case alone on a thread that never ran another
    // simulation.
    for (const Case& c : cases_) {
      std::thread([&] { fresh_.push_back(c.run()); }).join();
    }
  }

  /// Run every case twice, in an order that alternates graphs, policies
  /// and failing runs, and compare each result with its reference.
  void run_interleaved(std::size_t start) const {
    const std::size_t n = cases_.size();
    for (std::size_t k = 0; k < 2 * n; ++k) {
      // 37 is coprime with the case count, so this visits every case.
      const std::size_t i = (start + k * 37) % n;
      pooch::testing::expect_same_run(cases_[i].run(), fresh_[i],
                                      "case " + std::to_string(i));
    }
  }

  const Rig resnet_{models::resnet50(64), cost::x86_pcie()};
  const Rig random_{pooch::testing::random_graph(13), cost::test_machine(64)};
  std::vector<Case> cases_;
  std::vector<RunResult> fresh_;
};

TEST_F(RuntimeScratch, CorpusCoversOomAndRecording) {
  int midway_ooms = 0, recorded = 0;
  for (const RunResult& r : fresh_) {
    // A run that failed after the arena was set up ran out of memory
    // midway, leaving its scratch half filled.
    if (r.oom && r.arena_capacity > 0) ++midway_ooms;
    if (!r.stream.ops.empty()) ++recorded;
  }
  EXPECT_GT(midway_ooms, 0);
  EXPECT_GT(recorded, 0);
  EXPECT_EQ(std::gcd(cases_.size(), std::size_t{37}), 1u);
}

TEST_F(RuntimeScratch, InterleavedRunsOnOneThreadMatchFreshThreads) {
  run_interleaved(0);
}

TEST_F(RuntimeScratch, ConcurrentInterleavingsMatchFreshThreads) {
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 4; ++t) {
    threads.emplace_back([this, t] { run_interleaved(t * 5); });
  }
  for (std::thread& th : threads) th.join();
}

}  // namespace
}  // namespace pooch::sim
