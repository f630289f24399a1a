// Forward-prefix resume (sim::ForwardCheckpoints): a run that starts from
// another run's saved forward state must produce exactly the RunResult of
// the same run from op 0, and must start there only when its lowered
// forward decisions agree with the recording run's on every value
// produced before the checkpoint. The oracle for "agree" is computed here
// from build_backward_plan, independently of the runtime's own check.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <thread>

#include "cost/cost_model.hpp"
#include "graph/autodiff.hpp"
#include "models/models.hpp"
#include "obs/stats.hpp"
#include "pooch/planner.hpp"
#include "sim/runtime.hpp"
#include "testing_util.hpp"

namespace pooch::sim {
namespace {

using graph::BwdStep;
using graph::Graph;
using graph::NodeId;
using graph::ValueId;
using pooch::testing::expect_same_run;

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

  /// Usable bytes that hold half of keep-all's activation headroom, so
  /// keep-all (and others) run out of memory midway.
  std::size_t clamped() const {
    const RunResult keep = rt.run(Classification(g, ValueClass::kKeep));
    EXPECT_TRUE(keep.ok);
    return keep.persistent_bytes +
           (keep.peak_bytes - keep.persistent_bytes) / 2;
  }
};

/// The first forward node whose start state a lowered difference between
/// `a` and `b` reaches: the producer of the earliest value whose swap_out
/// or discard differs, -1 when a graph input differs, the node count when
/// nothing does.
NodeId first_forward_difference(const Rig& rig, const Classification& a,
                                const Classification& b) {
  const BackwardPlan pa = build_backward_plan(rig.g, rig.tape, a);
  const BackwardPlan pb = build_backward_plan(rig.g, rig.tape, b);
  NodeId first = rig.g.num_nodes();
  for (const auto& v : rig.g.values()) {
    const std::size_t vi = static_cast<std::size_t>(v.id);
    if (pa.swap_out[vi] != pb.swap_out[vi] ||
        pa.discard[vi] != pb.discard[vi]) {
      first = std::min(first, v.producer);  // kNoNode is -1
    }
  }
  return first;
}

/// Resume `b` from `a`'s state at single forward nodes: every `stride`-th
/// node and the nodes around the first forward difference. Up to that
/// difference the run must start at the checkpoint; after it, not at
/// all. Either way it must equal b's full run. Returns how many runs
/// resumed past op 0.
int check_pair(const Rig& rig, const Classification& a,
               const Classification& b, const RunOptions& options,
               int stride, const std::string& what) {
  const RunResult full_a = rig.rt.run(a, options);
  const RunResult full_b = rig.rt.run(b, options);
  const NodeId first = first_forward_difference(rig, a, b);
  const NodeId n = rig.g.num_nodes();
  std::set<NodeId> nodes{first - 1, first, first + 1};
  for (NodeId k = 0; k < n; k += stride) nodes.insert(k);
  int resumed = 0;
  for (const NodeId k : nodes) {
    if (k < 0 || k >= n) continue;
    const std::string at = what + " checkpoint at node " + std::to_string(k) +
                           " (first difference " + std::to_string(first) +
                           ")";
    ForwardCheckpoints states({k});
    Resume record{.record = &states};
    expect_same_run(rig.rt.run(a, options, record), full_a, at + ", recording");
    if (states.size() == 0) continue;  // a ran out of memory before k
    Resume from{.from = &states};
    const RunResult r = rig.rt.run(b, options, from);
    EXPECT_EQ(from.started_at, k <= first ? k : 0) << at;
    expect_same_run(r, full_b, at);
    if (from.started_at > 0) ++resumed;
  }
  return resumed;
}

/// `c` with `flips` classifiable values set to a random class.
Classification flipped(const Rig& rig, Classification c, int flips,
                       Rng& rng) {
  const std::vector<ValueId> values = classifiable_values(rig.g, rig.tape);
  for (int i = 0; i < flips; ++i) {
    const ValueId v = values[rng.below(values.size())];
    const auto cls = rig.g.value(v).producer == graph::kNoNode
                         ? static_cast<ValueClass>(rng.below(2))
                         : static_cast<ValueClass>(rng.below(3));
    c.set(v, cls);
  }
  return c;
}

/// A random keep/swap/recompute classification (inputs keep or swap).
Classification mixed(const Rig& rig, Rng& rng) {
  Classification c(rig.g, ValueClass::kKeep);
  for (const auto& v : rig.g.values()) {
    c.set(v.id, v.producer == graph::kNoNode
                    ? static_cast<ValueClass>(rng.below(2))
                    : static_cast<ValueClass>(rng.below(3)));
  }
  return c;
}

/// The RuntimeScratch corpus: keep-all, swap-all and a mixed
/// classification on ResNet-50 and a random graph, under every swap-in
/// policy, with and without the device clamped. Each is paired with a
/// few random flips of itself and with the other corpus members.
void check_corpus(const Rig& rig, std::uint64_t seed, int stride) {
  Rng rng(seed);
  const Classification corpus[] = {Classification(rig.g, ValueClass::kKeep),
                                   Classification(rig.g, ValueClass::kSwap),
                                   mixed(rig, rng)};
  const std::size_t clamped = rig.clamped();
  int resumed = 0;
  for (const SwapInPolicy policy :
       {SwapInPolicy::kOnDemand, SwapInPolicy::kLookahead1,
        SwapInPolicy::kLookaheadPrevConv, SwapInPolicy::kEagerMemoryAware}) {
    for (const std::size_t usable : {std::size_t{0}, clamped}) {
      RunOptions o;
      o.swapin_policy = policy;
      o.usable_bytes_override = usable;
      for (std::size_t i = 0; i < 3; ++i) {
        const std::string what = "corpus " + std::to_string(i) + " policy " +
                                 std::to_string(static_cast<int>(policy)) +
                                 (usable ? " clamped" : "");
        resumed += check_pair(rig, corpus[i], flipped(rig, corpus[i], 3, rng),
                              o, stride, what + " vs its flips");
        resumed += check_pair(rig, corpus[i], corpus[(i + 1) % 3], o, stride,
                              what + " vs corpus " +
                                  std::to_string((i + 1) % 3));
      }
    }
  }
  EXPECT_GT(resumed, 0);
}

TEST(RuntimeResume, ResNet50CorpusResumesUpToTheFirstDifference) {
  const Rig rig(models::resnet50(64), cost::x86_pcie());
  check_corpus(rig, 7, 9);
}

TEST(RuntimeResume, RandomGraphCorpusResumesUpToTheFirstDifference) {
  for (const std::uint64_t seed : {13u, 14u, 15u}) {
    const Rig rig(pooch::testing::random_graph(seed), cost::test_machine(64));
    check_corpus(rig, seed, 1);
  }
}

TEST(RuntimeResume, PaperShapeModelsResumeUpToTheFirstDifference) {
  const Rig rigs[] = {
      {models::resnet50(512), cost::x86_pcie()},
      {models::resnext101_3d(1, 128, 384), cost::power9_nvlink()},
      {models::alexnet(4096), cost::x86_pcie()},
      {models::inception_toy(32, 32), cost::test_machine(64)}};
  Rng rng(29);
  for (const Rig& rig : rigs) {
    // Planner-like pairs: swap-all against a few kept or recomputed
    // maps, and a random classification against its own flips.
    const Classification swap_all(rig.g, ValueClass::kSwap);
    const Classification random = mixed(rig, rng);
    const int stride = std::max(1, rig.g.num_nodes() / 12);
    int resumed = 0;
    for (int pair = 0; pair < 3; ++pair) {
      resumed += check_pair(rig, swap_all, flipped(rig, swap_all, 2, rng), {},
                            stride, "swap-all pair " + std::to_string(pair));
      resumed += check_pair(rig, random, flipped(rig, random, 2, rng), {},
                            stride, "mixed pair " + std::to_string(pair));
    }
    EXPECT_GT(resumed, 0);
  }
}

TEST(RuntimeResume, OomAfterTheResumePointIsReportedInFull) {
  const Rig rig(models::resnet50(64), cost::x86_pcie());
  RunOptions o;
  o.usable_bytes_override = rig.clamped();
  // Keep-all runs out of memory on the clamped device. Record a run that
  // agrees with it on every value but the last classifiable one.
  const Classification keep(rig.g, ValueClass::kKeep);
  const std::vector<ValueId> values = classifiable_values(rig.g, rig.tape);
  Classification recording = keep;
  recording.set(values.back(), ValueClass::kSwap);
  const RunResult full = rig.rt.run(keep, o);
  ASSERT_TRUE(full.oom);
  ASSERT_FALSE(full.failure.empty());

  std::vector<NodeId> every;
  for (NodeId k = 0; k < rig.g.num_nodes(); ++k) every.push_back(k);
  ForwardCheckpoints states(every);
  Resume record{.record = &states};
  (void)rig.rt.run(recording, o, record);
  ASSERT_GT(states.size(), 1u);
  Resume from{.from = &states};
  const RunResult resumed = rig.rt.run(keep, o, from);
  EXPECT_GT(from.started_at, 0);
  expect_same_run(resumed, full, "keep-all resumed");
  EXPECT_GT(check_pair(rig, recording, keep, o, 5, "keep-all"), 0);
}

/// A value that no backward step needs under swap-all, feeding the
/// producer of a classifiable value: setting that value to `recompute`
/// makes the earlier one needed (discard -> swap_out).
std::pair<ValueId, ValueId> recompute_source_pair(const Rig& rig) {
  const Classification swap_all(rig.g, ValueClass::kSwap);
  const BackwardPlan base = build_backward_plan(rig.g, rig.tape, swap_all);
  for (const ValueId x : classifiable_values(rig.g, rig.tape)) {
    const NodeId producer = rig.g.value(x).producer;
    if (producer == graph::kNoNode) continue;
    for (const ValueId u : rig.g.node(producer).inputs) {
      if (rig.g.value(u).producer != graph::kNoNode &&
          base.discard[static_cast<std::size_t>(u)]) {
        return {u, x};
      }
    }
  }
  return {-1, -1};
}

TEST(RuntimeResume, RecomputeThatNeedsAnEarlierValueResumesBeforeIt) {
  const Rig rig(models::resnet50(64), cost::x86_pcie());
  const auto [u, x] = recompute_source_pair(rig);
  ASSERT_GE(u, 0) << "no discarded source of a classifiable value";
  const Classification swap_all(rig.g, ValueClass::kSwap);
  Classification with_recompute = swap_all;
  with_recompute.set(x, ValueClass::kRecompute);
  // The raw classes differ only at x; the lowered decisions already at u.
  const BackwardPlan lowered =
      build_backward_plan(rig.g, rig.tape, with_recompute);
  EXPECT_FALSE(lowered.discard[static_cast<std::size_t>(u)]);
  EXPECT_TRUE(lowered.swap_out[static_cast<std::size_t>(u)]);
  const NodeId pu = rig.g.value(u).producer;
  const NodeId px = rig.g.value(x).producer;
  ASSERT_LT(pu, px);
  ASSERT_EQ(first_forward_difference(rig, swap_all, with_recompute), pu);
  // Every node from op 0 to past x: up to u the run resumes, from u's
  // successor through x — where the raw classes still agree — it must not.
  EXPECT_GT(check_pair(rig, swap_all, with_recompute, {}, 1, "recompute x"), 0);
  ForwardCheckpoints at_x({px});
  Resume record{.record = &at_x};
  (void)rig.rt.run(swap_all, {}, record);
  Resume from{.from = &at_x};
  expect_same_run(rig.rt.run(with_recompute, {}, from),
                  rig.rt.run(with_recompute), "checkpoint at x");
  EXPECT_EQ(from.started_at, 0);
}

TEST(RuntimeResume, LatestUsableCheckpointIsChosen) {
  const Rig rig(models::resnet50(64), cost::x86_pcie());
  const Classification swap_all(rig.g, ValueClass::kSwap);
  std::vector<NodeId> every;
  for (NodeId k = 0; k < rig.g.num_nodes(); ++k) every.push_back(k);
  ForwardCheckpoints states(every);
  Resume record{.record = &states};
  (void)rig.rt.run(swap_all, {}, record);
  EXPECT_EQ(states.size(), static_cast<std::size_t>(rig.g.num_nodes()));
  for (const ValueId v : classifiable_values(rig.g, rig.tape)) {
    Classification c = swap_all;
    c.set(v, ValueClass::kKeep);
    Resume from{.from = &states};
    const RunResult r = rig.rt.run(c, {}, from);
    EXPECT_EQ(from.started_at, std::max<NodeId>(rig.g.value(v).producer, 0));
    expect_same_run(r, rig.rt.run(c), "keep v" + std::to_string(v));
  }
  // The same classification resumes at the last node.
  Resume from{.from = &states};
  expect_same_run(rig.rt.run(swap_all, {}, from), rig.rt.run(swap_all),
                  "swap-all");
  EXPECT_EQ(from.started_at, rig.g.num_nodes() - 1);
}

TEST(RuntimeResume, RecordingRunInheritsItsSourcesEarlierCheckpoints) {
  const Rig rig(models::resnet50(64), cost::x86_pcie());
  const NodeId n = rig.g.num_nodes();
  const Classification swap_all(rig.g, ValueClass::kSwap);
  std::vector<NodeId> tenth;
  for (NodeId k = 0; k < n; k += 10) tenth.push_back(k);
  ForwardCheckpoints parent(tenth);
  Resume record_parent{.record = &parent};
  (void)rig.rt.run(swap_all, {}, record_parent);

  // A chain scanned output first: its first run keeps a late map and
  // resumes from the parent; a later one keeps an earlier map.
  const std::vector<ValueId> values = classifiable_values(rig.g, rig.tape);
  const ValueId late = values[values.size() - 2];
  const ValueId early = values[values.size() / 2];
  const NodeId p_late = rig.g.value(late).producer;
  const NodeId p_early = rig.g.value(early).producer;
  ASSERT_LT(p_early + 10, p_late);
  Classification first = swap_all;
  first.set(late, ValueClass::kKeep);
  ForwardCheckpoints chain({p_early + 3, p_late - 1, p_late + 1});
  Resume record_chain{.from = &parent, .record = &chain};
  expect_same_run(rig.rt.run(first, {}, record_chain), rig.rt.run(first),
                  "chain's first run");
  EXPECT_EQ(record_chain.started_at, p_late / 10 * 10);
  // Inherited: the parent's checkpoints up to the start; recorded: the
  // chain's nodes after it.
  std::size_t expected = static_cast<std::size_t>(p_late / 10 + 1);
  for (NodeId k : {p_early + 3, p_late - 1, p_late + 1}) {
    if (k > record_chain.started_at) ++expected;
  }
  EXPECT_EQ(chain.size(), expected);

  Classification later = first;
  later.set(early, ValueClass::kKeep);
  Resume from{.from = &chain};
  expect_same_run(rig.rt.run(later, {}, from), rig.rt.run(later),
                  "chain's later run");
  EXPECT_EQ(from.started_at, p_early / 10 * 10);
}

TEST(RuntimeResume, ConcurrentRunsShareOneCheckpointSet) {
  const Rig rig(models::resnet50(64), cost::x86_pcie());
  const Classification swap_all(rig.g, ValueClass::kSwap);
  std::vector<NodeId> seventh;
  for (NodeId k = 0; k < rig.g.num_nodes(); k += 7) seventh.push_back(k);
  ForwardCheckpoints shared(seventh);
  Resume record{.record = &shared};
  (void)rig.rt.run(swap_all, {}, record);
  std::vector<Classification> cases;
  std::vector<RunResult> full;
  Rng rng(3);
  for (int i = 0; i < 16; ++i) {
    cases.push_back(flipped(rig, swap_all, 2, rng));
    full.push_back(rig.rt.run(cases.back()));
  }
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t k = 0; k < 2 * cases.size(); ++k) {
        const std::size_t i = (t * 5 + k) % cases.size();
        Resume from{.from = &shared};
        expect_same_run(rig.rt.run(cases[i], {}, from), full[i],
                        "case " + std::to_string(i));
      }
    });
  }
  for (std::thread& th : threads) th.join();
}

TEST(RuntimeResume, CheckpointsOfAnotherDeviceOrTimeModelAreNotUsed) {
  const Rig rig(models::resnet50(64), cost::x86_pcie());
  const Classification swap_all(rig.g, ValueClass::kSwap);
  ForwardCheckpoints states({rig.g.num_nodes() / 2});
  Resume record{.record = &states};
  (void)rig.rt.run(swap_all, {}, record);
  ASSERT_EQ(states.size(), 1u);

  RunOptions clamped;
  clamped.usable_bytes_override = rig.clamped();
  Resume other_arena{.from = &states};
  expect_same_run(rig.rt.run(swap_all, clamped, other_arena),
                  rig.rt.run(swap_all, clamped), "clamped");
  EXPECT_EQ(other_arena.started_at, 0);

  const Runtime other(rig.g, rig.tape, rig.machine, rig.tm);
  Resume other_runtime{.from = &states};
  expect_same_run(other.run(swap_all, {}, other_runtime), other.run(swap_all),
                  "another runtime");
  EXPECT_EQ(other_runtime.started_at, 0);

  // Skipped queries would shift every later draw of a noisy model.
  const NoisyTimeModel noisy(rig.tm, 0.05, 9);
  const Runtime noisy_rt(rig.g, rig.tape, rig.machine, noisy);
  ForwardCheckpoints noisy_states({rig.g.num_nodes() / 2});
  Resume noisy_record{.record = &noisy_states};
  (void)noisy_rt.run(swap_all, {}, noisy_record);
  Resume noisy_from{.from = &noisy_states};
  (void)noisy_rt.run(swap_all, {}, noisy_from);
  EXPECT_EQ(noisy_from.started_at, 0);
}

TEST(RuntimeResume, UndescribedOomKeepsTheScore) {
  const Rig rig(models::resnet50(64), cost::x86_pcie());
  RunOptions o;
  o.usable_bytes_override = rig.clamped();
  const Classification keep(rig.g, ValueClass::kKeep);
  const RunResult full = rig.rt.run(keep, o);
  ASSERT_TRUE(full.oom);
  EXPECT_NE(full.failure.find("device OOM"), std::string::npos);
  Resume described;
  expect_same_run(rig.rt.run(keep, o, described), full, "described");
  Resume quiet{.describe_oom = false};
  RunResult r = rig.rt.run(keep, o, quiet);
  EXPECT_TRUE(r.oom);
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(r.failure.empty());
  r.failure = full.failure;
  expect_same_run(r, full, "undescribed");
}

TEST(RuntimeResume, ResumableRunsTakeNoStatsOrStream) {
  const Rig rig(models::resnet50(64), cost::x86_pcie());
  const Classification swap_all(rig.g, ValueClass::kSwap);
  obs::StatsRegistry stats;
  RunOptions with_stats;
  with_stats.stats = &stats;
  RunOptions recording;
  recording.record_stream = true;
  Resume resume;
  EXPECT_THROW((void)rig.rt.run(swap_all, with_stats, resume), Error);
  EXPECT_THROW((void)rig.rt.run(swap_all, recording, resume), Error);
  ForwardCheckpoints states({1});
  Resume same{.from = &states, .record = &states};
  EXPECT_THROW((void)rig.rt.run(swap_all, {}, same), Error);
}

TEST(RuntimeResume, PlannerCountsEveryForwardNode) {
  const Rig rig(models::resnet50(256), cost::x86_pcie());
  obs::StatsRegistry stats;
  planner::PlannerOptions po;
  po.threads = 2;
  po.stats = &stats;
  const planner::PoochPlanner planner(rig.g, rig.tape, rig.machine, rig.tm,
                                      po);
  const planner::PlannerResult plan = planner.plan();
  ASSERT_TRUE(plan.feasible);
  EXPECT_EQ(plan.forward_nodes_simulated + plan.forward_nodes_skipped,
            static_cast<std::int64_t>(plan.simulations) * rig.g.num_nodes());
  EXPECT_GT(plan.forward_nodes_skipped, 0);
  EXPECT_GT(plan.forward_skip_share(), 0.0);
  EXPECT_LT(plan.forward_skip_share(), 1.0);
  EXPECT_EQ(stats.counter_value("planner.forward_nodes_skipped"),
            static_cast<std::uint64_t>(plan.forward_nodes_skipped));
  EXPECT_EQ(stats.counter_value("planner.forward_nodes_simulated"),
            static_cast<std::uint64_t>(plan.forward_nodes_simulated));
  EXPECT_NE(plan.summary().find("% of forward nodes skipped"),
            std::string::npos);

  // A noisy model plans from op 0 every time.
  const NoisyTimeModel noisy(rig.tm, 0.0, 42);
  const planner::PoochPlanner sequential(rig.g, rig.tape, rig.machine, noisy);
  const planner::PlannerResult noisy_plan = sequential.plan();
  EXPECT_EQ(noisy_plan.forward_nodes_skipped, 0);
  EXPECT_EQ(noisy_plan.forward_nodes_simulated,
            static_cast<std::int64_t>(noisy_plan.simulations) *
                rig.g.num_nodes());
}

}  // namespace
}  // namespace pooch::sim
