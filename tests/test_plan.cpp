#include <gtest/gtest.h>

#include "common/error.hpp"
#include "graph/autodiff.hpp"
#include "models/models.hpp"
#include "sim/plan.hpp"

namespace pooch::sim {
namespace {

using graph::Graph;
using graph::LayerKind;
using graph::ValueId;

// conv(v1) -> bn(v2) -> relu(v3) -> gap(v4) -> fc(v5) -> loss(v6)
Graph chain() {
  Graph g;
  auto x = g.add_input(Shape{2, 3, 8, 8}, "input");
  x = g.add(LayerKind::kConv, ConvAttrs::conv2d(4, 3, 1, 1), {x}, "conv");
  x = g.add(LayerKind::kBatchNorm, BatchNormAttrs{}, {x}, "bn");
  x = g.add(LayerKind::kReLU, std::monostate{}, {x}, "relu");
  x = g.add(LayerKind::kGlobalAvgPool, std::monostate{}, {x}, "gap");
  x = g.add(LayerKind::kFullyConnected, FcAttrs{.out_features = 10}, {x},
            "fc");
  g.add(LayerKind::kSoftmaxLoss, std::monostate{}, {x}, "loss");
  return g;
}

TEST(Classification, CountsAndNames) {
  const Graph g = chain();
  Classification c(g, ValueClass::kKeep);
  c.set(1, ValueClass::kSwap);
  c.set(2, ValueClass::kRecompute);
  const auto counts = c.counts({0, 1, 2, 3});
  EXPECT_EQ(counts[0], 2);
  EXPECT_EQ(counts[1], 1);
  EXPECT_EQ(counts[2], 1);
  EXPECT_STREQ(value_class_name(ValueClass::kRecompute), "recompute");
}

TEST(Plan, ClassifiableValues) {
  const Graph g = chain();
  const auto tape = graph::build_backward_tape(g);
  const auto vals = classifiable_values(g, tape);
  // Needed: v0 (conv in), v1 (bn in), v3 (relu out), v4 (fc in), v5
  // (softmax in). Not needed: v2 (bn out), v6 (loss).
  EXPECT_EQ(vals, (std::vector<ValueId>{0, 1, 3, 4, 5}));
}

TEST(Plan, AllKeepHasNoPreps) {
  const Graph g = chain();
  const auto tape = graph::build_backward_tape(g);
  const auto plan = build_backward_plan(g, tape, {g, ValueClass::kKeep});
  for (const auto& step : plan.steps) EXPECT_TRUE(step.preps.empty());
  EXPECT_EQ(plan.swap_bytes, 0u);
  EXPECT_EQ(plan.recompute_bytes, 0u);
  EXPECT_TRUE(plan.swapin_order.empty());
}

TEST(Plan, AllSwapSwapsExactlyTheNeededValues) {
  const Graph g = chain();
  const auto tape = graph::build_backward_tape(g);
  const auto plan = build_backward_plan(g, tape, {g, ValueClass::kSwap});
  // Each classifiable value is swapped in exactly once, at the step of
  // its first need.
  EXPECT_EQ(plan.swapin_order, (std::vector<SwapInNeed>{
                                   {5, 0}, {4, 1}, {3, 3}, {1, 4}, {0, 5}}));
  // Values with no backward use are discarded, not swapped.
  EXPECT_TRUE(plan.discard[2]);
  EXPECT_FALSE(plan.swap_out[2]);
  EXPECT_TRUE(plan.swap_out[1]);
  EXPECT_TRUE(plan.swap_out[0]);  // graph input can be swapped
}

TEST(Plan, LastUseStepsAreConsistent) {
  const Graph g = chain();
  const auto tape = graph::build_backward_tape(g);
  const auto plan = build_backward_plan(g, tape, {g, ValueClass::kSwap});
  // tape order: loss=0, fc=1, gap=2, relu=3, bn=4, conv=5.
  EXPECT_EQ(plan.last_use_step[5], 0);  // logits used by loss bwd
  EXPECT_EQ(plan.last_use_step[4], 1);  // fc input
  EXPECT_EQ(plan.last_use_step[3], 3);  // relu output
  EXPECT_EQ(plan.last_use_step[1], 4);  // bn input
  EXPECT_EQ(plan.last_use_step[0], 5);  // conv input
  EXPECT_EQ(plan.last_use_step[2], -1);
  EXPECT_EQ(plan.last_use_step[6], -1);
  // Each step frees the feature maps whose last use it is.
  EXPECT_EQ(plan.steps[0].frees, (std::vector<ValueId>{5}));
  EXPECT_EQ(plan.steps[1].frees, (std::vector<ValueId>{4}));
  EXPECT_TRUE(plan.steps[2].frees.empty());
  EXPECT_EQ(plan.steps[3].frees, (std::vector<ValueId>{3}));
  EXPECT_EQ(plan.steps[4].frees, (std::vector<ValueId>{1}));
  EXPECT_EQ(plan.steps[5].frees, (std::vector<ValueId>{0}));
}

TEST(Plan, RecomputeChainExpandsInTopologicalOrder) {
  const Graph g = chain();
  const auto tape = graph::build_backward_tape(g);
  Classification c(g, ValueClass::kKeep);
  // Discard conv-out, bn-out, relu-out; bn-in (v1) and relu-out (v3) are
  // needed in backward, so chains must re-run conv -> bn -> relu.
  c.set(1, ValueClass::kRecompute);
  c.set(2, ValueClass::kRecompute);
  c.set(3, ValueClass::kRecompute);
  const auto plan = build_backward_plan(g, tape, c);
  // relu's bwd step (tape index 3) needs v3: chain recomputes v1, v2, v3.
  const auto& preps = plan.steps[3].preps;
  ASSERT_EQ(preps.size(), 3u);
  EXPECT_EQ(preps[0].value, 1);
  EXPECT_EQ(preps[1].value, 2);
  EXPECT_EQ(preps[2].value, 3);
  for (const auto& p : preps) EXPECT_EQ(p.kind, PrepOp::Kind::kRecompute);
  // bn's bwd step needs v1 again: already materialized, no new preps.
  EXPECT_TRUE(plan.steps[4].preps.empty());
  // v1 is used as a chain source at step 3 and directly at step 4.
  EXPECT_EQ(plan.bwd_uses[1], 2);
  EXPECT_EQ(plan.last_use_step[1], 4);
}

TEST(Plan, SwapSourceInsideRecomputeChain) {
  const Graph g = chain();
  const auto tape = graph::build_backward_tape(g);
  Classification c(g, ValueClass::kKeep);
  c.set(1, ValueClass::kSwap);       // conv out swapped
  c.set(2, ValueClass::kRecompute);  // bn out discarded
  c.set(3, ValueClass::kRecompute);  // relu out discarded
  const auto plan = build_backward_plan(g, tape, c);
  // Recomputing v3 at relu's step needs v2 <- bn(v1); v1 must swap in
  // first, inside the same step's preps, before the recomputes.
  const auto& preps = plan.steps[3].preps;
  ASSERT_EQ(preps.size(), 3u);
  EXPECT_EQ(preps[0].kind, PrepOp::Kind::kSwapIn);
  EXPECT_EQ(preps[0].value, 1);
  EXPECT_EQ(preps[1].kind, PrepOp::Kind::kRecompute);
  EXPECT_EQ(preps[1].value, 2);
  EXPECT_EQ(preps[2].value, 3);
  EXPECT_EQ(plan.swapin_order, (std::vector<SwapInNeed>{{1, 3}}));
}

TEST(Plan, InputClassifiedRecomputeThrows) {
  const Graph g = chain();
  const auto tape = graph::build_backward_tape(g);
  Classification c(g, ValueClass::kKeep);
  c.set(0, ValueClass::kRecompute);
  EXPECT_THROW(build_backward_plan(g, tape, c), Error);
}

TEST(Plan, GradLifetimes) {
  const Graph g = chain();
  const auto tape = graph::build_backward_tape(g);
  const auto plan = build_backward_plan(g, tape, {g, ValueClass::kKeep});
  // Loss output v6: seed allocated at its producer's step (0), consumed
  // there too.
  EXPECT_EQ(plan.grad_first_step[6], 0);
  EXPECT_EQ(plan.grad_last_step[6], 0);
  // v5 (logits): written by loss step 0, consumed by fc step 1.
  EXPECT_EQ(plan.grad_first_step[5], 0);
  EXPECT_EQ(plan.grad_last_step[5], 1);
  // Graph input gets no gradient.
  EXPECT_EQ(plan.grad_first_step[0], -1);
}

TEST(Plan, BranchGradFirstStepIsLatestConsumer) {
  Graph g;
  auto x = g.add_input(Shape{1, 4, 4, 4}, "in");
  auto a = g.add(LayerKind::kConv, ConvAttrs::conv2d(4, 3, 1, 1), {x}, "c1");
  auto b = g.add(LayerKind::kConv, ConvAttrs::conv2d(4, 3, 1, 1), {a}, "c2");
  auto s = g.add(LayerKind::kAdd, std::monostate{}, {b, a}, "add");
  auto f = g.add(LayerKind::kFlatten, std::monostate{}, {s}, "flat");
  auto h = g.add(LayerKind::kFullyConnected, FcAttrs{.out_features = 2}, {f},
                 "fc");
  g.add(LayerKind::kSoftmaxLoss, std::monostate{}, {h}, "loss");
  const auto tape = graph::build_backward_tape(g);
  const auto plan = build_backward_plan(g, tape, {g, ValueClass::kKeep});
  // v(a) is consumed by c2 (node 1) and add (node 2); first gradient
  // contribution comes from add's bwd step = earliest in tape.
  const int n = g.num_nodes();
  EXPECT_EQ(plan.grad_first_step[a], n - 1 - 2);  // add's step
  EXPECT_EQ(plan.grad_last_step[a], n - 1 - 0);   // consumed by c1's step
}

TEST(Plan, TransientBytesPositiveWhereGradsAllocated) {
  const Graph g = chain();
  const auto tape = graph::build_backward_tape(g);
  const auto plan = build_backward_plan(g, tape, {g, ValueClass::kSwap});
  // Step 0 (loss) allocates the seed and the logits gradient.
  EXPECT_GT(plan.steps[0].transient_bytes, 0u);
  // conv's bwd step includes backward workspace.
  EXPECT_GT(plan.steps[5].transient_bytes,
            g.value(0).byte_size());
}

TEST(Plan, ResNetScaleSmoke) {
  const auto g = models::resnet50(2, 64);
  const auto tape = graph::build_backward_tape(g);
  const auto plan = build_backward_plan(g, tape, {g, ValueClass::kSwap});
  EXPECT_EQ(plan.steps.size(), tape.size());
  EXPECT_GT(plan.swapin_order.size(), 50u);
  // Every swapped-in value must have a positive use count and a last-use.
  for (const SwapInNeed& need : plan.swapin_order) {
    const auto v = static_cast<std::size_t>(need.value);
    EXPECT_GT(plan.bwd_uses[v], 0);
    EXPECT_GE(plan.last_use_step[v], need.step);
  }
}

TEST(Classification, SerializeRoundTrip) {
  const Graph g = chain();
  Classification c(g, ValueClass::kKeep);
  c.set(1, ValueClass::kSwap);
  c.set(3, ValueClass::kRecompute);
  const std::string text = c.serialize();
  EXPECT_EQ(text, "kskrkkk");
  const Classification back = Classification::deserialize(g, text);
  for (ValueId v = 0; v < g.num_values(); ++v) {
    EXPECT_EQ(back.of(v), c.of(v)) << "v" << v;
  }
}

TEST(Classification, DeserializeRejectsBadInput) {
  const Graph g = chain();
  EXPECT_THROW(Classification::deserialize(g, "kk"), Error);      // short
  EXPECT_THROW(Classification::deserialize(g, "kskrkkx"), Error); // bad char
}

}  // namespace
}  // namespace pooch::sim
