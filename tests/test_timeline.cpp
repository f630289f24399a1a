#include <gtest/gtest.h>

#include "graph/autodiff.hpp"
#include "models/models.hpp"
#include "exec/op_stream.hpp"
#include "sim/runtime.hpp"

namespace pooch::sim {
namespace {

TEST(Timeline, EmptyRendersPlaceholder) {
  exec::OpStream s;
  EXPECT_EQ(s.render(), "(empty timeline)\n");
  // Bookkeeping ops take no time and draw nothing.
  s.ops.push_back({.type = exec::OpType::kBeginIteration});
  s.ops.push_back({.type = exec::OpType::kFreeValue,
                   .value = 0,
                   .sim_start = 1.0,
                   .sim_end = 1.0});
  EXPECT_EQ(s.render(), "(empty timeline)\n");
}

TEST(Timeline, RenderContainsAllLanesAndGlyphs) {
  const auto g = models::small_cnn(4, 16);
  const auto tape = graph::build_backward_tape(g);
  auto machine = cost::test_machine(512);
  machine.link_gbps = 2.0;
  const CostTimeModel tm(g, machine);
  const Runtime rt(g, tape, machine, tm);
  RunOptions ro;
  ro.record_stream = true;
  const auto r = rt.run(Classification(g, ValueClass::kSwap), ro);
  ASSERT_TRUE(r.ok);
  const std::string s = r.stream.render(80);
  EXPECT_NE(s.find("compute"), std::string::npos);
  EXPECT_NE(s.find("d2h"), std::string::npos);
  EXPECT_NE(s.find("h2d"), std::string::npos);
  EXPECT_NE(s.find('F'), std::string::npos);  // forward
  EXPECT_NE(s.find('B'), std::string::npos);  // backward
  EXPECT_NE(s.find('o'), std::string::npos);  // swap-out
  EXPECT_NE(s.find('i'), std::string::npos);  // swap-in
  EXPECT_NE(s.find('U'), std::string::npos);  // update
  // Three lanes of the requested width.
  std::size_t lanes = 0, pos = 0;
  while ((pos = s.find('|', pos)) != std::string::npos) {
    ++lanes;
    ++pos;
  }
  EXPECT_EQ(lanes, 6u);  // open+close per lane
}

TEST(Timeline, RecomputeGlyphAppears) {
  const auto g = models::small_cnn(2, 16);
  const auto tape = graph::build_backward_tape(g);
  const auto machine = cost::test_machine(512);
  const CostTimeModel tm(g, machine);
  const Runtime rt(g, tape, machine, tm);
  Classification c(g, ValueClass::kKeep);
  for (const auto& n : g.nodes()) {
    if (n.kind == graph::LayerKind::kConv) {
      c.set(n.output, ValueClass::kRecompute);
    }
  }
  RunOptions ro;
  ro.record_stream = true;
  const auto r = rt.run(c, ro);
  ASSERT_TRUE(r.ok);
  EXPECT_NE(r.stream.render().find('R'), std::string::npos);
  EXPECT_GT(r.stream.count(exec::OpType::kRecompute), 0);
}

TEST(Timeline, ForwardEndSeparatesPhases) {
  const auto g = models::small_cnn(4, 16);
  const auto tape = graph::build_backward_tape(g);
  const auto machine = cost::test_machine(512);
  const CostTimeModel tm(g, machine);
  const Runtime rt(g, tape, machine, tm);
  RunOptions ro;
  ro.record_stream = true;
  const auto r = rt.run(Classification(g, ValueClass::kKeep), ro);
  ASSERT_TRUE(r.ok);
  EXPECT_GT(r.forward_time, 0.0);
  EXPECT_LT(r.forward_time, r.iteration_time);
  for (const auto& op : r.stream.ops) {
    if (op.type == exec::OpType::kForward) {
      EXPECT_LE(op.sim_end, r.forward_time + 1e-12);
    }
    if (op.type == exec::OpType::kBackward) {
      EXPECT_GE(op.sim_start, r.forward_time - 1e-12);
    }
  }
}

TEST(Timeline, StallMarkedInRender) {
  // Slow link so backward stalls on swap-ins; '#' must appear.
  const auto g = models::paper_example(8, 32, 32);
  const auto tape = graph::build_backward_tape(g);
  auto machine = cost::test_machine(512);
  machine.link_gbps = 0.5;
  const CostTimeModel tm(g, machine);
  const Runtime rt(g, tape, machine, tm);
  RunOptions ro;
  ro.record_stream = true;
  const auto r = rt.run(Classification(g, ValueClass::kSwap), ro);
  ASSERT_TRUE(r.ok);
  ASSERT_GT(r.compute_stall, 0.0);
  EXPECT_NE(r.stream.render().find('#'), std::string::npos);
}

}  // namespace
}  // namespace pooch::sim
