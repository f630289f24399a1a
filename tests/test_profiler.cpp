#include <gtest/gtest.h>

#include "cost/calibrated_time_model.hpp"
#include "graph/autodiff.hpp"
#include "models/models.hpp"
#include "pooch/pipeline.hpp"
#include "profile/profiler.hpp"

namespace pooch::profile {
namespace {

using graph::Graph;

struct Rig {
  Graph g;
  std::vector<graph::BwdStep> tape;
  cost::MachineConfig machine;
  std::unique_ptr<sim::CostTimeModel> tm;

  explicit Rig(Graph graph, double link_gbps = 4.0, std::size_t cap_mib = 512)
      : g(std::move(graph)), tape(graph::build_backward_tape(g)),
        machine(cost::test_machine(cap_mib)) {
    machine.link_gbps = link_gbps;
    tm = std::make_unique<sim::CostTimeModel>(g, machine);
  }
};

TEST(Profiler, AveragesConvergeToGroundTruth) {
  Rig rig(models::paper_example(8, 32, 32));
  ProfileOptions opts;
  opts.iterations = 8;
  opts.noise_sigma = 0.05;
  const auto data = run_profiler(rig.g, rig.tape, rig.machine, *rig.tm, opts);
  ASSERT_EQ(data.times.num_nodes(), rig.g.num_nodes());
  for (const auto& n : rig.g.nodes()) {
    const double truth = rig.tm->forward_time(n.id);
    const double measured = data.times.forward_seconds(n.id);
    EXPECT_NEAR(measured, truth, 0.15 * truth) << "node " << n.name;
  }
  EXPECT_GT(data.profiled_seconds, 0.0);
  EXPECT_EQ(data.iterations, 8);
  EXPECT_EQ(data.times.iterations_recorded(), 8);
}

TEST(Profiler, ZeroNoiseIsExact) {
  Rig rig(models::paper_example(8, 32, 32));
  ProfileOptions opts;
  opts.iterations = 2;
  opts.noise_sigma = 0.0;
  const auto data = run_profiler(rig.g, rig.tape, rig.machine, *rig.tm, opts);
  for (const auto& n : rig.g.nodes()) {
    const double f = rig.tm->forward_time(n.id);
    const double b = rig.tm->backward_time(n.id);
    // Durations are reconstructed as (end - start) from accumulated
    // stream clocks, so allow rounding at the last few ulps.
    EXPECT_NEAR(data.times.forward_seconds(n.id), f, 1e-9 * f);
    EXPECT_NEAR(data.times.backward_seconds(n.id), b, 1e-9 * b);
  }
  EXPECT_NEAR(data.times.update_seconds(), rig.tm->update_time(),
              1e-9 * rig.tm->update_time());
}

TEST(Profiler, DeterministicForFixedSeed) {
  Rig rig(models::small_cnn(4, 16));
  ProfileOptions opts;
  opts.iterations = 3;
  opts.noise_sigma = 0.05;
  const auto a = run_profiler(rig.g, rig.tape, rig.machine, *rig.tm, opts);
  const auto b = run_profiler(rig.g, rig.tape, rig.machine, *rig.tm, opts);
  for (graph::NodeId n = 0; n < rig.g.num_nodes(); ++n) {
    EXPECT_EQ(a.times.forward_seconds(n), b.times.forward_seconds(n));
  }
  for (graph::ValueId v = 0; v < rig.g.num_values(); ++v) {
    EXPECT_EQ(a.times.d2h_seconds(v), b.times.d2h_seconds(v));
  }
}

TEST(Profiler, KeepsOneMeanSamplePerObservedOp) {
  Rig rig(models::small_cnn(4, 16));
  ProfileOptions opts;
  opts.iterations = 4;
  opts.noise_sigma = 0.05;
  const auto data = run_profiler(rig.g, rig.tape, rig.machine, *rig.tm, opts);
  const MeasuredProfile& t = data.times;
  std::int64_t observed = 2;  // the update and the iteration time
  for (graph::NodeId n = 0; n < rig.g.num_nodes(); ++n) {
    observed += t.has_forward(n) + t.has_backward(n);
  }
  for (graph::ValueId v = 0; v < rig.g.num_values(); ++v) {
    observed += t.has_d2h(v) + t.has_h2d(v);
  }
  EXPECT_EQ(t.total_samples(), observed);
  EXPECT_EQ(t.outliers_rejected(), 0);
  EXPECT_DOUBLE_EQ(t.iteration_seconds(),
                   data.profiled_seconds / opts.iterations);
}

/// run_pooch plans on cost::CalibratedTimeModel over the profiled means:
/// every op profiling observed is served exactly its mean, every
/// transfer it never observed is still priced, and the plan is the one
/// the planner makes on that model.
TEST(Profiler, PlanningModelServesTheProfiledMeans) {
  Rig rig(models::small_cnn(4, 16));
  planner::PipelineOptions po;
  po.profile.noise_sigma = 0.05;
  const auto data =
      run_profiler(rig.g, rig.tape, rig.machine, *rig.tm, po.profile);
  ASSERT_TRUE(data.ok);
  const MeasuredProfile& t = data.times;
  const cost::CalibratedTimeModel model(rig.g, t, *rig.tm);

  for (graph::NodeId n = 0; n < rig.g.num_nodes(); ++n) {
    if (t.has_forward(n)) {
      EXPECT_EQ(model.forward_time(n), t.forward_seconds(n)) << "n" << n;
    }
    if (t.has_backward(n)) {
      EXPECT_EQ(model.backward_time(n), t.backward_seconds(n)) << "n" << n;
    }
  }
  // Values with no backward use are never swapped during profiling, but
  // the model must still price their transfers.
  int observed = 0, unobserved = 0;
  for (graph::ValueId v = 0; v < rig.g.num_values(); ++v) {
    if (t.has_d2h(v)) {
      EXPECT_EQ(model.d2h_time(v), t.d2h_seconds(v)) << "v" << v;
      ++observed;
    } else if (rig.g.value(v).byte_size() > 0) {
      EXPECT_GT(model.d2h_time(v), 0.0) << "v" << v;
      ++unobserved;
    }
    if (t.has_h2d(v)) {
      EXPECT_EQ(model.h2d_time(v), t.h2d_seconds(v)) << "v" << v;
    } else if (rig.g.value(v).byte_size() > 0) {
      EXPECT_GT(model.h2d_time(v), 0.0) << "v" << v;
    }
  }
  EXPECT_EQ(model.update_time(), t.update_seconds());
  EXPECT_GT(observed, 0);
  EXPECT_GT(unobserved, 0);

  const auto out = planner::run_pooch(rig.g, rig.tape, rig.machine, *rig.tm,
                                      po);
  ASSERT_TRUE(out.ok);
  const auto direct =
      planner::PoochPlanner(rig.g, rig.tape, rig.machine, model, po.planner)
          .plan();
  EXPECT_EQ(out.plan.classes.serialize(), direct.classes.serialize());
  EXPECT_EQ(out.plan.predicted_time, direct.predicted_time);
}

}  // namespace
}  // namespace pooch::profile
