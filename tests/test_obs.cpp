// Observability layer: JSON round-trip, Chrome-trace export schema,
// stats registry semantics, and the timeline validator — both that it
// accepts every stream the simulator records and that it rejects
// hand-corrupted ones (a validator that cannot fail proves nothing).
#include <gtest/gtest.h>

#include <cmath>

#include "baselines/policies.hpp"
#include "baselines/superneurons.hpp"
#include "exec/async_executor.hpp"
#include "graph/autodiff.hpp"
#include "kernels/conv.hpp"
#include "kernels/kernel_context.hpp"
#include "models/models.hpp"
#include "obs/json.hpp"
#include "obs/stats.hpp"
#include "obs/trace.hpp"
#include "obs/validate.hpp"
#include "pooch/pipeline.hpp"
#include "pooch/planner.hpp"
#include "sim/data_backend.hpp"
#include "sim/runtime.hpp"
#include "testing_util.hpp"

namespace pooch::obs {
namespace {

using graph::Graph;
using exec::OpType;
using sim::Classification;
using sim::RunOptions;
using sim::RunResult;
using sim::ValueClass;

// ---- JSON ----------------------------------------------------------

TEST(Json, ParsesScalarsArraysObjects) {
  const auto r = json::parse(
      R"({"a": [1, 2.5, -3], "b": {"c": "x\n\"yA"}, "t": true, "n": null})");
  ASSERT_TRUE(r.ok) << r.error;
  const json::Value& v = r.value;
  ASSERT_TRUE(v.is_object());
  const json::Value* a = v.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  EXPECT_EQ(a->as_array().size(), 3u);
  EXPECT_EQ(a->as_array()[0].as_int(), 1);
  EXPECT_DOUBLE_EQ(a->as_array()[1].as_double(), 2.5);
  EXPECT_EQ(a->as_array()[2].as_int(), -3);
  const json::Value* c = v.find("b")->find("c");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->as_string(), "x\n\"yA");
  EXPECT_TRUE(v.find("t")->as_bool());
  EXPECT_TRUE(v.find("n")->is_null());
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(Json, RejectsMalformedDocuments) {
  for (const char* bad : {"", "{", "[1,]", "{\"a\":}", "1 2", "tru",
                          "\"unterminated", "{\"a\" 1}", "[1, 2"}) {
    EXPECT_FALSE(json::parse(bad).ok) << "accepted: " << bad;
  }
}

TEST(Json, DumpParseRoundTrip) {
  json::Object o;
  o["ints"] = json::Array{json::Value(std::int64_t{-7}),
                          json::Value(std::uint64_t{1} << 53)};
  o["pi"] = 3.14159;
  o["s"] = "tab\there \"quoted\"";
  o["flag"] = false;
  const json::Value v(std::move(o));
  const auto r = json::parse(v.dump());
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.value.dump(), v.dump());
}

// ---- stats registry ------------------------------------------------

TEST(Stats, CounterGaugeHistogramSemantics) {
  StatsRegistry reg;
  reg.counter("c").add(3);
  reg.counter("c").add();
  EXPECT_EQ(reg.counter_value("c"), 4u);
  EXPECT_EQ(reg.counter_value("never"), 0u);

  reg.gauge("g").set(2.5);
  reg.gauge("g").add(0.5);
  EXPECT_DOUBLE_EQ(reg.gauge_value("g"), 3.0);

  Histogram& h = reg.histogram("h");
  h.add(0.001);
  h.add(0.002);
  h.add(10.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 10.003);
  EXPECT_DOUBLE_EQ(h.min(), 0.001);
  EXPECT_DOUBLE_EQ(h.max(), 10.0);
  const auto buckets = h.buckets();
  EXPECT_EQ(buckets[static_cast<std::size_t>(Histogram::bucket_of(0.001))],
            2u);
  EXPECT_EQ(buckets[static_cast<std::size_t>(Histogram::bucket_of(10.0))],
            1u);
}

TEST(Stats, SameNameReturnsSameMetric) {
  StatsRegistry reg;
  Counter& a = reg.counter("x");
  Counter& b = reg.counter("x");
  EXPECT_EQ(&a, &b);
  a.add(2);
  EXPECT_EQ(b.value(), 2u);
  reg.clear();
  EXPECT_EQ(reg.counter_value("x"), 0u);
}

TEST(Stats, JsonDumpParses) {
  StatsRegistry reg;
  reg.counter("runtime.runs").add(2);
  reg.gauge("arena.last.fragmentation").set(0.25);
  reg.histogram("stall").add(0.01);
  const auto r = json::parse(reg.to_json().dump());
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.value.find("counters")->find("runtime.runs")->as_int(), 2);
  EXPECT_DOUBLE_EQ(
      r.value.find("gauges")->find("arena.last.fragmentation")->as_double(),
      0.25);
  const json::Value* h = r.value.find("histograms")->find("stall");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->find("count")->as_int(), 1);
}

// ---- trace export --------------------------------------------------

struct SwapAllRun {
  Graph g;
  std::vector<graph::BwdStep> tape;
  cost::MachineConfig machine;
  sim::CostTimeModel tm;
  sim::Runtime rt;
  RunResult r;

  SwapAllRun()
      : g(models::paper_example(128, 56)),
        tape(graph::build_backward_tape(g)),
        machine(cost::x86_pcie()),
        tm(g, machine),
        rt(g, tape, machine, tm) {
    auto opts = baselines::swap_all_scheduled_options();
    opts.record_stream = true;
    r = rt.run(Classification(g, ValueClass::kSwap), opts);
  }
};

TEST(Trace, ExportIsParseableAndSchemaConformant) {
  SwapAllRun run;
  ASSERT_TRUE(run.r.ok) << run.r.failure;

  const Classification classes(run.g, ValueClass::kSwap);
  TraceOptions topt;
  topt.classes = &classes;
  const auto parsed =
      json::parse(chrome_trace_json(run.g, run.r, topt));
  ASSERT_TRUE(parsed.ok) << parsed.error;
  const json::Value& doc = parsed.value;

  const json::Value* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  std::size_t slices = 0, metadata = 0, stalls = 0;
  for (const json::Value& e : events->as_array()) {
    const std::string& ph = e.find("ph")->as_string();
    ASSERT_NE(e.find("pid"), nullptr);
    if (ph == "X") {
      ++slices;
      ASSERT_NE(e.find("name"), nullptr);
      ASSERT_NE(e.find("tid"), nullptr);
      ASSERT_NE(e.find("ts"), nullptr);
      ASSERT_NE(e.find("dur"), nullptr);
      EXPECT_GE(e.find("dur")->as_double(), 0.0);
      if (e.find("cat")->as_string() == "stall") {
        ++stalls;
      } else {
        // Op slices with a value carry its classification when one was
        // supplied in the options.
        ASSERT_NE(e.find("args"), nullptr);
        if (e.find("args")->find("value") != nullptr) {
          EXPECT_NE(e.find("args")->find("class"), nullptr);
        }
      }
    } else if (ph == "M") {
      ++metadata;
    }
  }
  // One slice per timed op plus one per stalled op; bookkeeping ops
  // (begin-iteration, frees) get none.
  std::size_t stalled_ops = 0;
  for (const auto& op : run.r.stream.ops) {
    if (op.stall > 0.0) ++stalled_ops;
  }
  const auto timed = static_cast<std::size_t>(run.r.stream.timed_count());
  EXPECT_LT(timed, run.r.stream.ops.size());
  EXPECT_EQ(slices, timed + stalled_ops);
  EXPECT_EQ(stalls, stalled_ops);
  EXPECT_GT(stalled_ops, 0u);  // swap-all on paper_example does stall
  EXPECT_GE(metadata, 4u);     // process name + three stream names

  const json::Value* agg = doc.find("pooch");
  ASSERT_NE(agg, nullptr);
  EXPECT_NEAR(agg->find("compute_busy_s")->as_double(),
              run.r.compute_busy, 1e-12);
  EXPECT_EQ(agg->find("num_ops")->as_int(),
            static_cast<std::int64_t>(timed));
}

// ---- validator: accepts real timelines -----------------------------

TEST(Validator, AcceptsSimulatorTimelines) {
  SwapAllRun run;
  ASSERT_TRUE(run.r.ok) << run.r.failure;
  const TimelineValidator validator(run.g, run.tape);
  const auto rep =
      validator.check_run(run.r, run.machine.usable_gpu_bytes());
  EXPECT_TRUE(rep.ok()) << rep.to_string();

  // Also across classifications and scheduling policies.
  const auto sn =
      baselines::superneurons_plan(run.g, run.tape, run.machine, run.tm);
  auto opts = baselines::superneurons_run_options();
  opts.record_stream = true;
  const RunResult r2 = run.rt.run(sn.classes, opts);
  ASSERT_TRUE(r2.ok) << r2.failure;
  EXPECT_TRUE(validator.check_run(r2).ok())
      << validator.check_run(r2).to_string();

  Classification mixed(run.g, ValueClass::kSwap);
  for (graph::ValueId v : sim::classifiable_values(run.g, run.tape)) {
    // Inputs cannot be recomputed; leave them swapped.
    if (run.g.value(v).producer == graph::kNoNode) continue;
    if (v % 3 == 0) mixed.set(v, ValueClass::kRecompute);
    if (v % 3 == 1) mixed.set(v, ValueClass::kKeep);
  }
  RunOptions ro;
  ro.record_stream = true;
  const RunResult r3 = run.rt.run(mixed, ro);
  ASSERT_TRUE(r3.ok) << r3.failure;
  EXPECT_TRUE(validator.check_run(r3).ok())
      << validator.check_run(r3).to_string();
}

// ---- validator: rejects corrupted streams ---------------------------

TEST(Validator, RejectsOverlappingComputeSpans) {
  SwapAllRun run;
  ASSERT_TRUE(run.r.ok) << run.r.failure;
  exec::OpStream bad = run.r.stream;
  // Stretch the first forward op over its successor on the same lane.
  for (auto& op : bad.ops) {
    if (op.type == OpType::kForward) {
      op.sim_end += 1.0;
      break;
    }
  }
  const TimelineValidator validator(run.g, run.tape);
  ASSERT_TRUE(validator.check(run.r.stream).ok());
  const auto rep = validator.check(bad);
  EXPECT_FALSE(rep.ok());
  bool mentions_overlap = false;
  for (const auto& e : rep.errors) {
    if (e.find("overlap") != std::string::npos) mentions_overlap = true;
  }
  EXPECT_TRUE(mentions_overlap) << rep.to_string();
}

TEST(Validator, RejectsSwapInCompletingAfterConsumer) {
  SwapAllRun run;
  ASSERT_TRUE(run.r.ok) << run.r.failure;
  exec::OpStream bad = run.r.stream;
  // Push one swap-in's completion past the end of the schedule while
  // keeping the lane's busy sum consistent, so only the dependency check
  // can catch it.
  double last_end = 0.0;
  for (const auto& op : bad.ops) last_end = std::max(last_end, op.sim_end);
  for (auto& op : bad.ops) {
    if (op.type == OpType::kSwapIn) {
      const double shift = last_end + 1.0 - op.sim_start;
      op.sim_start += shift;
      op.sim_end += shift;
      break;
    }
  }
  const TimelineValidator validator(run.g, run.tape);
  const auto rep = validator.check(bad);
  EXPECT_FALSE(rep.ok());
  bool mentions_read = false;
  for (const auto& e : rep.errors) {
    if (e.find("reads v") != std::string::npos) mentions_read = true;
  }
  EXPECT_TRUE(mentions_read) << rep.to_string();
}

TEST(Validator, RejectsBrokenStallAccounting) {
  SwapAllRun run;
  ASSERT_TRUE(run.r.ok) << run.r.failure;
  ASSERT_GT(run.r.compute_stall, 0.0);
  const TimelineValidator validator(run.g, run.tape);
  // Halving one op's stall loses time on the gapless compute lane.
  RunResult bad = run.r;
  for (auto& op : bad.stream.ops) {
    if (op.stall > 0.0) {
      op.stall *= 0.5;
      break;
    }
  }
  EXPECT_FALSE(validator.check(bad.stream).ok());
  EXPECT_FALSE(validator.check_run(bad).ok());

  // check_run also cross-checks the RunResult's own accounting against
  // the recorded ops.
  RunResult bad2 = run.r;
  bad2.compute_stall += 1.0;
  EXPECT_FALSE(validator.check_run(bad2).ok());
  RunResult bad3 = run.r;
  bad3.h2d_busy *= 0.5;
  EXPECT_FALSE(validator.check_run(bad3).ok());
}

// ---- stats wiring --------------------------------------------------

TEST(StatsWiring, RuntimePublishesTransferCounters) {
  SwapAllRun run;
  StatsRegistry reg;
  auto opts = baselines::swap_all_scheduled_options();
  opts.stats = &reg;
  const RunResult r =
      run.rt.run(Classification(run.g, ValueClass::kSwap), opts);
  ASSERT_TRUE(r.ok) << r.failure;
  EXPECT_EQ(reg.counter_value("runtime.runs"), 1u);
  EXPECT_GT(reg.counter_value("runtime.swapins"), 0u);
  EXPECT_GT(reg.counter_value("runtime.swapouts"), 0u);
  EXPECT_GT(reg.counter_value("arena.allocs"), 0u);
  EXPECT_NEAR(reg.gauge_value("runtime.last.iteration_seconds"),
              r.iteration_time, 1e-12);
  EXPECT_NEAR(reg.gauge_value("arena.last.peak_bytes"),
              static_cast<double>(r.peak_arena_bytes), 0.5);
  EXPECT_EQ(reg.histogram("runtime.transfer_seconds").count(),
            reg.counter_value("runtime.swapins") +
                reg.counter_value("runtime.swapouts"));
}

TEST(StatsWiring, ArenaStatisticsCoverTheWholeIteration) {
  // A completed iteration frees every buffer it allocated — the last
  // swap-outs' buffers included, which no later allocation waits for —
  // so its arena statistics end with the arena empty.
  const Graph g = models::resnet50(512);
  const auto tape = graph::build_backward_tape(g);
  const cost::MachineConfig machine = cost::x86_pcie();
  const sim::CostTimeModel tm(g, machine);
  const sim::Runtime rt(g, tape, machine, tm);
  for (const auto policy :
       {sim::SwapInPolicy::kOnDemand, sim::SwapInPolicy::kLookahead1,
        sim::SwapInPolicy::kLookaheadPrevConv,
        sim::SwapInPolicy::kEagerMemoryAware}) {
    StatsRegistry reg;
    sim::RunOptions opts;
    opts.swapin_policy = policy;
    opts.stats = &reg;
    const RunResult r = rt.run(Classification(g, ValueClass::kSwap), opts);
    ASSERT_TRUE(r.ok) << r.failure;
    EXPECT_GT(reg.counter_value("arena.allocs"), 0u);
    EXPECT_EQ(reg.counter_value("arena.frees"),
              reg.counter_value("arena.allocs"))
        << "policy " << static_cast<int>(policy);
    EXPECT_EQ(reg.gauge_value("arena.last.fragmentation"), 0.0)
        << "policy " << static_cast<int>(policy);
  }
}

TEST(StatsWiring, PlannerPublishesSearchCounters) {
  SwapAllRun run;
  StatsRegistry reg;
  planner::PlannerOptions popt;
  popt.stats = &reg;
  const planner::PoochPlanner pl(run.g, run.tape, run.machine, run.tm, popt);
  const auto plan = pl.plan();
  ASSERT_TRUE(plan.feasible);
  EXPECT_EQ(reg.counter_value("planner.plans"), 1u);
  EXPECT_EQ(reg.counter_value("planner.simulations"),
            static_cast<std::uint64_t>(plan.simulations));
  EXPECT_GT(reg.gauge_value("planner.last.total_seconds"), 0.0);
}

TEST(StatsWiring, ConvKernelsPublishTheirPath) {
  // One in-core Inception-toy iteration at 32x32: every conv is a
  // stride-1 "same" conv on 32-, 16- or 8-wide rows, so each forward and
  // each backward that computes dX takes the direct path. The stem's
  // backward has no dX (the network input needs none), and its 3 input
  // channels fill no vector, so its dW runs on the GEMM.
  const Graph g = models::inception_toy(2, 32);
  const auto tape = graph::build_backward_tape(g);
  const cost::MachineConfig machine = cost::x86_pcie();
  const sim::CostTimeModel tm(g, machine);
  const sim::Runtime rt(g, tape, machine, tm);
  const exec::OpStream stream =
      planner::record_op_stream(rt, Classification(g, ValueClass::kKeep));
  StatsRegistry reg;
  kernels::KernelContext kctx(2);
  kctx.stats = &reg;
  sim::DataBackend data(g, /*seed=*/1, 0.01f, &kctx);
  const exec::AsyncResult res = exec::AsyncExecutor(g, stream).run(data);
  ASSERT_TRUE(res.ok) << res.failure;
  std::uint64_t convs = 0;
  for (graph::NodeId n = 0; n < g.num_nodes(); ++n) {
    if (g.node(n).kind == graph::LayerKind::kConv) ++convs;
  }
  ASSERT_EQ(convs, 9u);
  EXPECT_EQ(reg.counter_value("kernel.conv_forward_direct.calls"), convs);
  EXPECT_EQ(reg.counter_value("kernel.conv_forward.calls"), 0u);
  EXPECT_EQ(reg.counter_value("kernel.conv_backward_direct.calls"),
            convs - 1);
  EXPECT_EQ(reg.counter_value("kernel.conv_backward.calls"), 1u);

  // A strided conv keeps im2col + GEMM in both directions.
  const Shape xs{2, 8, 16, 16};
  const ConvAttrs strided = ConvAttrs::conv2d(8, 3, 2, 1);
  const Tensor x = pooch::testing::random_tensor(xs, 1);
  const Tensor w =
      pooch::testing::random_tensor(kernels::conv_weight_shape(xs, strided), 2);
  const Tensor b = pooch::testing::random_tensor(Shape{8}, 3);
  Tensor y(kernels::conv_output_shape(xs, strided));
  Tensor dx(xs), dw(w.shape()), db(b.shape());
  kernels::conv_forward(x, w, &b, y, strided, kctx);
  kernels::conv_backward(x, w, y, &dx, dw, &db, strided, kctx);
  EXPECT_EQ(reg.counter_value("kernel.conv_forward.calls"), 1u);
  EXPECT_EQ(reg.counter_value("kernel.conv_backward.calls"), 2u);
  EXPECT_EQ(reg.counter_value("kernel.conv_forward_direct.calls"), convs);
  EXPECT_EQ(reg.counter_value("kernel.conv_backward_direct.calls"),
            convs - 1);
}

}  // namespace
}  // namespace pooch::obs
