// Differential fuzz harness for the asynchronous out-of-core executor:
// for a corpus of random graphs and all classification policies
// (keep-all, swap-all, planner hybrid), the AsyncExecutor's losses,
// gradients and parameters must be bit-identical to the serial in-core
// reference at 1, 2 and 8 copy workers — the paper's transparency claim
// held under true concurrency. Every replay is additionally checked
// against the obs::TimelineValidator ordering oracle: measured spans
// must respect each dependency edge, and every read must land while its
// value is materialized (derived from the graph/tape, independent of
// the dependency edges).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "cost/cost_model.hpp"
#include "exec/async_executor.hpp"
#include "exec/op_stream.hpp"
#include "exec/schedule.hpp"
#include "graph/autodiff.hpp"
#include "mem/host_pool.hpp"
#include "models/models.hpp"
#include "obs/stats.hpp"
#include "obs/trace.hpp"
#include "obs/validate.hpp"
#include "pooch/pipeline.hpp"
#include "pooch/planner.hpp"
#include "sim/runtime.hpp"
#include "tensor/tensor_ops.hpp"
#include "testing_util.hpp"

namespace pooch::sim {
namespace {

using testing::async_replay;
using testing::kDataSeed;
using testing::serial_reference;

struct AsyncEnv {
  graph::Graph g;
  std::vector<graph::BwdStep> tape;
  cost::MachineConfig machine;
  std::unique_ptr<CostTimeModel> tm;
  std::unique_ptr<Runtime> rt;

  AsyncEnv(graph::Graph graph, std::size_t cap_mib, double link_gbps = 3.0)
      : g(std::move(graph)),
        tape(graph::build_backward_tape(g)),
        machine(cost::test_machine(cap_mib)) {
    machine.link_gbps = link_gbps;
    tm = std::make_unique<CostTimeModel>(g, machine);
    rt = std::make_unique<Runtime>(g, tape, machine, *tm);
  }
};

void expect_bit_identical(const DataBackend& a, const DataBackend& b,
                          const std::string& what) {
  EXPECT_EQ(a.first_difference(b), "") << what;
}

// ---- op-stream export ------------------------------------------------

TEST(AsyncExecStream, RecordedStreamIsReplayable) {
  AsyncEnv env(models::small_cnn(2, 16), 8192);
  RunOptions ro;
  ro.record_stream = true;
  const auto r = env.rt->run(Classification(env.g, ValueClass::kSwap), ro);
  ASSERT_TRUE(r.ok) << r.failure;
  const exec::OpStream& stream = r.stream;

  // One forward and one backward per node, one update, one
  // begin-iteration, and transfers in both directions.
  const int nodes = env.g.num_nodes();
  EXPECT_EQ(stream.count(exec::OpType::kForward), nodes);
  EXPECT_EQ(stream.count(exec::OpType::kBackward), nodes);
  EXPECT_EQ(stream.count(exec::OpType::kUpdate), 1);
  EXPECT_EQ(stream.count(exec::OpType::kBeginIteration), 1);
  EXPECT_GT(stream.count(exec::OpType::kSwapOut), 0);
  EXPECT_GT(stream.count(exec::OpType::kSwapIn), 0);
  // The simulated spans and their accounting close.
  const obs::TimelineValidator validator(env.g, env.tape);
  const auto rep = validator.check_run(r);
  EXPECT_TRUE(rep.ok()) << rep.to_string();

  const auto errors = stream.validate(env.g, env.tape);
  EXPECT_TRUE(errors.empty()) << errors.size() << " errors, first: "
                              << errors.front();
  // Every swap-in must wait for the swap-out that wrote its host copy —
  // a swap-in without that edge would race the D2H.
  const exec::Schedule sched = exec::build_schedule(env.g, env.tape, stream);
  std::vector<std::int32_t> last_swapout(
      static_cast<std::size_t>(env.g.num_values()), -1);
  for (std::size_t i = 0; i < stream.ops.size(); ++i) {
    const auto& op = stream.ops[i];
    const auto v = static_cast<std::size_t>(op.value);
    if (op.type == exec::OpType::kSwapOut) {
      last_swapout[v] = static_cast<std::int32_t>(i);
    } else if (op.type == exec::OpType::kSwapIn) {
      ASSERT_GE(last_swapout[v], 0) << "swap-in of v" << op.value;
      const auto& deps = sched.deps[i];
      EXPECT_TRUE(std::find(deps.begin(), deps.end(), last_swapout[v]) !=
                  deps.end())
          << "swap-in of v" << op.value << " does not wait for its swap-out";
    }
  }
}

// ---- the differential corpus ----------------------------------------

TEST(AsyncExecDifferential, RandomGraphCorpusBitIdenticalAllPolicies) {
  int planner_covered = 0;
  int swap_covered = 0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    AsyncEnv roomy(testing::random_graph(seed), 8192);
    const auto ref = serial_reference(roomy.g, roomy.tape);
    const auto keep = roomy.rt->run(Classification(roomy.g, ValueClass::kKeep));
    ASSERT_TRUE(keep.ok);

    for (const int workers : {1, 2, 8}) {
      const std::string tag =
          "seed " + std::to_string(seed) + " workers " + std::to_string(workers);
      // keep-all: the stream is pure compute; replay must still match.
      const auto keep_async = async_replay(
          *roomy.rt, Classification(roomy.g, ValueClass::kKeep), workers);
      expect_bit_identical(*ref, *keep_async, tag + " keep-all");
    }

    // Out-of-core capacity: tight enough to force real swap traffic,
    // relaxed until swap-all's schedule is feasible (the rescue chain
    // handles most of the 70% cases already).
    std::unique_ptr<AsyncEnv> tight;
    for (const std::size_t pct : {70, 80, 90, 100}) {
      auto candidate = std::make_unique<AsyncEnv>(
          testing::random_graph(seed),
          std::max<std::size_t>(1, keep.peak_bytes * pct / 100 / kMiB + 1),
          1.0);
      if (candidate->rt
              ->run(Classification(candidate->g, ValueClass::kSwap))
              .ok) {
        tight = std::move(candidate);
        break;
      }
    }
    ASSERT_TRUE(tight) << "seed " << seed
                       << ": swap-all infeasible even at full keep peak";

    for (const int workers : {1, 2, 8}) {
      const std::string tag =
          "seed " + std::to_string(seed) + " workers " + std::to_string(workers);
      const auto swap_async = async_replay(
          *tight->rt, Classification(tight->g, ValueClass::kSwap), workers);
      expect_bit_identical(*ref, *swap_async, tag + " swap-all");
      ++swap_covered;
    }

    planner::PoochPlanner planner(tight->g, tight->tape, tight->machine,
                                  *tight->tm);
    const auto plan = planner.plan();
    if (plan.feasible) {
      for (const int workers : {1, 2, 8}) {
        const std::string tag =
            "seed " + std::to_string(seed) + " workers " +
            std::to_string(workers);
        const auto hybrid_async =
            async_replay(*tight->rt, plan.classes, workers);
        expect_bit_identical(*ref, *hybrid_async,
                             tag + " planner-hybrid");
      }
      ++planner_covered;
    }
  }
  EXPECT_GT(swap_covered, 0);
  EXPECT_GT(planner_covered, 0) << "planner hybrid never feasible on corpus";
}

TEST(AsyncExecDifferential, MultiIterationTrajectoryBitIdentical) {
  AsyncEnv env(models::small_cnn(2, 16), 8192);
  const auto keep = env.rt->run(Classification(env.g, ValueClass::kKeep));
  ASSERT_TRUE(keep.ok);
  AsyncEnv tight(models::small_cnn(2, 16),
                 std::max<std::size_t>(1, keep.peak_bytes * 8 / 10 / kMiB + 1),
                 1.0);
  const auto ref = serial_reference(env.g, env.tape, /*iterations=*/3);
  for (const int workers : {1, 2}) {
    const auto async = async_replay(
        *tight.rt, Classification(tight.g, ValueClass::kSwap), workers,
        /*compute_workers=*/workers, {}, /*iterations=*/3);
    expect_bit_identical(*ref, *async,
                         "3 iterations, workers " + std::to_string(workers));
  }
}

TEST(AsyncExecDifferential, ResNetMixedClassification) {
  AsyncEnv env(models::resnet18(1, 32, 8), 8192);
  const auto ref = serial_reference(env.g, env.tape);
  Classification mixed(env.g, ValueClass::kKeep);
  int i = 0;
  for (const auto& v : env.g.values()) {
    if (v.producer == graph::kNoNode) continue;
    switch (i++ % 3) {
      case 0:
        mixed.set(v.id, ValueClass::kSwap);
        break;
      case 1:
        mixed.set(v.id, ValueClass::kRecompute);
        break;
      default:
        break;
    }
  }
  for (const int workers : {1, 2, 8}) {
    const auto async = async_replay(*env.rt, mixed, workers);
    expect_bit_identical(*ref, *async,
                         "resnet18 mixed, workers " + std::to_string(workers));
  }
}

// ---- accounting and oracle self-checks -------------------------------

TEST(AsyncExecHostPool, SwapAccountingBalances) {
  AsyncEnv env(models::small_cnn(2, 16), 8192);
  const exec::OpStream stream = planner::record_op_stream(
      *env.rt, Classification(env.g, ValueClass::kSwap));
  DataBackend backend(env.g, kDataSeed);
  mem::HostPool pool(std::size_t{1} << 30);
  const exec::AsyncExecutor executor(env.g, stream);
  exec::AsyncOptions ao;
  ao.host_pool = &pool;
  const auto res = executor.run(backend, ao);
  ASSERT_TRUE(res.ok) << res.failure;
  EXPECT_GT(pool.peak_in_use(), 0u);
  EXPECT_EQ(pool.in_use(), 0u) << "host bytes leaked across the iteration";
  EXPECT_EQ(res.staging_acquisitions,
            static_cast<std::uint64_t>(stream.count(exec::OpType::kSwapOut)));
}

TEST(AsyncExecHostPool, PoolOfExactlyTheHostSlabSuffices) {
  AsyncEnv env(models::small_cnn(2, 16), 8192);
  const exec::OpStream stream = planner::record_op_stream(
      *env.rt, Classification(env.g, ValueClass::kSwap));
  DataBackend backend(env.g, kDataSeed);
  const exec::AsyncExecutor executor(env.g, stream);
  const std::size_t slab = executor.layout().host_bytes();
  ASSERT_GT(slab, 0u);
  mem::HostPool pool(slab);
  exec::AsyncOptions ao;
  ao.host_pool = &pool;
  const auto res = executor.run(backend, ao);
  ASSERT_TRUE(res.ok) << res.failure;
  EXPECT_EQ(pool.peak_in_use(), slab);
  EXPECT_EQ(pool.in_use(), 0u);
}

TEST(AsyncExecHostPool, ExhaustedPoolFailsLoudly) {
  AsyncEnv env(models::small_cnn(2, 16), 8192);
  const exec::OpStream stream = planner::record_op_stream(
      *env.rt, Classification(env.g, ValueClass::kSwap));
  DataBackend backend(env.g, kDataSeed);
  const exec::AsyncExecutor executor(env.g, stream);
  mem::HostPool pool(executor.layout().host_bytes() - 1);
  exec::AsyncOptions ao;
  ao.host_pool = &pool;
  const auto res = executor.run(backend, ao);
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.failure.find("host pool"), std::string::npos) << res.failure;
  // It failed before any op ran: the backend is still freshly seeded.
  EXPECT_EQ(backend.first_difference(DataBackend(env.g, kDataSeed)), "");
  EXPECT_EQ(pool.in_use(), 0u);
}

// ---- multi-worker compute scheduling (exec/schedule.hpp) -------------

TEST(AsyncSchedSchedule, HazardEdgesTopologicalAndPriced) {
  AsyncEnv env(models::small_cnn(2, 16), 8192);
  const exec::OpStream stream = planner::record_op_stream(
      *env.rt, Classification(env.g, ValueClass::kSwap));
  const exec::Schedule sched =
      exec::build_schedule(env.g, env.tape, stream);
  ASSERT_EQ(sched.size(), stream.ops.size());
  int same_lane_edges = 0;
  int cross_lane_edges = 0;
  double max_priority = 0.0;
  for (std::size_t i = 0; i < stream.ops.size(); ++i) {
    for (const std::int32_t d : sched.deps[i]) {
      // Strictly earlier ops only: the dependency graph is a DAG by
      // construction, which is the whole deadlock-freedom argument.
      EXPECT_LT(d, static_cast<std::int32_t>(i)) << "op " << i;
      const bool same =
          exec::lane_of(stream.ops[static_cast<std::size_t>(d)].type) ==
          exec::lane_of(stream.ops[i].type);
      ++(same ? same_lane_edges : cross_lane_edges);
    }
    const double span = stream.ops[i].sim_end - stream.ops[i].sim_start;
    EXPECT_GE(sched.priority[i], span - 1e-12) << "op " << i;
    max_priority = std::max(max_priority, sched.priority[i]);
  }
  // With several compute workers, stream order alone orders nothing, so
  // the footprints must yield compute-compute edges as well as the
  // edges that order the copy lanes against compute.
  EXPECT_GT(same_lane_edges, 0);
  EXPECT_GT(cross_lane_edges, 0);
  EXPECT_DOUBLE_EQ(sched.critical_path_seconds, max_priority);
}

TEST(AsyncSchedSchedule, CriticalPathIsPricedLikeTheDispatch) {
  // The reported critical path is the schedule's, priced by the
  // stream's spans like the dispatch priorities, at any compute-worker
  // count.
  AsyncEnv env(models::small_cnn(2, 16), 8192);
  const exec::OpStream stream = planner::record_op_stream(
      *env.rt, Classification(env.g, ValueClass::kSwap));
  const double want =
      exec::build_schedule(env.g, env.tape, stream).critical_path_seconds;
  EXPECT_GT(want, 0.0);
  const exec::AsyncExecutor executor(env.g, stream);
  for (const int workers : {1, 2}) {
    DataBackend backend(env.g, kDataSeed);
    exec::AsyncOptions ao;
    ao.compute_workers = workers;
    const auto res = executor.run(backend, ao);
    ASSERT_TRUE(res.ok) << res.failure;
    EXPECT_EQ(res.critical_path_seconds, want) << workers << " workers";
  }
}

TEST(AsyncSchedOracle, FlagsHazardOnlyEdgeViolation) {
  AsyncEnv env(models::small_cnn(2, 16), 8192);
  const exec::OpStream stream = planner::record_op_stream(
      *env.rt, Classification(env.g, ValueClass::kSwap));
  DataBackend backend(env.g, kDataSeed);
  const exec::AsyncExecutor executor(env.g, stream);
  auto res = executor.run(backend, {});
  ASSERT_TRUE(res.ok) << res.failure;
  const obs::TimelineValidator validator(env.g, env.tape);
  ASSERT_TRUE(validator.check_replay(stream, res.spans).ok());

  // Make one dependent op "start" before its dependency finished, once
  // across lanes and once within a lane: the oracle derives the partial
  // order from the op footprints, so it must notice both.
  const exec::Schedule& sched = executor.schedule();
  for (const bool same_lane : {false, true}) {
    bool corrupted = false;
    for (std::size_t i = 0; i < stream.ops.size() && !corrupted; ++i) {
      for (const std::int32_t d : sched.deps[i]) {
        const auto dep = static_cast<std::size_t>(d);
        if ((exec::lane_of(stream.ops[dep].type) ==
             exec::lane_of(stream.ops[i].type)) != same_lane) {
          continue;
        }
        auto spans = res.spans;
        spans[i].seq_start = spans[dep].seq_end;  // tie = violation
        EXPECT_FALSE(validator.check_replay(stream, spans).ok())
            << "edge " << d << " -> " << i;
        corrupted = true;
        break;
      }
    }
    EXPECT_TRUE(corrupted) << (same_lane ? "no same-lane" : "no cross-lane")
                           << " edge in the schedule";
  }
}

TEST(AsyncSchedOracle, FlagsReadyBeforeDependencyEnd) {
  AsyncEnv env(models::small_cnn(2, 16), 8192);
  const exec::OpStream stream = planner::record_op_stream(
      *env.rt, Classification(env.g, ValueClass::kSwap));
  DataBackend backend(env.g, kDataSeed);
  const exec::AsyncExecutor executor(env.g, stream);
  auto res = executor.run(backend, {});
  ASSERT_TRUE(res.ok) << res.failure;
  const obs::TimelineValidator validator(env.g, env.tape);
  ASSERT_TRUE(validator.check_replay(stream, res.spans).ok());

  // Stretch one op's ready-queue wait back past its dependency's end:
  // start and sequence numbers stay as measured, so only the ready time
  // (start - wait) tells that the op was queued before it could be.
  const exec::Schedule& sched = executor.schedule();
  bool corrupted = false;
  for (std::size_t i = 0; i < stream.ops.size() && !corrupted; ++i) {
    if (sched.deps[i].empty()) continue;
    const exec::OpSpan& dep =
        res.spans[static_cast<std::size_t>(sched.deps[i].front())];
    res.spans[i].wait = res.spans[i].start - (dep.end - 1e-3);
    corrupted = true;
  }
  ASSERT_TRUE(corrupted) << "no op with a dependency";
  const auto rep = validator.check_replay(stream, res.spans);
  EXPECT_FALSE(rep.ok());
  EXPECT_NE(rep.to_string().find("ready at"), std::string::npos)
      << rep.to_string();
}

TEST(AsyncSchedOracle, FlagsNegativeReadyWait) {
  AsyncEnv env(models::small_cnn(2, 16), 8192);
  const exec::OpStream stream = planner::record_op_stream(
      *env.rt, Classification(env.g, ValueClass::kSwap));
  DataBackend backend(env.g, kDataSeed);
  const exec::AsyncExecutor executor(env.g, stream);
  auto res = executor.run(backend, {});
  ASSERT_TRUE(res.ok) << res.failure;
  const obs::TimelineValidator validator(env.g, env.tape);
  ASSERT_TRUE(validator.check_replay(stream, res.spans).ok());

  // A worker cannot start an op before it entered the ready queue.
  res.spans.back().wait = -1e-3;
  const auto rep = validator.check_replay(stream, res.spans);
  EXPECT_FALSE(rep.ok());
  EXPECT_NE(rep.to_string().find("malformed span"), std::string::npos)
      << rep.to_string();
}

TEST(AsyncSchedOracle, FlagsKillInsideReaderWindow) {
  AsyncEnv env(models::small_cnn(2, 16), 8192);
  const exec::OpStream stream = planner::record_op_stream(
      *env.rt, Classification(env.g, ValueClass::kSwap));
  DataBackend backend(env.g, kDataSeed);
  const exec::AsyncExecutor executor(env.g, stream);
  auto res = executor.run(backend, {});
  ASSERT_TRUE(res.ok) << res.failure;
  const obs::TimelineValidator validator(env.g, env.tape);
  ASSERT_TRUE(validator.check_replay(stream, res.spans).ok());

  // Stretch a forward reader's window over the swap-out that kills one
  // of its inputs — the exact interleaving a missed WAR edge would
  // produce under concurrent compute.
  bool corrupted = false;
  for (std::size_t k = 0; k < stream.ops.size() && !corrupted; ++k) {
    if (stream.ops[k].type != exec::OpType::kSwapOut) continue;
    const graph::ValueId v = stream.ops[k].value;
    for (std::size_t i = 0; i < k && !corrupted; ++i) {
      if (stream.ops[i].type != exec::OpType::kForward) continue;
      const auto& inputs =
          env.g.nodes()[static_cast<std::size_t>(stream.ops[i].node)].inputs;
      if (std::find(inputs.begin(), inputs.end(), v) == inputs.end()) {
        continue;
      }
      res.spans[i].seq_end = res.spans[k].seq_start + 1;
      corrupted = true;
    }
  }
  ASSERT_TRUE(corrupted) << "no swap-out with an earlier forward reader";
  const auto rep = validator.check_replay(stream, res.spans);
  EXPECT_FALSE(rep.ok());
  EXPECT_NE(rep.to_string().find("was still reading"), std::string::npos)
      << rep.to_string();
}

// ---- measured spans and the totals summed from them -------------------

/// A swap-all replay with two compute workers and two workers per copy
/// lane, so every lane queues ops and several workers pop from each.
struct QueuedRun {
  AsyncEnv env{models::small_cnn(2, 16), 8192};
  exec::OpStream stream = planner::record_op_stream(
      *env.rt, Classification(env.g, ValueClass::kSwap));
  obs::StatsRegistry stats;
  exec::AsyncResult res;

  QueuedRun() {
    DataBackend backend(env.g, kDataSeed);
    const exec::AsyncExecutor executor(env.g, stream);
    exec::AsyncOptions ao;
    ao.compute_workers = 2;
    ao.workers_per_copy_lane = 2;
    ao.stats = &stats;
    res = executor.run(backend, ao);
  }
};

TEST(AsyncExecSpans, ReadyTimeFollowsEveryDependencyEnd) {
  // An op enters its ready queue when its last dependency retires, and
  // a dependency retires after its span ends: the ready time (start -
  // wait) lies between the latest dependency end and the op's start.
  const QueuedRun run;
  ASSERT_TRUE(run.res.ok) << run.res.failure;
  const exec::Schedule sched =
      exec::build_schedule(run.env.g, run.env.tape, run.stream);
  int with_deps = 0;
  for (std::size_t i = 0; i < run.stream.ops.size(); ++i) {
    const exec::OpSpan& s = run.res.spans[i];
    EXPECT_GE(s.wait, 0.0) << "op " << i;
    const double ready = s.start - s.wait;
    EXPECT_GE(ready, -1e-12) << "op " << i;
    for (std::int32_t d : sched.deps[i]) {
      EXPECT_GE(ready, run.res.spans[static_cast<std::size_t>(d)].end - 1e-12)
          << "op " << i << " dep " << d;
    }
    with_deps += !sched.deps[i].empty();
  }
  EXPECT_GT(with_deps, 0);
}

TEST(AsyncExecSpans, SourcesAreReadyFirstAndTogether) {
  // Ops without dependencies are all queued at once, before any op runs,
  // so they share one ready time and no op is ready earlier.
  const QueuedRun run;
  ASSERT_TRUE(run.res.ok) << run.res.failure;
  const exec::Schedule sched =
      exec::build_schedule(run.env.g, run.env.tape, run.stream);
  std::vector<double> source_ready;
  double earliest_start = run.res.wall_seconds;
  double earliest_dependent_ready = run.res.wall_seconds;
  for (std::size_t i = 0; i < run.stream.ops.size(); ++i) {
    const exec::OpSpan& s = run.res.spans[i];
    earliest_start = std::min(earliest_start, s.start);
    if (sched.deps[i].empty()) {
      source_ready.push_back(s.start - s.wait);
    } else {
      earliest_dependent_ready =
          std::min(earliest_dependent_ready, s.start - s.wait);
    }
  }
  ASSERT_FALSE(source_ready.empty());
  for (const double r : source_ready) {
    EXPECT_NEAR(r, source_ready.front(), 1e-12);
    EXPECT_LE(r, earliest_start + 1e-12);
    EXPECT_LE(r, earliest_dependent_ready + 1e-12);
  }
}

TEST(AsyncExecResult, LaneTotalsAreSumsOverSpans) {
  // Busy and wait per lane are sums over the lane's spans, and the
  // exec.last.* gauges publish exactly those sums.
  const QueuedRun run;
  ASSERT_TRUE(run.res.ok) << run.res.failure;
  double busy[exec::kNumLanes] = {};
  double wait[exec::kNumLanes] = {};
  for (const exec::OpSpan& s : run.res.spans) {
    ASSERT_GE(s.lane, 0);
    ASSERT_LT(s.lane, exec::kNumLanes);
    busy[s.lane] += s.end - s.start;
    wait[s.lane] += s.wait;
  }
  const char* names[exec::kNumLanes] = {"compute", "d2h", "h2d"};
  for (int lane = 0; lane < exec::kNumLanes; ++lane) {
    const std::string prefix = std::string("exec.last.") + names[lane];
    EXPECT_NEAR(run.res.lane_busy[lane], busy[lane], 1e-9) << names[lane];
    EXPECT_NEAR(run.res.lane_wait[lane], wait[lane], 1e-9) << names[lane];
    EXPECT_DOUBLE_EQ(run.stats.gauge_value(prefix + "_busy_seconds"),
                     run.res.lane_busy[lane]);
    EXPECT_DOUBLE_EQ(run.stats.gauge_value(prefix + "_wait_seconds"),
                     run.res.lane_wait[lane]);
  }
  // A swap-all stream swaps every feature map out and back in.
  EXPECT_GT(busy[exec::kD2HLane], 0.0);
  EXPECT_GT(busy[exec::kH2DLane], 0.0);
}

TEST(AsyncExecResult, WorkerBusyAndIdleFitInTheWall) {
  // A compute worker is either running an op or idle on an empty ready
  // queue, never both, so the two add up to no more than the run's wall
  // time; and the workers' busy times add up to the compute lane's.
  const QueuedRun run;
  ASSERT_TRUE(run.res.ok) << run.res.failure;
  ASSERT_EQ(run.res.compute_worker_busy.size(), 2u);
  ASSERT_EQ(run.res.compute_worker_idle.size(), 2u);
  double busy_total = 0.0;
  for (std::size_t w = 0; w < 2; ++w) {
    EXPECT_GE(run.res.compute_worker_idle[w], 0.0) << "worker " << w;
    EXPECT_LE(run.res.compute_worker_busy[w] + run.res.compute_worker_idle[w],
              run.res.wall_seconds + 1e-9)
        << "worker " << w;
    busy_total += run.res.compute_worker_busy[w];
  }
  EXPECT_NEAR(busy_total, run.res.lane_busy[exec::kComputeLane], 1e-9);
}

TEST(AsyncExecTrace, ReadyWaitArgIsTheSpanWait) {
  // Each executed slice carries its ready-queue wait in microseconds,
  // under ready_wait_us, whenever the op waited at all.
  const QueuedRun run;
  ASSERT_TRUE(run.res.ok) << run.res.failure;
  const obs::json::Value trace =
      obs::async_chrome_trace(run.env.g, run.stream, run.res.spans);
  int slices = 0;
  int waited = 0;
  for (const obs::json::Value& e : trace.find("traceEvents")->as_array()) {
    const obs::json::Value* args = e.find("args");
    const obs::json::Value* index = args ? args->find("op_index") : nullptr;
    if (!index) continue;
    ++slices;
    const exec::OpSpan& span =
        run.res.spans[static_cast<std::size_t>(index->as_int())];
    EXPECT_EQ(args->find("dep_wait_us"), nullptr);
    const obs::json::Value* wait = args->find("ready_wait_us");
    ASSERT_EQ(wait != nullptr, span.wait > 0.0) << "op " << index->as_int();
    if (!wait) continue;
    EXPECT_NEAR(wait->as_double(), span.wait * 1e6, 1e-6);
    ++waited;
  }
  EXPECT_GT(slices, 0);
  EXPECT_GT(waited, 0);
}

// ---- the multi-worker differential corpus ----------------------------

TEST(AsyncSchedDifferential, ComputeWorkerCorpusBitIdenticalAllPolicies) {
  int planner_covered = 0;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    AsyncEnv roomy(testing::random_graph(seed), 8192);
    const auto ref = serial_reference(roomy.g, roomy.tape);
    const auto keep = roomy.rt->run(Classification(roomy.g, ValueClass::kKeep));
    ASSERT_TRUE(keep.ok);

    std::unique_ptr<AsyncEnv> tight;
    for (const std::size_t pct : {70, 80, 90, 100}) {
      auto candidate = std::make_unique<AsyncEnv>(
          testing::random_graph(seed),
          std::max<std::size_t>(1, keep.peak_bytes * pct / 100 / kMiB + 1),
          1.0);
      if (candidate->rt
              ->run(Classification(candidate->g, ValueClass::kSwap))
              .ok) {
        tight = std::move(candidate);
        break;
      }
    }
    ASSERT_TRUE(tight) << "seed " << seed
                       << ": swap-all infeasible even at full keep peak";
    planner::PoochPlanner planner(tight->g, tight->tape, tight->machine,
                                  *tight->tm);
    const auto plan = planner.plan();

    for (const int compute : {1, 2, 4, 8}) {
      for (const int copy : {1, 2}) {
        const std::string tag = "seed " + std::to_string(seed) + " compute " +
                                std::to_string(compute) + " copy " +
                                std::to_string(copy);
        const auto keep_async =
            async_replay(*roomy.rt,
                         Classification(roomy.g, ValueClass::kKeep), copy,
                         compute);
        expect_bit_identical(*ref, *keep_async, tag + " keep-all");
        const auto swap_async =
            async_replay(*tight->rt,
                         Classification(tight->g, ValueClass::kSwap), copy,
                         compute);
        expect_bit_identical(*ref, *swap_async, tag + " swap-all");
        if (plan.feasible) {
          const auto hybrid_async =
              async_replay(*tight->rt, plan.classes, copy, compute);
          expect_bit_identical(*ref, *hybrid_async,
                               tag + " planner-hybrid");
        }
      }
    }
    if (plan.feasible) ++planner_covered;
  }
  EXPECT_GT(planner_covered, 0) << "planner hybrid never feasible on corpus";
}

TEST(AsyncSchedStats, PublishesSchedulerMetricsAndWorkerSpans) {
  AsyncEnv env(models::small_cnn(2, 16), 8192);
  const exec::OpStream stream = planner::record_op_stream(
      *env.rt, Classification(env.g, ValueClass::kSwap));
  DataBackend backend(env.g, kDataSeed);
  obs::StatsRegistry stats;
  const exec::AsyncExecutor executor(env.g, stream);
  exec::AsyncOptions ao;
  ao.compute_workers = 2;
  ao.stats = &stats;
  const auto res = executor.run(backend, ao);
  ASSERT_TRUE(res.ok) << res.failure;

  EXPECT_EQ(stats.gauge("exec.sched.compute_workers").value(), 2.0);
  EXPECT_GT(stats.gauge("exec.sched.critical_path_seconds").value(), 0.0);
  EXPECT_GE(stats.gauge("exec.sched.ready_peak").value(), 1.0);
  ASSERT_EQ(res.compute_worker_busy.size(), 2u);
  EXPECT_GT(res.critical_path_seconds, 0.0);
  EXPECT_GE(res.ready_peak, 1);
  // Every compute span names a worker in range; together they cover all
  // compute ops.
  std::size_t compute_spans = 0;
  std::vector<double> span_busy(2, 0.0);
  for (std::size_t i = 0; i < stream.ops.size(); ++i) {
    if (res.spans[i].lane != exec::kComputeLane) continue;
    ++compute_spans;
    ASSERT_GE(res.spans[i].worker, 0);
    ASSERT_LT(res.spans[i].worker, 2);
    span_busy[static_cast<std::size_t>(res.spans[i].worker)] +=
        res.spans[i].end - res.spans[i].start;
  }
  EXPECT_GT(compute_spans, 0u);
  // Which worker pops which op is up to the OS scheduler — on a loaded
  // machine one worker can run every compute op — so each worker's
  // published busy time must equal its spans, and only the total must be
  // nonzero.
  const obs::json::Value snapshot = stats.to_json();
  const obs::json::Value* gauges = snapshot.find("gauges");
  ASSERT_NE(gauges, nullptr);
  double busy_ns_total = 0.0;
  for (std::size_t w = 0; w < 2; ++w) {
    const std::string name =
        "exec.sched.worker" + std::to_string(w) + ".busy_ns";
    EXPECT_NE(gauges->find(name), nullptr) << name << " not published";
    EXPECT_DOUBLE_EQ(stats.gauge_value(name),
                     res.compute_worker_busy[w] * 1e9)
        << name;
    EXPECT_NEAR(res.compute_worker_busy[w], span_busy[w], 1e-9) << name;
    busy_ns_total += stats.gauge_value(name);
  }
  EXPECT_GT(busy_ns_total, 0.0);
}

}  // namespace
}  // namespace pooch::sim
