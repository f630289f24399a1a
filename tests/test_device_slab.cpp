// Device memory is the plan's: replay puts every feature map, swap-in
// buffer and gradient at the offset the simulated arena chose, in one
// device slab, and every swapped value in a fixed host slot. These tests
// check the placements a recorded stream carries, the structural check
// over them, the range hazards that order buffer reuse, the slab sizes
// replay reports — and, by shifting one placement onto a live buffer,
// that the slab is real: the numbers then break.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cost/cost_model.hpp"
#include "exec/async_executor.hpp"
#include "exec/op_stream.hpp"
#include "exec/schedule.hpp"
#include "graph/autodiff.hpp"
#include "models/models.hpp"
#include "obs/stats.hpp"
#include "obs/trace.hpp"
#include "sim/data_backend.hpp"
#include "sim/runtime.hpp"
#include "tensor/tensor_ops.hpp"
#include "testing_util.hpp"

namespace pooch::sim {
namespace {

using exec::OpType;
using exec::Placement;

struct SlabEnv {
  graph::Graph g;
  std::vector<graph::BwdStep> tape;
  cost::MachineConfig machine;
  std::unique_ptr<CostTimeModel> tm;
  std::unique_ptr<Runtime> rt;

  SlabEnv(graph::Graph graph, std::size_t cap_mib)
      : g(std::move(graph)),
        tape(graph::build_backward_tape(g)),
        machine(cost::test_machine(cap_mib)) {
    machine.link_gbps = 3.0;
    tm = std::make_unique<CostTimeModel>(g, machine);
    rt = std::make_unique<Runtime>(g, tape, machine, *tm);
  }

  RunResult record(ValueClass fill) const {
    RunOptions ro;
    ro.record_stream = true;
    RunResult r = rt->run(Classification(g, fill), ro);
    EXPECT_TRUE(r.ok) << r.failure;
    return r;
  }
};

bool overlap(const Placement& a, const Placement& b) {
  return a.offset < b.offset + b.bytes && b.offset < a.offset + a.bytes;
}

/// The feature-map placements live just before stream.ops[index] runs.
std::vector<Placement> live_values_before(const exec::OpStream& stream,
                                          std::size_t index) {
  std::vector<Placement> live;
  auto drop = [&](graph::ValueId v) {
    std::erase_if(live, [v](const Placement& p) { return p.value == v; });
  };
  for (std::size_t i = 0; i < index; ++i) {
    const exec::StreamOp& op = stream.ops[i];
    for (const Placement& p : op.places) {
      if (p.grad) continue;
      drop(p.value);
      live.push_back(p);
    }
    if (op.type == OpType::kSwapOut || op.type == OpType::kFreeValue) {
      drop(op.value);
    }
  }
  return live;
}

std::unique_ptr<DataBackend> replay(const graph::Graph& g,
                                    const exec::OpStream& stream,
                                    int compute_workers) {
  auto backend = std::make_unique<DataBackend>(g, testing::kDataSeed);
  const exec::AsyncExecutor executor(g, stream);
  exec::AsyncOptions ao;
  ao.compute_workers = compute_workers;
  const exec::AsyncResult res = executor.run(*backend, ao);
  EXPECT_TRUE(res.ok) << res.failure;
  return backend;
}

TEST(AsyncExecSlab, EveryWrittenBufferIsPlacedInsideTheArena) {
  for (const auto& model :
       {models::small_cnn(2, 16), models::inception_toy(2, 16)}) {
    SlabEnv env(model, 8192);
    for (const ValueClass fill : {ValueClass::kKeep, ValueClass::kSwap}) {
      const RunResult r = env.record(fill);
      const exec::OpStream& s = r.stream;
      EXPECT_EQ(s.arena_capacity, r.arena_capacity);
      const auto errors = s.validate(env.g, env.tape);
      EXPECT_TRUE(errors.empty()) << errors.front();
      // Per value: the offset its gradient was last placed at.
      std::vector<std::size_t> grad_offset(
          static_cast<std::size_t>(env.g.num_values()));
      int in_place = 0;
      for (const exec::StreamOp& op : s.ops) {
        const bool allocates = op.type == OpType::kForward ||
                               op.type == OpType::kRecompute ||
                               op.type == OpType::kSwapIn;
        if (allocates) {
          ASSERT_EQ(op.places.size(), 1u);
          EXPECT_EQ(op.places[0].value, op.value);
          EXPECT_FALSE(op.places[0].grad);
          EXPECT_EQ(op.places[0].bytes, env.g.value(op.value).byte_size());
        }
        if (op.type != OpType::kBackward) continue;
        const graph::Node& n = env.g.node(op.node);
        for (const Placement& p : op.places) {
          EXPECT_TRUE(p.grad);
          grad_offset[static_cast<std::size_t>(p.value)] = p.offset;
          if (p.value == n.inputs[0] &&
              p.offset == grad_offset[static_cast<std::size_t>(n.output)]) {
            ++in_place;
          }
        }
      }
      // A ReLU writes its input gradient over its output gradient.
      EXPECT_GT(in_place, 0);
    }
  }
}

TEST(AsyncExecSlab, ValidateRejectsMisplacedBuffers) {
  SlabEnv env(models::small_cnn(2, 16), 8192);
  const exec::OpStream good = env.record(ValueClass::kKeep).stream;
  ASSERT_TRUE(good.validate(env.g, env.tape).empty());

  // The last forward op: every kept value is still live there.
  std::size_t last_fwd = 0;
  for (std::size_t i = 0; i < good.ops.size(); ++i) {
    if (good.ops[i].type == OpType::kForward) last_fwd = i;
  }
  const std::vector<Placement> live = live_values_before(good, last_fwd);
  ASSERT_FALSE(live.empty());

  exec::OpStream overlapping = good;
  overlapping.ops[last_fwd].places[0].offset = live.front().offset;
  const auto errors = overlapping.validate(env.g, env.tape);
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors.front().find("overlaps the live value of v" +
                                std::to_string(live.front().value)),
            std::string::npos)
      << errors.front();

  exec::OpStream outside = good;
  outside.ops[last_fwd].places[0].offset = good.arena_capacity;
  const auto outside_errors = outside.validate(env.g, env.tape);
  ASSERT_FALSE(outside_errors.empty());
  EXPECT_NE(outside_errors.front().find("ends past the arena capacity"),
            std::string::npos)
      << outside_errors.front();

  exec::OpStream unplaced = good;
  unplaced.ops[last_fwd].places.clear();
  const auto unplaced_errors = unplaced.validate(env.g, env.tape);
  ASSERT_EQ(unplaced_errors.size(), 1u);
  EXPECT_NE(unplaced_errors.front().find("written without a placement"),
            std::string::npos)
      << unplaced_errors.front();
}

TEST(AsyncExecSlab, ShiftedPlacementBreaksBitIdentity) {
  SlabEnv env(models::small_cnn(2, 16), 8192);
  exec::OpStream stream = env.record(ValueClass::kKeep).stream;
  // Move one forward output onto a live value that no later forward op
  // reads but a backward step still does. The range hazards order the
  // write after every earlier read and, through the data flow to the
  // loss, before every later one: the replay is deterministic, and
  // wrong.
  std::size_t victim_op = 0;
  Placement victim;
  for (std::size_t i = 0; i < stream.ops.size() && victim.value < 0; ++i) {
    const exec::StreamOp& op = stream.ops[i];
    if (op.type != OpType::kForward) continue;
    for (const Placement& u : live_values_before(stream, i)) {
      const auto& consumers = env.g.value(u.value).consumers;
      const bool read_later_in_forward =
          std::any_of(consumers.begin(), consumers.end(),
                      [&](graph::NodeId n) { return n >= op.node; });
      if (!read_later_in_forward && u.bytes >= op.places[0].bytes) {
        victim_op = i;
        victim = u;
        break;
      }
    }
  }
  ASSERT_GE(victim.value, 0) << "no live value to overwrite";
  stream.ops[victim_op].places[0].offset = victim.offset;
  ASSERT_FALSE(stream.validate(env.g, env.tape).empty());

  const auto reference = testing::serial_reference(env.g, env.tape);
  for (const int workers : {1, 2}) {
    const auto corrupted = replay(env.g, stream, workers);
    EXPECT_NE(corrupted->first_difference(*reference), "")
        << "overwriting v" << victim.value << " changed nothing at "
        << workers << " compute workers";
  }
}

// A value nothing consumes still gets a gradient — zero — and its
// producer's backward adds that into the rest. The slab is never
// zero-filled, so the zero must be written: a training run with a
// dead-end branch must match the same net without it, iteration after
// iteration, once the slab holds the previous iteration's data.
TEST(AsyncExecSlab, DeadEndGradientsAreZero) {
  using graph::LayerKind;
  auto net = [](bool dead_branch) {
    graph::Graph g;
    auto x = g.add_input(Shape{4, 3, 8, 8}, "input");
    x = g.add(LayerKind::kConv, ConvAttrs::conv2d(8, 3, 1, 1), {x}, "conv");
    x = g.add(LayerKind::kReLU, std::monostate{}, {x}, "relu");
    if (dead_branch) {
      g.add(LayerKind::kMaxPool, PoolAttrs::pool2d(PoolMode::kMax, 2, 2),
            {x}, "dead");
    }
    x = g.add(LayerKind::kGlobalAvgPool, std::monostate{}, {x}, "gap");
    FcAttrs head;
    head.out_features = 5;
    x = g.add(LayerKind::kFullyConnected, head, {x}, "head");
    g.add(LayerKind::kSoftmaxLoss, std::monostate{}, {x}, "loss");
    g.validate();
    return g;
  };
  SlabEnv plain(net(false), 8192);
  SlabEnv dead(net(true), 8192);
  const auto trained = [](const SlabEnv& env) {
    return testing::async_replay(*env.rt,
                                 Classification(env.g, ValueClass::kSwap), 1,
                                 1, {}, /*iterations=*/3);
  };
  const auto a = trained(plain);
  const auto b = trained(dead);
  for (const char* name : {"conv", "head"}) {
    const auto find = [&](const graph::Graph& g) {
      for (const auto& n : g.nodes()) {
        if (n.name == name) return n.id;
      }
      return graph::kNoNode;
    };
    const auto& pa = a->params(find(plain.g));
    const auto& pb = b->params(find(dead.g));
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t i = 0; i < pa.size(); ++i) {
      EXPECT_TRUE(bit_equal(pa[i], pb[i])) << "param " << i << " of " << name;
    }
  }
  EXPECT_EQ(a->loss(), b->loss());
}

TEST(AsyncExecSlab, SlabsSpanTheStreamWithinTheArena) {
  SlabEnv env(models::small_cnn(4, 16), 2);
  const RunResult r = env.record(ValueClass::kSwap);
  const exec::OpStream& stream = r.stream;
  std::size_t swap_out_bytes = 0;
  std::vector<Placement> all;
  for (const exec::StreamOp& op : stream.ops) {
    if (op.type == OpType::kSwapOut) swap_out_bytes += op.bytes;
    all.insert(all.end(), op.places.begin(), op.places.end());
  }
  ASSERT_GT(swap_out_bytes, 0u);

  const exec::AsyncExecutor executor(env.g, stream);
  DataBackend backend(env.g, testing::kDataSeed);
  obs::StatsRegistry stats;
  exec::AsyncOptions ao;
  ao.stats = &stats;
  const exec::AsyncResult res = executor.run(backend, ao);
  ASSERT_TRUE(res.ok) << res.failure;
  EXPECT_GT(res.device_slab_bytes, 0u);
  EXPECT_LE(res.device_slab_bytes, r.arena_capacity);
  EXPECT_EQ(res.host_slab_bytes, swap_out_bytes);
  EXPECT_EQ(stats.gauge("exec.last.device_slab_bytes").value(),
            static_cast<double>(res.device_slab_bytes));
  EXPECT_EQ(stats.gauge("exec.last.host_slab_bytes").value(),
            static_cast<double>(res.host_slab_bytes));

  // Squeezing the never-used arena out keeps every overlap — and every
  // disjointness — of the placements.
  const exec::SlabLayout& layout = executor.layout();
  for (const Placement& a : all) {
    Placement sa = a;
    sa.offset = layout.device_offset(a.offset);
    EXPECT_LE(sa.offset + sa.bytes, res.device_slab_bytes);
    for (const Placement& b : all) {
      Placement sb = b;
      sb.offset = layout.device_offset(b.offset);
      ASSERT_EQ(overlap(a, b), overlap(sa, sb))
          << "v" << a.value << " and v" << b.value;
    }
  }

  // And the schedule replays to the in-core numbers.
  const auto reference = testing::serial_reference(env.g, env.tape);
  EXPECT_EQ(backend.first_difference(*reference), "");
}

// The oracle for the device-range hazards, derived from what each op
// touches rather than from build_schedule: an op placing a buffer must
// come after every op that touched an earlier occupant of any byte of
// its range.
TEST(AsyncExecSlab, RangeHazardsOrderEveryReuse) {
  // A keep-all run on a roomy device and a swap-all run on a 2 MiB one.
  for (const auto& [fill, cap_mib] : {std::pair{ValueClass::kKeep, 8192},
                                      std::pair{ValueClass::kSwap, 2}}) {
    SlabEnv env(models::inception_toy(4, 16), cap_mib);
    const exec::OpStream stream = env.record(fill).stream;
    const exec::Schedule sched =
        exec::build_schedule(env.g, env.tape, stream);
    const std::size_t n = stream.ops.size();
    // ancestors[i]: every op that must complete before op i.
    std::vector<std::vector<bool>> ancestors(n, std::vector<bool>(n));
    for (std::size_t i = 0; i < n; ++i) {
      for (const std::int32_t d : sched.deps[i]) {
        const auto di = static_cast<std::size_t>(d);
        ancestors[i][di] = true;
        for (std::size_t k = 0; k < di; ++k) {
          if (ancestors[di][k]) ancestors[i][k] = true;
        }
      }
    }

    struct Occupancy {
      Placement place;
      std::vector<std::size_t> touchers;
    };
    std::vector<Occupancy> occupancies;
    // (value, grad) -> index of its current occupancy.
    std::vector<int> current(2 * static_cast<std::size_t>(env.g.num_values()),
                             -1);
    auto key = [&](graph::ValueId v, bool grad) {
      return static_cast<std::size_t>(v) * 2 + (grad ? 1 : 0);
    };
    auto touch = [&](graph::ValueId v, bool grad, std::size_t i) {
      const int o = current[key(v, grad)];
      if (o >= 0) occupancies[static_cast<std::size_t>(o)].touchers.push_back(i);
    };
    std::vector<const graph::BwdStep*> step_of(
        static_cast<std::size_t>(env.g.num_nodes()));
    for (const auto& s : env.tape) {
      step_of[static_cast<std::size_t>(s.node)] = &s;
    }

    int reuses = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const exec::StreamOp& op = stream.ops[i];
      for (const Placement& p : op.places) {
        for (const Occupancy& o : occupancies) {
          if (!overlap(p, o.place)) continue;
          ++reuses;
          for (const std::size_t t : o.touchers) {
            if (t == i) continue;
            ASSERT_TRUE(ancestors[i][t])
                << "op " << i << " places v" << p.value << " over v"
                << o.place.value << " touched by op " << t;
          }
        }
      }
      for (const Placement& p : op.places) {
        current[key(p.value, p.grad)] = static_cast<int>(occupancies.size());
        occupancies.push_back({p, {i}});
      }
      switch (op.type) {
        case OpType::kForward:
        case OpType::kRecompute:
          for (graph::ValueId v : env.g.node(op.node).inputs) {
            touch(v, false, i);
          }
          break;
        case OpType::kBackward: {
          const graph::BwdStep& s = *step_of[static_cast<std::size_t>(op.node)];
          for (graph::ValueId v : s.needed) touch(v, false, i);
          touch(env.g.node(op.node).output, true, i);
          for (graph::ValueId v : s.grad_outputs) touch(v, true, i);
          break;
        }
        case OpType::kSwapOut:
        case OpType::kFreeValue:
          touch(op.value, false, i);
          break;
        case OpType::kFreeGrad:
          touch(op.value, true, i);
          break;
        default:
          break;
      }
    }
    EXPECT_GT(reuses, 0) << "no buffer reuse to check";
  }
}

TEST(AsyncExecSlab, TracesCarryThePlacements) {
  SlabEnv env(models::small_cnn(2, 16), 8192);
  const exec::OpStream stream = env.record(ValueClass::kSwap).stream;
  const exec::AsyncExecutor executor(env.g, stream);
  DataBackend backend(env.g, testing::kDataSeed);
  const exec::AsyncResult res = executor.run(backend);
  ASSERT_TRUE(res.ok) << res.failure;
  const obs::json::Value trace =
      obs::async_chrome_trace(env.g, stream, res.spans);
  int placed = 0;
  for (const obs::json::Value& e : trace.find("traceEvents")->as_array()) {
    const obs::json::Value* args = e.find("args");
    const obs::json::Value* index = args ? args->find("op_index") : nullptr;
    if (!index) continue;
    const exec::StreamOp& op =
        stream.ops[static_cast<std::size_t>(index->as_int())];
    const obs::json::Value* places = args->find("placements");
    ASSERT_EQ(places != nullptr, !op.places.empty());
    if (!places) continue;
    ASSERT_EQ(places->as_array().size(), op.places.size());
    const obs::json::Value& first = places->as_array().front();
    EXPECT_EQ(first.find("offset")->as_int(),
              static_cast<std::int64_t>(op.places[0].offset));
    ++placed;
  }
  EXPECT_GT(placed, 0);
}

}  // namespace
}  // namespace pooch::sim
