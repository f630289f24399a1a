// Golden digests of the timeline simulator's output.
//
// The simulator is deterministic: a classification, a machine and a time
// model fix every span, stall and buffer placement of the run. These
// digests pin that output bit for bit on two workloads — the planner's
// chosen plans for the two planning problems of perfbench's `paper-plan`
// workload, and the recorded swap-all op streams of ResNet-50 b512 under
// every swap-in policy — so a refactor of the simulator that claims to
// change nothing is checked here rather than by hand. Doubles enter the
// digests by their bits. Update a constant only for an intended change of
// the model, with the reason in CHANGES.md.
//
// Runs the full planner on two large models, so it lives in the `slow`
// ctest tier.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>

#include "cost/machine.hpp"
#include "graph/autodiff.hpp"
#include "models/models.hpp"
#include "pooch/planner.hpp"
#include "sim/runtime.hpp"

namespace pooch {
namespace {

/// 64-bit FNV-1a over the bytes of the values fed to it.
class Fnv1a {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001b3ull;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

std::uint64_t digest(const std::string& s) {
  Fnv1a h;
  h.bytes(s.data(), s.size());
  return h.value();
}

std::uint64_t digest(const exec::OpStream& stream) {
  Fnv1a h;
  h.u64(stream.arena_capacity);
  h.u64(stream.ops.size());
  for (const exec::StreamOp& op : stream.ops) {
    h.i64(static_cast<std::int64_t>(op.type));
    h.i64(op.node);
    h.i64(op.value);
    h.u64(op.bytes);
    h.u64(op.releases_host ? 1 : 0);
    h.f64(op.sim_start);
    h.f64(op.sim_end);
    h.f64(op.stall);
    h.i64(static_cast<std::int64_t>(op.stall_cause));
    h.i64(op.stall_value);
    h.u64(op.places.size());
    for (const exec::Placement& p : op.places) {
      h.i64(p.value);
      h.u64(p.grad ? 1 : 0);
      h.u64(p.offset);
      h.u64(p.bytes);
    }
  }
  return h.value();
}

struct PlanGolden {
  const char* name;
  graph::Graph (*build)();
  std::uint64_t classes_digest;  // FNV-1a of classes.serialize()
  std::uint64_t time_bits;       // bits of predicted_time
  std::size_t peak;              // predicted_peak
};

TEST(SimGolden, PaperPlanProblems) {
  const PlanGolden cases[] = {
      {"resnext101_3d b1 128x384",
       [] { return models::resnext101_3d(1, 128, 384); },
       0x2718048ad21296abull, 0x3fedfcbf25523446ull, 16033577600},
      {"resnet50 b640", [] { return models::resnet50(640); },
       0xf1ec5120af8bc745ull, 0x40142ddb3c3d2677ull, 16003875136},
  };
  const cost::MachineConfig machine = cost::x86_pcie();
  for (const PlanGolden& c : cases) {
    const graph::Graph g = c.build();
    const auto tape = graph::build_backward_tape(g);
    const sim::CostTimeModel tm(g, machine);
    const planner::PoochPlanner planner(g, tape, machine, tm);
    const planner::PlannerResult r = planner.plan();
    ASSERT_TRUE(r.feasible) << c.name;
    EXPECT_EQ(digest(r.classes.serialize()), c.classes_digest) << c.name;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.predicted_time), c.time_bits)
        << c.name;
    EXPECT_EQ(r.predicted_peak, c.peak) << c.name;
  }
}

struct StreamGolden {
  sim::SwapInPolicy policy;
  std::uint64_t stream_digest;
  std::size_t peak_bytes;
  std::uint64_t memory_stall_bits;
  std::uint64_t swapin_stall_bits;
};

TEST(SimGolden, Resnet50Batch512SwapAllStreams) {
  const graph::Graph g = models::resnet50(512);
  const auto tape = graph::build_backward_tape(g);
  const cost::MachineConfig machine = cost::x86_pcie();
  const sim::CostTimeModel tm(g, machine);
  const sim::Runtime rt(g, tape, machine, tm);
  const sim::Classification all_swap(g, sim::ValueClass::kSwap);
  const StreamGolden cases[] = {
      {sim::SwapInPolicy::kOnDemand, 0x98c1914026fac54full, 16440607040,
       0x3fef542984c719d4ull, 0x400d3d8adda2468eull},
      {sim::SwapInPolicy::kLookahead1, 0xcdbda88ac2ede0f4ull, 16440607040,
       0x3fef542984c719d4ull, 0x400b23aaaef96698ull},
      {sim::SwapInPolicy::kLookaheadPrevConv, 0x87f1ec3235a0d4bcull,
       16440607040, 0x3fef542984c719d4ull, 0x40031f7a9aef338aull},
      {sim::SwapInPolicy::kEagerMemoryAware, 0x45c03cbe84133aeeull,
       16440607040, 0x3fef542984c719d4ull, 0x400222718c4c6d94ull},
  };
  for (const StreamGolden& c : cases) {
    sim::RunOptions ro;
    ro.swapin_policy = c.policy;
    ro.record_stream = true;
    const sim::RunResult r = rt.run(all_swap, ro);
    const int policy = static_cast<int>(c.policy);
    ASSERT_TRUE(r.ok) << "policy " << policy << ": " << r.failure;
    EXPECT_EQ(digest(r.stream), c.stream_digest) << "policy " << policy;
    EXPECT_EQ(r.peak_bytes, c.peak_bytes) << "policy " << policy;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.memory_stall),
              c.memory_stall_bits)
        << "policy " << policy;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.swapin_stall),
              c.swapin_stall_bits)
        << "policy " << policy;
  }
}

}  // namespace
}  // namespace pooch
