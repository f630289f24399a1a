// Replayable op stream: the schedule the simulator scored, exported as a
// plain op list the AsyncExecutor runs with real threads.
//
// When `sim::RunOptions::export_stream` is set, the runtime appends one
// StreamOp for every piece of real work its schedule implies:
// forward/backward/recompute/update on the compute lane, swap-outs on the
// D2H lane, swap-ins on the H2D lane, and the frees that retire feature
// maps and gradients. Ops are appended in the simulator's program order,
// so per lane the stream's index order is the simulated start-time order
// (the runtime's stream cursors are monotone), and replaying the whole
// stream in index order on one thread is serial program order.
//
// The stream carries no dependency edges. exec::build_schedule derives
// every happens-before edge from the ops' read/write footprints; since
// each edge points from a lower to a higher index, the index order is a
// topological order of that DAG and replay cannot deadlock.
//
// A prefetch the rescue chain cancels (the transfer never ran) is erased
// from the stream again, mirroring how the timeline drops it — an
// exported stream never contains a dangling H2D op without a consumer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "graph/autodiff.hpp"
#include "graph/graph.hpp"

namespace pooch::exec {

enum class OpType : std::uint8_t {
  kBeginIteration,  // place graph inputs (writes all input slots)
  kForward,         // forward kernel of `node`
  kBackward,        // backward step of `node` (reads its tape `needed` set)
  kRecompute,       // re-run forward of `node` to rematerialize `value`
  kUpdate,          // SGD parameter update
  kSwapOut,         // move `value` device->host, then free the device copy
  kSwapIn,          // deep-copy `value` host->device
  kFreeValue,       // drop the device copy of `value`
  kFreeGrad,        // drop the gradient slot of `value`
};

/// Execution lanes, mirroring the simulator's three streams.
enum Lane : int { kComputeLane = 0, kD2HLane = 1, kH2DLane = 2 };
inline constexpr int kNumLanes = 3;

Lane lane_of(OpType type);
const char* op_type_name(OpType type);

struct StreamOp {
  OpType type{};
  graph::NodeId node = graph::kNoNode;
  graph::ValueId value = -1;
  /// Transfer size for swaps; freed host bytes for a releasing free.
  std::size_t bytes = 0;
  /// kFreeValue that also retires the host (swap-file) copy.
  bool releases_host = false;
  /// The simulator's scheduled span, for reporting / trace comparison.
  double sim_start = 0.0;
  double sim_end = 0.0;
};

struct OpStream {
  std::vector<StreamOp> ops;
  /// Iteration index the schedule was exported for (dropout key epoch).
  std::uint64_t iteration = 0;

  int count(OpType type) const;
  int lane_count(Lane lane) const;

  /// Structural self-check: replaying the stream in index order keeps
  /// every read residency-correct — each forward/backward/recompute
  /// input is device-resident when used, a swap-in targets a
  /// host-resident, device-absent slot (a dangling or duplicated H2D op
  /// is reported here), and frees drop live copies.
  /// Returns human-readable violations; empty means the stream is sound.
  std::vector<std::string> validate(
      const graph::Graph& graph,
      const std::vector<graph::BwdStep>& tape) const;

  std::string to_string(const graph::Graph& graph) const;
};

}  // namespace pooch::exec
