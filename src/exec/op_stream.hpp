// The op stream: the one record of a scheduled iteration. sim::Runtime
// writes it when a run records (sim::RunOptions::record_stream), the
// simulator's readers (obs::TimelineValidator, obs::chrome_trace,
// OpStream::render, the profiler) read its simulated spans and stall
// attribution, and exec::AsyncExecutor replays it with real threads.
//
// A recorded run appends one StreamOp for every piece of real work its
// schedule implies: forward/backward/recompute/update on the compute
// lane, swap-outs on the D2H lane, swap-ins on the H2D lane, and the
// bookkeeping ops (begin-iteration, the frees that retire feature maps
// and gradients), which take no time. Ops are appended in the
// simulator's program order, so per lane the stream's index order is the
// simulated start-time order (the runtime's stream cursors are
// monotone), and replaying the whole stream in index order on one thread
// is serial program order.
//
// Each timed compute op also carries the stall it inflicted on the
// compute lane, what caused it and the value blamed — the classifier's
// raw material: the unhidden swap sets L_O / L_I of §4.4.2 fall out of
// the stall causes, and the paper-style Gantt renderings (Figures
// 7/10/11) come from the spans.
//
// The stream carries no dependency edges. exec::build_schedule derives
// every happens-before edge from the ops' read/write footprints; since
// each edge points from a lower to a higher index, the index order is a
// topological order of that DAG and replay cannot deadlock.
//
// A prefetch the rescue chain cancels (the transfer never ran) is erased
// from the stream again — a recorded stream never contains a dangling
// H2D op without a consumer.
//
// Every op that allocates device memory carries the placement the
// simulated arena chose for it: the graph inputs at begin-iteration, a
// forward or recompute output, a swap-in buffer, and the gradients a
// backward step writes first (an in-place gradient alias shares its
// owner's offset). Replay puts each tensor at exactly that offset of one
// device slab, so the plan's memory layout is the real one.
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
  kSwapOut,         // copy `value` device->host, then free the device copy
  kSwapIn,          // deep-copy `value` host->device
  kFreeValue,       // drop the device copy of `value`
  kFreeGrad,        // drop the gradient slot of `value`
};

/// Execution lanes: the simulator's three hardware queues and the
/// executor's worker pools.
enum Lane : int { kComputeLane = 0, kD2HLane = 1, kH2DLane = 2 };
inline constexpr int kNumLanes = 3;

/// Why a compute op started later than its lane was free.
enum class StallCause : std::uint8_t {
  kNone,
  kSwapInWait,   // compute waited for an H2D completion -> L_I evidence
  kMemoryWait,   // allocation waited for a D2H completion -> L_O evidence
  kDependency,   // waited for another compute op (recompute chains)
};

Lane lane_of(OpType type);
const char* op_type_name(OpType type);
const char* lane_name(Lane lane);
const char* stall_cause_name(StallCause cause);
/// Begin-iteration and the frees: replayed, but they take no time and
/// are not spans of the schedule.
bool is_bookkeeping(OpType type);

/// A buffer an op allocates, where the simulated device arena put it.
struct Placement {
  graph::ValueId value = -1;
  bool grad = false;       // the gradient of `value`, else its feature map
  std::size_t offset = 0;  // byte offset in the arena
  std::size_t bytes = 0;   // the tensor's bytes
};

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
  /// Idle time this op inflicted on the compute lane before sim_start,
  /// its cause and the value blamed for it (-1 = none).
  double stall = 0.0;
  StallCause stall_cause = StallCause::kNone;
  graph::ValueId stall_value = -1;
  /// The buffers this op allocates (see the header comment).
  std::vector<Placement> places = {};
};

struct OpStream {
  std::vector<StreamOp> ops;
  /// Iteration index the schedule was recorded for (dropout key epoch).
  std::uint64_t iteration = 0;
  /// Capacity of the device arena the placements were carved from.
  std::size_t arena_capacity = 0;

  int count(OpType type) const;
  int lane_count(Lane lane) const;
  /// Ops that are not bookkeeping: the spans of the schedule.
  int timed_count() const;

  /// Structural self-check: replaying the stream in index order keeps
  /// every read residency-correct — each forward/backward/recompute
  /// input is device-resident when used, a swap-in targets a
  /// host-resident, device-absent slot (a dangling or duplicated H2D op
  /// is reported here), and frees drop live copies. Memory is checked
  /// too: every buffer an op writes is placed, every placement lies
  /// inside arena_capacity, and none overlaps a live placement — except
  /// an in-place gradient, which takes exactly the offset of the live
  /// gradient of its node's output.
  /// Returns human-readable violations; empty means the stream is sound.
  std::vector<std::string> validate(
      const graph::Graph& graph,
      const std::vector<graph::BwdStep>& tape) const;

  /// ASCII Gantt chart of the simulated spans: one row per lane,
  /// `width` columns, '#' marking compute stalls.
  std::string render(int width = 100) const;
};

}  // namespace pooch::exec
