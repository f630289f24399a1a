// Hazard analysis and critical-path priorities for multi-worker replay.
//
// An exported OpStream is a plain op list without dependency edges.
// build_schedule derives the complete happens-before partial order from
// per-op read/write footprints over four resource spaces:
//
//   VALUE(v)  device feature map v          (values_ slot)
//   GRAD(v)   feature-map gradient of v     (grads_ slot)
//   PARAM(n)  node n's params + param-grads (one unit: backward writes
//             the grads while reading the params, update writes both)
//   HOST(v)   host swap copy of v           (host_ slot)
//
// plus a fifth, the device slab's byte ranges: an op that places a
// buffer (StreamOp::places) depends on the last writer — the free or
// swap-out that vacated it — and every reader of each earlier VALUE or
// GRAD occupant whose range it overlaps. That turns the simulator's
// memory waits into real ones: a buffer is never overwritten while an
// op may still read its previous occupant, at any worker count.
//
// The classic hazard rules over the slots:
//   - a reader depends on the last writer of each resource it reads
//     (RAW); concurrent readers do not serialize against each other;
//   - a writer depends on the last writer (WAW) *and on every reader
//     since that writer* (WAR) of each resource it writes.
// Writer-writer chains follow stream index order, so order-sensitive
// gradient accumulation replays in serial program order and the result
// stays bit-identical to the serial run at any worker count (kernels are
// bit-exact at any thread count; disjoint-slot ops commute exactly).
// The same rules order the lanes against each other: a swap-in reads
// HOST(v), so it waits for the swap-out that wrote it, and a swap-out
// writes VALUE(v), so it waits for every forward still reading v.
//
// Dep indices are strictly smaller than the op that carries them, so
// the stream's index order is a topological order and dependency-counted
// dispatch cannot deadlock.
#pragma once

#include <cstdint>
#include <vector>

#include "exec/op_stream.hpp"
#include "graph/autodiff.hpp"
#include "graph/graph.hpp"

namespace pooch::exec {

/// The dependency-counted schedule of one op stream: full hazard edges,
/// successor lists, and critical-path priorities.
struct Schedule {
  /// Per op: indices that must complete first (sorted, deduplicated,
  /// strictly smaller than the op's own index).
  std::vector<std::vector<std::int32_t>> deps;
  /// Transpose of `deps`.
  std::vector<std::vector<std::int32_t>> succs;
  /// Critical-path-to-sink: the op's own cost — its simulated span
  /// (`sim_end - sim_start`), the recording time model's time for it —
  /// plus the longest downstream chain. Scheduling the largest priority
  /// first is the classic critical-path list-scheduling heuristic; an
  /// op's slack is critical_path_seconds - priority[i] - (longest chain
  /// into i).
  std::vector<double> priority;
  /// Length of the longest dependency chain — the wall-clock lower bound
  /// no worker count can beat.
  double critical_path_seconds = 0.0;

  std::size_t size() const { return deps.size(); }
};

/// Build the hazard-complete schedule for `stream`. `tape` must be the
/// backward tape of `graph` (backward footprints read its `needed` sets).
/// Each op costs its simulated span, so the priorities are the recording
/// time model's.
Schedule build_schedule(const graph::Graph& graph,
                        const std::vector<graph::BwdStep>& tape,
                        const OpStream& stream);

}  // namespace pooch::exec
