// AsyncExecutor: real wall-clock overlapped execution of a recorded
// op stream against a sim::DataBackend.
//
// Threading model (a dependency-counted multi-worker scheduler):
//   - `compute_workers` threads (the calling thread plus N-1 helpers)
//     serve the compute lane. With N > 1 every lane pops ready ops by
//     critical-path priority (largest remaining downstream chain
//     first), each op costing its span in the stream — the times of
//     the model that recorded it, so a stream recorded under the
//     calibrated model dispatches by measured cost; one compute worker
//     pops in stream-index (FIFO) order;
//   - `workers_per_copy_lane` dedicated threads each serve the D2H and
//     H2D lanes.
// An op becomes ready when its per-op dependency counter reaches zero.
// The stream itself carries no edges: exec::build_schedule derives the
// full RAW/WAR/WAW hazard partial order over value/grad/param/host slots
// from the ops' footprints, so ops touching disjoint slots run
// concurrently while order-sensitive chains (e.g. gradient accumulation)
// replay in serial program order. The dispatcher's one mutex is the only
// synchronization between workers: an op retires under it, pushing the
// successors it unblocks into their ready queues, and a worker pops
// under it. So every op starts after its dependencies' writes, and its
// seq_start (taken after the pop) exceeds their seq_end (taken before
// the retire): the completion-sequence numbers the ordering oracle
// (obs::TimelineValidator::check_replay) audits.
//
// Why this cannot deadlock: the hazard edges keep every dep index
// strictly below the op that carries it, so the dependency graph is
// acyclic; an op is dispatched only after all its deps completed, and
// whenever unexecuted ops remain the lowest-indexed one has every dep
// already completed — it is in some lane's ready queue, so some worker
// is always runnable, at any worker count.
//
// Memory: the backend keeps every feature map and gradient in one
// device slab, at the offset the simulated arena placed it
// (StreamOp::places), and every swapped value in a fixed host slot, so
// no iteration allocates, zero-fills or frees a tensor. SlabLayout maps
// the stream's arena offsets into the slab: the arena ranges no
// placement ever touches are squeezed out, which keeps every overlap
// (and so every range hazard) exactly the arena's while the slab spans
// only what the stream uses. Host slots are packed in swap-out order.
//
// This executor is the only code that runs real kernels: sim::Runtime
// only simulates and records the op list. One compute worker replays
// the stream in serial program order, which is why the keep-all stream
// on one worker is the in-core reference (planner::run_incore_reference).
//
// Why the result is bit-identical to the serial in-core run: every
// kernel is bit-exact at any thread count, ops whose footprints are
// disjoint commute exactly, and the hazard edges serialize every
// order-sensitive pair (gradient accumulation chains, destructive
// moves) in recorded — i.e. serial program — order. Each compute worker
// runs its kernels through a private kernels::KernelContext, so scratch
// arenas are never shared across concurrent kernels.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exec/op_stream.hpp"
#include "exec/schedule.hpp"
#include "graph/autodiff.hpp"
#include "graph/graph.hpp"

namespace pooch::mem {
class HostPool;
}
namespace pooch::obs {
class StatsRegistry;
}
namespace pooch::sim {
class DataBackend;
}

namespace pooch::exec {

/// Where replay puts a stream's buffers: every placement's device-slab
/// offset (its arena offset less the never-used arena bytes below it)
/// and every swap-out's host-slab slot.
class SlabLayout {
 public:
  explicit SlabLayout(const OpStream& stream);

  /// Bytes the device slab spans: the union of the stream's placement
  /// ranges, each rounded up to kSlabAlignment. At most the arena's
  /// capacity.
  std::size_t device_bytes() const { return device_bytes_; }
  /// Bytes of the host slab: the stream's swap-out bytes.
  std::size_t host_bytes() const { return host_bytes_; }

  /// Slab offset of a placement at arena offset `arena_offset`.
  std::size_t device_offset(std::size_t arena_offset) const;
  /// Host-slab offset of the swap-out stream.ops[index].
  std::size_t host_offset(std::size_t index) const {
    return host_offset_[index];
  }

  /// Slab placements keep this alignment when the arena's offsets have
  /// it (mem::Arena aligns every block to 256 bytes).
  static constexpr std::size_t kSlabAlignment = 256;

 private:
  struct Region {
    std::size_t arena_begin = 0;
    std::size_t arena_end = 0;
    std::size_t slab_begin = 0;
  };
  std::vector<Region> regions_;  // disjoint, sorted by arena_begin
  std::vector<std::size_t> host_offset_;  // per op; 0 unless a swap-out
  std::size_t device_bytes_ = 0;
  std::size_t host_bytes_ = 0;
};

struct AsyncOptions {
  /// Threads serving the compute lane. 1 (default) keeps today's
  /// behavior: the calling thread replays compute ops in serial program
  /// order. N > 1 adds N-1 helper threads and dispatches by
  /// critical-path priority; results stay bit-identical.
  int compute_workers = 1;
  /// Threads serving each copy lane (1 = one H2D + one D2H worker).
  int workers_per_copy_lane = 1;
  /// Optional host memory accounting. A run reserves its whole host
  /// slab (SlabLayout::host_bytes) once, before any op runs, and
  /// releases it when the run ends; a pool that cannot hold the slab
  /// fails the run without touching the backend.
  mem::HostPool* host_pool = nullptr;
  /// Metrics sink (exec.* and exec.sched.* counters/gauges/histograms).
  obs::StatsRegistry* stats = nullptr;
};

/// Measured execution of one op: wall-clock span plus the global
/// completion-sequence numbers used by the ordering oracle
/// (obs::TimelineValidator::check_replay). Sequence numbers are exact
/// where wall times can tie at clock resolution: a dependency's seq_end
/// is always strictly below its consumer's seq_start.
struct OpSpan {
  double start = 0.0;  // seconds since run start
  double end = 0.0;
  // Time in the lane's ready queue: from the retire of the op's last
  // dependency (or the run's start) to a worker starting it.
  double wait = 0.0;
  std::uint64_t seq_start = 0;
  std::uint64_t seq_end = 0;
  int lane = 0;
  int worker = 0;  // lane-local worker index
};

struct AsyncResult {
  bool ok = false;
  std::string failure;

  double wall_seconds = 0.0;
  double lane_busy[kNumLanes] = {};
  double lane_wait[kNumLanes] = {};
  /// Swap-outs executed, and the most of them in flight at once (their
  /// [seq_start, seq_end] intervals overlapping). Each swap-out copies
  /// straight into its own host-slab slot; the names are historical.
  /// Both stay 0 when the run failed.
  std::uint64_t staging_acquisitions = 0;
  int staging_peak_held = 0;
  /// Bytes of the device and host slabs the stream's layout spans
  /// (SlabLayout).
  std::size_t device_slab_bytes = 0;
  std::size_t host_slab_bytes = 0;

  /// Scheduler diagnostics: per-compute-worker execution time (the sum
  /// of its spans) and idle time (waiting on an empty ready queue), the
  /// critical path over the stream's spans
  /// (Schedule::critical_path_seconds, the lower bound no worker count
  /// can beat), and the deepest the compute ready queue ever got
  /// (ready_peak ≤ 1 means the schedule exposes no compute parallelism
  /// to exploit).
  std::vector<double> compute_worker_busy;
  std::vector<double> compute_worker_idle;
  double critical_path_seconds = 0.0;
  int ready_peak = 0;

  /// Parallel to the stream's ops: the measured span of stream.ops[i]
  /// (obs::write_async_chrome_trace renders the pair).
  std::vector<OpSpan> spans;
};

class AsyncExecutor {
 public:
  /// `graph` and `stream` must outlive the executor. The backward tape
  /// is rebuilt internally for the hazard analysis.
  AsyncExecutor(const graph::Graph& graph, const OpStream& stream);

  /// Execute the stream against `data`. The backend must be freshly
  /// seeded, or carried over from the previous iteration's run.
  /// Reusable: each call replays the same stream.
  AsyncResult run(sim::DataBackend& data,
                  const AsyncOptions& options = {}) const;

  /// The hazard-complete dependency topology and the span-priced
  /// priorities replay dispatches on.
  const Schedule& schedule() const { return schedule_; }

  const SlabLayout& layout() const { return layout_; }

 private:
  const graph::Graph& graph_;
  const OpStream& stream_;
  std::vector<graph::BwdStep> tape_;
  Schedule schedule_;
  SlabLayout layout_;
};

}  // namespace pooch::exec
