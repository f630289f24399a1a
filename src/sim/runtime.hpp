// The virtual GPU runtime: simulates one training iteration of a graph
// under a classification, on a machine, and reports what happened.
//
// It is the *timeline simulator* PoocH's classifier queries thousands of
// times (§4.1.2: "PoocH simulates an execution timeline and memory
// management processes"). It never touches tensors: a run can record the
// schedule it scored as an exec::OpStream — its one record of every op,
// span and stall — and exec::AsyncExecutor, the only code that executes
// real kernels, replays exactly that op list.
// The paper's premise that the simulation models the execution becomes
// "the executor runs the op list the simulator scored", audited by
// obs::TimelineValidator::check_replay.
//
// Modelled structure: one compute stream, one D2H stream, one H2D stream;
// a best-fit arena for device memory where allocations may have to wait
// for in-flight swap-outs to release their buffers; swap-in scheduling
// policies from naive one-step lookahead up to the paper's §4.3
// memory-aware eager prefetch; recompute chains re-executed on the
// compute stream. Out-of-memory is a reported outcome, not an exception.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cost/machine.hpp"
#include "graph/autodiff.hpp"
#include "graph/graph.hpp"
#include "sim/plan.hpp"
#include "exec/op_stream.hpp"
#include "sim/time_model.hpp"

namespace pooch::obs {
class StatsRegistry;
}

namespace pooch::sim {

struct RuntimeTables;
namespace detail {
class Exec;
}

enum class SwapInPolicy : std::uint8_t {
  /// Swap-in issued only when the needing backward step starts.
  kOnDemand,
  /// Issued one backward step ahead — the paper's "swap-all (w/o
  /// scheduling)" baseline ("starts simultaneously with the previous
  /// computation").
  kLookahead1,
  /// Issued at the backward step of the nearest preceding convolution —
  /// the SuperNeurons trigger rule.
  kLookaheadPrevConv,
  /// §4.3: issued as early as free device memory (minus the upcoming
  /// transient-byte headroom) allows.
  kEagerMemoryAware,
};

struct RunOptions {
  SwapInPolicy swapin_policy = SwapInPolicy::kEagerMemoryAware;
  /// SuperNeurons semantics: a trigger-time swap-in that cannot get
  /// memory is a hard failure instead of being deferred.
  bool oom_on_prefetch_failure = false;
  /// Record the schedule as RunResult::stream (off inside hot classifier
  /// loops, which only need the scores).
  bool record_stream = false;
  /// Mixed into dropout masks; bump per training iteration.
  std::uint64_t iteration = 0;
  /// Scales the free-memory headroom the eager prefetcher preserves.
  double headroom_factor = 1.0;
  /// Disable the two-ended (lifetime-aware) placement and allocate
  /// everything bottom-up, as cudaMalloc-pool-era systems did. Only
  /// bench_ablation_design's placement ablation sets it; the SuperNeurons
  /// baseline keeps the two-ended allocator.
  bool naive_placement = false;
  /// Restrict the device pool to this many usable bytes (0 = use the
  /// machine's full capacity). planner::execute_plan's first attempt
  /// clamps to the capacity the plan was validated against, so it
  /// reproduces the planning simulation's memory behaviour exactly.
  std::size_t usable_bytes_override = 0;
  /// Metrics sink. When set, the run publishes counters (transfers,
  /// recomputes, OOM-rescue events, eager-prefetch headroom blocks),
  /// per-stream busy/stall gauges, arena statistics and stall/transfer
  /// histograms. See README "Observability" for the metric names.
  obs::StatsRegistry* stats = nullptr;
};

struct RunResult {
  bool ok = false;
  bool oom = false;
  std::string failure;

  double iteration_time = 0.0;
  double forward_time = 0.0;

  std::size_t arena_capacity = 0;       // after the persistent reservation
  std::size_t persistent_bytes = 0;     // params + param grads
  std::size_t peak_arena_bytes = 0;     // dynamic peak inside the arena
  std::size_t peak_bytes = 0;           // persistent + dynamic peak
  std::size_t peak_host_bytes = 0;

  /// Busy seconds per lane: the summed durations of the ops it ran.
  double compute_busy = 0.0;
  double d2h_busy = 0.0;
  double h2d_busy = 0.0;

  double compute_stall = 0.0;
  double swapin_stall = 0.0;   // stalls blamed on H2D completions
  double memory_stall = 0.0;   // stalls blamed on D2H-gated allocations
  double recompute_seconds = 0.0;
  std::size_t swapped_bytes = 0;
  std::size_t recomputed_bytes = 0;

  /// Values whose swap-out was not hidden (caused a memory stall or was
  /// still in flight when forward finished) — the L_O candidates.
  std::vector<graph::ValueId> unhidden_swapouts;
  /// Values whose swap-in delayed a compute op — the L_I candidates.
  std::vector<graph::ValueId> unhidden_swapins;
  /// Per-value compute-stall seconds blamed on that value's transfers.
  std::vector<double> stall_by_value;

  /// The recorded schedule (RunOptions::record_stream): every op with
  /// its simulated span and stall attribution, replayable by
  /// exec::AsyncExecutor. Holds ops only when the run completed (ok).
  exec::OpStream stream;

  /// images/sec given a batch size.
  double throughput(std::int64_t batch) const {
    return iteration_time > 0.0 ? static_cast<double>(batch) / iteration_time
                                : 0.0;
  }
};

/// Forward states of one run, saved at chosen forward nodes, from which
/// later runs start instead of simulating the forward pass from op 0.
///
/// The state at the start of forward node k — before its output is
/// allocated — depends only on the lowered forward decisions
/// (BackwardPlan::swap_out and discard) of the graph inputs and of the
/// outputs of nodes 0..k-1: nothing else of the classification is read
/// before the backward phase. Lowered decisions, not classes, are what
/// must agree: setting a later value to `recompute` can make an earlier
/// value needed that was discarded. A run resumes from the latest
/// checkpoint whose prefix its own lowered decisions agree on, and from
/// there it is the same Exec code run to the end (the backward phase and
/// the update always run in full), so its RunResult equals the full
/// run's field for field.
///
/// A recording run that itself resumed inherits its source's checkpoints
/// up to the node it resumed at (shared, never copied), so a chain of
/// runs derived from one parent keeps the parent's early states. Once
/// recorded the object is read-only; concurrent runs may resume from it.
class ForwardCheckpoints {
 public:
  /// Checkpoints to take at these forward node indices (any order).
  explicit ForwardCheckpoints(std::vector<graph::NodeId> at);

  /// Whether a run has recorded into it.
  bool recorded() const { return recorded_; }
  /// Checkpoints held, inherited ones included.
  std::size_t size() const { return saved_.size(); }

 private:
  friend class detail::Exec;
  struct State;  // one saved forward state; defined in runtime.cpp

  std::vector<graph::NodeId> at_;  // ascending
  bool recorded_ = false;
  // The recording run's lowered forward decisions and its forward set-up.
  const RuntimeTables* tables_ = nullptr;  // identifies the Runtime
  std::vector<char> swap_out_;
  std::vector<char> discard_;
  std::size_t arena_capacity_ = 0;
  bool naive_placement_ = false;
  std::vector<std::shared_ptr<const State>> saved_;  // ascending node
};

/// How a run reuses and leaves forward state (Runtime::run's third form).
struct Resume {
  /// Start from the latest usable checkpoint of `from` (none usable: run
  /// from op 0).
  const ForwardCheckpoints* from = nullptr;
  /// Save this run's forward state at `record`'s nodes.
  ForwardCheckpoints* record = nullptr;
  /// Build RunResult::failure on OOM: the arena summary and the resident
  /// buffers. A search that never reports why a candidate failed turns
  /// it off; an OOM then leaves failure empty.
  bool describe_oom = true;
  /// Set by the run: the forward node it started at (0 = op 0).
  int started_at = 0;
};

class Runtime {
 public:
  Runtime(const graph::Graph& graph, const std::vector<graph::BwdStep>& tape,
          const cost::MachineConfig& machine, const TimeModel& time_model);

  /// Simulate one training iteration.
  ///
  /// Thread safety: run() is re-entrant. The Runtime itself holds const
  /// references and immutable tables; the simulation state (arena, host
  /// pool, value states, stream cursors, the lowered plan) lives in a
  /// per-call Exec over a per-thread scratch set that every run re-fills,
  /// and the RunResult is the caller's. Concurrent run() calls on one
  /// Runtime are therefore safe provided the TimeModel reports
  /// concurrent_safe() — NoisyTimeModel does not, its queries mutate a
  /// shared Rng. An attached StatsRegistry is safe: counters and gauges
  /// are atomic. The parallel planner (pooch::planner) relies on exactly
  /// this.
  RunResult run(const Classification& classes,
                const RunOptions& options = {}) const;

  /// The same run, resuming from and recording forward checkpoints as
  /// `resume` asks. The RunResult equals run(classes, options) in every
  /// field (failure too, unless describe_oom is off). It takes neither a
  /// stats sink nor stream recording: the skipped prefix's counters and
  /// ops would be missing. A time model that is not concurrent_safe()
  /// never resumes — skipping its queries would shift every later draw.
  RunResult run(const Classification& classes, const RunOptions& options,
                Resume& resume) const;

  const graph::Graph& graph() const { return graph_; }
  const std::vector<graph::BwdStep>& tape() const { return tape_; }
  const cost::MachineConfig& machine() const { return machine_; }
  const TimeModel& time_model() const { return time_model_; }

 private:
  RunResult run_exec(const Classification& classes, const RunOptions& options,
                     const ForwardCheckpoints* from, Resume& resume) const;

  const graph::Graph& graph_;
  const std::vector<graph::BwdStep>& tape_;
  const cost::MachineConfig& machine_;
  const TimeModel& time_model_;
  /// What every run reads of the graph and tape — byte sizes, capped
  /// workspaces, the persistent pool, the plan skeleton, swap-in trigger
  /// steps — derived once here. Time-model answers are never cached:
  /// NoisyTimeModel draws fresh jitter per query.
  std::shared_ptr<const RuntimeTables> tables_;
};

}  // namespace pooch::sim
