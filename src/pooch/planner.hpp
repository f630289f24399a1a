// PoocH's classification search (paper §4.4).
//
// Step 1 (keep vs swap, §4.4.2): simulate the swap-all timeline; feature
// maps whose swaps are fully hidden stay `swap`. The exposed ones split
// into L_O (swap-out not hidden — they cluster at the tail of forward,
// Figure 13) handled by a greedy keep-from-the-output-layer scan, and L_I
// (swap-in not hidden) searched exhaustively (Figure 14), every candidate
// scored by simulating the full timeline. Above a configurable |L_I| cap
// the exhaustive tree degrades to a beam search over the same space.
//
// Step 2 (swap vs recompute, §4.4.3): greedy loop on the overhead ratio
//   r(X) = recompute_overhead(X) / swap_overhead(X),
// both overheads measured as simulated-iteration-time deltas against the
// same classification with X kept, under the same memory bound; when
// keeping X does not fit, the baseline is the current time less the
// stall attributed to X. Each round moves the smallest r(X) < 1 to
// `recompute` and retires every X with r(X) >= 1 to `swap`.
//
// All simulations run through the same Runtime that will execute the
// winning classification — the strongest form of the paper's premise
// that the simulation models the execution.
//
// The search is embarrassingly parallel at two grains — the 2^|L_I|
// candidates of step 1 and the per-map keep/recompute probes of each
// step-2 round — and PlannerOptions::threads fans both out over a
// ThreadPool. The result is bit-identical to the sequential search at
// any thread count: workers write into per-candidate slots and the
// winner is chosen by a sequential reduction in enumeration order with
// a fixed tie-break. A memo cache (PlannerOptions::cache) keyed by the
// canonical serialized classification serves repeated simulations —
// greedy rounds and the swap-opt/full-plan pair re-pose many identical
// candidates. docs/ALGORITHMS.md walks through both the algorithm and
// the determinism argument.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/runtime.hpp"

namespace pooch {
class ThreadPool;
}

namespace pooch::obs {
class StatsRegistry;
}

namespace pooch::planner {

/// Every planning simulation runs with the default sim::RunOptions:
/// §4.3's memory-aware eager swap-in policy, the one execute_plan tries
/// first. plan_keep_swap_only() is step 1 alone (the paper's swap-opt).
struct PlannerOptions {
  /// Exhaustive search bound: 2^|L_I| leaves up to this size.
  int bruteforce_cap = 14;
  /// Beam width of the fallback search above the cap.
  int beam_width = 32;
  /// Fraction of device capacity withheld during planning. Profiled
  /// times differ from execution times, which perturbs the malloc/free
  /// order; planning against a slightly smaller device keeps the chosen
  /// classification feasible under that jitter.
  double memory_safety_margin = 0.03;
  /// Parallelism of the candidate-evaluation fan-out: 1 = sequential,
  /// 0 = one thread per hardware core, N = exactly N threads. The
  /// chosen plan is bit-identical at every setting. Forced to 1 when
  /// the time model is not TimeModel::concurrent_safe() (profiling
  /// noise draws depend on query order).
  int threads = 1;
  /// Memoize candidate evaluations keyed by the canonical serialized
  /// classification. The cache lives for the planner's lifetime, so a
  /// plan_keep_swap_only() + plan() pair (the swap-opt ablation next to
  /// the full method) replays step 1 entirely from cache. Hits never
  /// change the chosen plan — only how many simulations it costs.
  bool cache = true;
  /// Metrics sink. When set, the search publishes counters (simulations,
  /// cache hits, beam prunings, recompute rounds), worker-utilization
  /// and step-1/step-2 wall-clock gauges. See README "Observability"
  /// for the metric names.
  obs::StatsRegistry* stats = nullptr;
};

struct PlannerResult {
  sim::Classification classes;
  bool feasible = false;
  double predicted_time = 0.0;
  std::size_t predicted_peak = 0;

  // Diagnostics.
  std::vector<graph::ValueId> lo;  // L_O: swap-outs not hidden
  std::vector<graph::ValueId> li;  // L_I: swap-ins not hidden
  std::array<int, 3> counts{0, 0, 0};  // keep/swap/recompute (Table 3)
  /// Usable device bytes the plan was validated against (the margin-
  /// reduced capacity); execute_plan's first attempt clamps its pool to
  /// this.
  std::size_t planning_usable_bytes = 0;
  /// Timeline simulations actually run (cache hits excluded), total and
  /// split by phase: step1 covers the L_I/L_O search + absorption, step2
  /// the recompute-ratio rounds, and simulations == step1 + step2.
  int simulations = 0;
  int step1_simulations = 0;
  int step2_simulations = 0;
  /// Candidate evaluations served from the memo cache instead of being
  /// re-simulated.
  int cache_hits = 0;
  /// Forward nodes the simulations ran, and the ones they skipped by
  /// resuming from a checkpoint of the run their candidate was derived
  /// from (sim::ForwardCheckpoints). Their sum is simulations × nodes.
  std::int64_t forward_nodes_simulated = 0;
  std::int64_t forward_nodes_skipped = 0;
  /// Parallelism the search actually used (1 = sequential).
  int threads_used = 1;
  int recompute_rounds = 0;
  bool used_beam_fallback = false;
  double planning_wall_seconds = 0.0;  // real CPU time of the search

  /// forward_nodes_skipped over all forward nodes; 0 with no simulation.
  double forward_skip_share() const;
  std::string summary() const;
};

class PoochPlanner {
 public:
  /// `time_model` is normally a cost::CalibratedTimeModel over a
  /// profile (run_pooch builds it from the simulated profiler's means).
  PoochPlanner(const graph::Graph& graph,
               const std::vector<graph::BwdStep>& tape,
               const cost::MachineConfig& machine,
               const sim::TimeModel& time_model, PlannerOptions options = {});
  ~PoochPlanner();

  /// Full PoocH classification (step 1 + step 2).
  PlannerResult plan() const;

  /// Step 1 only — the paper's "swap-opt" ablation.
  PlannerResult plan_keep_swap_only() const;

 private:
  struct Eval {
    bool feasible = false;
    double time = 0.0;
    std::size_t peak = 0;
  };
  struct SearchCtx;  // per-plan counters (sims, cache hits, utilization)
  struct Chain;      // forward checkpoints of one chain of candidates

  /// Score a candidate: from the cache, or by a simulation that resumes
  /// from `from` and records into `record` (see sim::Resume).
  Eval evaluate(const sim::Classification& classes, SearchCtx& ctx,
                const sim::ForwardCheckpoints* from = nullptr,
                sim::ForwardCheckpoints* record = nullptr) const;
  Eval simulate(const sim::Classification& classes, SearchCtx& ctx,
                const sim::ForwardCheckpoints* from,
                sim::ForwardCheckpoints* record) const;
  /// evaluate() for the next candidate of `chain`.
  Eval evaluate(const sim::Classification& classes, SearchCtx& ctx,
                Chain& chain) const;
  /// One counted simulation (ctx.sims and the forward-node tallies).
  sim::RunResult run_counted(const sim::Classification& classes,
                             SearchCtx& ctx,
                             const sim::ForwardCheckpoints* from = nullptr,
                             sim::ForwardCheckpoints* record = nullptr) const;
  /// Run fn(i) for i in [0, n) on the pool (inline when sequential) and
  /// fold the fan-out's wall/busy seconds into ctx.
  void for_candidates(std::size_t n, SearchCtx& ctx,
                      const std::function<void(std::size_t)>& fn) const;

  PlannerResult run_step1(SearchCtx& ctx) const;
  void run_step2(PlannerResult& result, SearchCtx& ctx) const;
  void finish(PlannerResult& result, SearchCtx& ctx,
              std::chrono::steady_clock::time_point t0) const;

  const graph::Graph& graph_;
  const std::vector<graph::BwdStep>& tape_;
  cost::MachineConfig machine_;  // by value: planning capacity is reduced
                                 // by the safety margin
  PlannerOptions options_;
  std::vector<graph::ValueId> classifiable_;

  sim::Runtime runtime_;

  /// Fan-out pool; null when the effective thread count is 1.
  std::unique_ptr<ThreadPool> pool_;

  /// Memo cache: canonical classification → Eval. Mutable because the
  /// search is logically const; guarded by its own mutex so concurrent
  /// workers share hits. Entries are exact — the full serialized key is
  /// stored, so a hash collision can at worst cost a rehash, never a
  /// wrong Eval.
  struct EvalCache;
  std::unique_ptr<EvalCache> cache_;
};

}  // namespace pooch::planner
