// Measured profiling: per-op observations of executed iterations.
//
// The paper's PoocH is *profiling-based* — it plans from per-layer
// compute times and per-tensor transfer times measured during the first
// training iterations on the actual hardware. A MeasuredProfile is the
// one container for those observations: it folds each executed
// iteration into per-op sample sets and condenses them into
// the per-op estimates cost::CalibratedTimeModel serves to the planner.
// Every executed iteration is an exec::OpStream; its ops fold in through
// one call keyed on their exec::OpType, with the duration the caller
// observed. Two producers fill it:
//   - the simulated profiler (profiler.hpp) folds the simulated spans of
//     the swap-all iterations it observes through the noisy roofline
//     model and keeps their per-op mean (mean());
//   - measure_op_stream below folds the measured spans
//     (exec::AsyncResult::spans) of real exec::AsyncExecutor runs (whose
//     kernels execute through kernels::KernelContext on real tensors).
//
// Wall-clock methodology (docs/PROFILING.md):
//   - warm-up iterations are executed but never recorded (cold caches,
//     first-touch page faults, scratch-arena growth);
//   - each measured iteration contributes one sample per op;
//   - per op, samples outside [median/3, median*3] are rejected (a
//     context switch or page-fault storm must not poison the estimate),
//     and the estimate is the median of the survivors — median-of-k,
//     robust to one-sided noise.
#pragma once

#include <cstdint>
#include <vector>

#include "exec/async_executor.hpp"
#include "exec/op_stream.hpp"
#include "graph/graph.hpp"

namespace pooch::obs {
class StatsRegistry;
}

namespace pooch::profile {

struct MeasureOptions {
  /// Executed-but-discarded iterations before sampling starts.
  int warmup_iterations = 1;
  /// Recorded iterations; each contributes one sample per op ("k" of
  /// median-of-k).
  int iterations = 3;
  /// Copy workers per transfer lane for the measuring runs.
  int copy_workers = 1;
  /// Compute workers for the measuring runs
  /// (exec::AsyncOptions::compute_workers). Spans are stamped with the
  /// worker that ran them either way; durations stay pure execution
  /// time because OpSpan::start is taken after the dependency waits.
  int compute_workers = 1;
  /// Metrics sink (calibration.* counters/gauges).
  obs::StatsRegistry* stats = nullptr;
  /// When set, every executed run's AsyncResult (warm-up runs included)
  /// is appended here — raw material for a session trace.
  std::vector<exec::AsyncResult>* keep_runs = nullptr;
};

/// Observations of executed iterations, aggregated per op. Estimates
/// are 0 where an op was never observed — consumers
/// (cost::CalibratedTimeModel) fall back to the analytic model there.
class MeasuredProfile {
 public:
  MeasuredProfile(int num_nodes, int num_values);

  /// Fold one executed op that took `seconds` into its sample set: a
  /// forward or recompute (a second forward sample) of its node, a
  /// backward of its node, a swap of its value, or the update.
  /// Bookkeeping ops (begin-iteration, frees) take no time and are
  /// skipped.
  void record_op(const exec::StreamOp& op, double seconds);
  /// Close one executed iteration that took `seconds` end to end.
  void record_iteration(double seconds);

  /// Record a single observation directly (tests, external timers).
  void record_forward(graph::NodeId node, double seconds);
  void record_backward(graph::NodeId node, double seconds);
  void record_d2h(graph::ValueId value, double seconds);
  void record_h2d(graph::ValueId value, double seconds);
  void record_update(double seconds);

  // --- estimates (median of outlier-filtered samples; 0 = unobserved) ---
  double forward_seconds(graph::NodeId node) const;
  double backward_seconds(graph::NodeId node) const;
  double d2h_seconds(graph::ValueId value) const;
  double h2d_seconds(graph::ValueId value) const;
  double update_seconds() const;

  bool has_forward(graph::NodeId node) const;
  bool has_backward(graph::NodeId node) const;
  bool has_d2h(graph::ValueId value) const;
  bool has_h2d(graph::ValueId value) const;

  /// Median observed end-to-end iteration wall time (0 = none recorded).
  double iteration_seconds() const;

  /// Fraction of (forward + backward) op slots with at least one sample.
  double compute_coverage() const;

  /// Samples the outlier filter rejects, summed over every sample set.
  std::int64_t outliers_rejected() const;
  std::int64_t total_samples() const;
  int iterations_recorded() const { return iterations_recorded_; }

  /// This profile with every observed sample set replaced by its mean:
  /// one sample per op, which every estimate then serves exactly.
  MeasuredProfile mean() const;

  int num_nodes() const { return static_cast<int>(fwd_.size()); }
  int num_values() const { return static_cast<int>(d2h_.size()); }

 private:
  double estimate(const std::vector<double>& samples) const;

  int iterations_recorded_ = 0;
  std::vector<std::vector<double>> fwd_, bwd_;   // per node
  std::vector<std::vector<double>> d2h_, h2d_;   // per value
  std::vector<double> update_;
  std::vector<double> iteration_;
};

/// Run `stream` through exec::AsyncExecutor against `data` for
/// warmup + k iterations and return the aggregated profile. The stream's
/// iteration index is advanced per run starting from `first_iteration`
/// (dropout epochs), exactly as a training loop would; on return the
/// backend has advanced warmup+k training steps. Throws pooch::Error
/// when any executor run fails.
MeasuredProfile measure_op_stream(const graph::Graph& graph,
                                  const exec::OpStream& stream,
                                  sim::DataBackend& data,
                                  const MeasureOptions& options = {},
                                  std::uint64_t first_iteration = 0);

}  // namespace pooch::profile
