// Calibrated time model: measured wall-clock op times served through the
// sim::TimeModel interface, with a scale-corrected roofline fallback.
//
// This is the piece DESIGN.md §2 admits is the reproduction's weakest
// substitution — the planner simulating against an *analytic* roofline
// instead of the measurements the paper's profiler collects. With real
// CPU kernels and a real overlapped executor in tree, the loop can be
// closed: a profile::MeasuredProfile records what one iteration actually
// cost, and this model serves those numbers to the same simulator the
// planner searches with, so the classification is chosen against the
// hardware that will execute it.
//
// One subtlety (documented in docs/PROFILING.md):
//
//   Fallback scaling. Measured times (CPU wall clock) and roofline times
//   (simulated V100) live on different scales. Both pipelines profile
//   the swap-all schedule first, so a classifiable map's transfers are
//   always measured; an op the measuring runs never executed (a map
//   swap-all never moves, or after a re-plan the swap-in of a value the
//   re-measured plan kept resident) cannot be served raw roofline time
//   next to measured neighbours — it would be off by orders of
//   magnitude. Instead the
//   model learns one scale factor per category (forward / backward /
//   d2h / h2d) from the ops observed in *both* domains and serves
//   fallback = roofline * category_scale. The roofline keeps its job of
//   predicting *relative* magnitudes; the measurements anchor the units.
//   Every observed op is served its measurement as is.
//
// The same model prices the simulated profile (profile::run_profiler's
// per-op means, where the learned scales sit near 1) for run_pooch's
// classification, so there is one rule for ops profiling never saw.
//
// Besides pricing the planner's timeline simulations, this model prices
// the executor's multi-worker compute dispatch of every plan the
// measured pipeline records under it: each recorded op's span is this
// model's time for it, so the critical-path priorities built from the
// spans rank ready ops by how much wall clock actually hangs off them,
// not by roofline guesses.
#pragma once

#include "graph/graph.hpp"
#include "profile/measured_profile.hpp"
#include "sim/time_model.hpp"

namespace pooch::cost {

struct CalibrationOptions {
  /// Multiplies every served time; 1.0 for honest calibration. Test/
  /// bench knob to emulate a stale profile (the drift detector must
  /// notice and re-plan); never set away from 1.0 in production paths.
  double inject_drift = 1.0;
};

/// sim::TimeModel backed by measured wall-clock times with roofline
/// fallback. All tables are precomputed at construction, so queries are
/// lock-free, deterministic, and concurrent_safe() — the parallel
/// planner runs at full fan-out under this model.
class CalibratedTimeModel : public sim::TimeModel {
 public:
  /// `fallback` is the analytic model (normally sim::CostTimeModel for
  /// the same graph+machine); only read during construction.
  CalibratedTimeModel(const graph::Graph& graph,
                      const profile::MeasuredProfile& profile,
                      const sim::TimeModel& fallback,
                      const CalibrationOptions& options = {});

  double forward_time(graph::NodeId node) const override;
  double backward_time(graph::NodeId node) const override;
  double d2h_time(graph::ValueId value) const override;
  double h2d_time(graph::ValueId value) const override;
  double update_time() const override;
  bool concurrent_safe() const override { return true; }

  // --- calibration diagnostics ---
  /// Ops served from measurement vs from the scaled roofline fallback.
  int measured_ops() const { return measured_ops_; }
  int fallback_ops() const { return fallback_ops_; }
  /// Learned measured/roofline scale per category (1.0 when a category
  /// had no observations to learn from).
  double forward_scale() const { return scale_[0]; }
  double backward_scale() const { return scale_[1]; }
  double d2h_scale() const { return scale_[2]; }
  double h2d_scale() const { return scale_[3]; }

 private:
  double scale_[4] = {1.0, 1.0, 1.0, 1.0};
  int measured_ops_ = 0;
  int fallback_ops_ = 0;
  std::vector<double> fwd_, bwd_, d2h_, h2d_;
  double update_ = 0.0;
};

}  // namespace pooch::cost
