// Time sources for the virtual GPU.
//
// The runtime asks a TimeModel how long each kernel and each transfer
// takes; everything else (overlap, stalls, memory waits) emerges from the
// discrete-event schedule. Implementations here:
//   CostTimeModel   — the analytic roofline model ("ground truth" hardware)
//   NoisyTimeModel  — wraps another model with multiplicative measurement
//                     noise; this is what the profiling iterations observe
// The PoocH classifier plans on cost::CalibratedTimeModel, which serves a
// profile::MeasuredProfile (simulated or wall-clock) with a scaled
// roofline for the ops profiling never observed.
#pragma once

#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "cost/cost_model.hpp"
#include "cost/machine.hpp"
#include "graph/graph.hpp"

namespace pooch::sim {

class TimeModel {
 public:
  virtual ~TimeModel() = default;
  virtual double forward_time(graph::NodeId node) const = 0;
  virtual double backward_time(graph::NodeId node) const = 0;
  virtual double d2h_time(graph::ValueId value) const = 0;
  virtual double h2d_time(graph::ValueId value) const = 0;
  virtual double update_time() const = 0;

  /// True when concurrent const queries from multiple threads are safe
  /// AND deterministic (the same query always returns the same value).
  /// Runtime::run is re-entrant — all execution state lives in a
  /// per-call Exec over per-thread scratch — so this is the only property
  /// a caller must check before running simulations of the same Runtime
  /// concurrently. The parallel planner falls back to a single thread
  /// when it is false.
  virtual bool concurrent_safe() const { return true; }
};

/// Deterministic times from the roofline cost model.
class CostTimeModel : public TimeModel {
 public:
  CostTimeModel(const graph::Graph& graph, const cost::MachineConfig& machine);

  double forward_time(graph::NodeId node) const override;
  double backward_time(graph::NodeId node) const override;
  double d2h_time(graph::ValueId value) const override;
  double h2d_time(graph::ValueId value) const override;
  double update_time() const override;

 private:
  std::vector<double> fwd_, bwd_, xfer_;
  double update_ = 0.0;
};

/// Multiplicative log-normal-ish noise on top of a base model; each query
/// draws fresh noise, so repeated profiling iterations see jitter.
class NoisyTimeModel : public TimeModel {
 public:
  NoisyTimeModel(const TimeModel& base, double sigma, std::uint64_t seed);

  double forward_time(graph::NodeId node) const override;
  double backward_time(graph::NodeId node) const override;
  double d2h_time(graph::ValueId value) const override;
  double h2d_time(graph::ValueId value) const override;
  double update_time() const override;

  /// Each query mutates rng_, and the draw depends on query order — not
  /// safe (and not meaningful) under concurrent access.
  bool concurrent_safe() const override { return false; }

 private:
  double jitter() const;
  const TimeModel& base_;
  double sigma_;
  mutable Rng rng_;
};

}  // namespace pooch::sim
