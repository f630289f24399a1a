#include "sim/time_model.hpp"

#include <cmath>

#include "common/error.hpp"

namespace pooch::sim {

CostTimeModel::CostTimeModel(const graph::Graph& graph,
                             const cost::MachineConfig& machine) {
  fwd_.reserve(static_cast<std::size_t>(graph.num_nodes()));
  bwd_.reserve(static_cast<std::size_t>(graph.num_nodes()));
  for (const auto& n : graph.nodes()) {
    fwd_.push_back(cost::forward_time(graph, n.id, machine));
    bwd_.push_back(cost::backward_time(graph, n.id, machine));
  }
  xfer_.reserve(static_cast<std::size_t>(graph.num_values()));
  for (const auto& v : graph.values()) {
    xfer_.push_back(cost::transfer_time(v.byte_size(), machine));
  }
  update_ = cost::update_time(graph, machine);
}

double CostTimeModel::forward_time(graph::NodeId node) const {
  return fwd_.at(static_cast<std::size_t>(node));
}
double CostTimeModel::backward_time(graph::NodeId node) const {
  return bwd_.at(static_cast<std::size_t>(node));
}
double CostTimeModel::d2h_time(graph::ValueId value) const {
  return xfer_.at(static_cast<std::size_t>(value));
}
double CostTimeModel::h2d_time(graph::ValueId value) const {
  return xfer_.at(static_cast<std::size_t>(value));
}
double CostTimeModel::update_time() const { return update_; }

NoisyTimeModel::NoisyTimeModel(const TimeModel& base, double sigma,
                               std::uint64_t seed)
    : base_(base), sigma_(sigma), rng_(seed) {
  POOCH_CHECK_MSG(sigma >= 0.0 && sigma < 0.5, "noise sigma out of range");
}

double NoisyTimeModel::jitter() const {
  // Clamp so a pathological draw cannot produce a negative duration.
  const double f = 1.0 + sigma_ * rng_.normal();
  return f < 0.05 ? 0.05 : f;
}

double NoisyTimeModel::forward_time(graph::NodeId node) const {
  return base_.forward_time(node) * jitter();
}
double NoisyTimeModel::backward_time(graph::NodeId node) const {
  return base_.backward_time(node) * jitter();
}
double NoisyTimeModel::d2h_time(graph::ValueId value) const {
  return base_.d2h_time(value) * jitter();
}
double NoisyTimeModel::h2d_time(graph::ValueId value) const {
  return base_.h2d_time(value) * jitter();
}
double NoisyTimeModel::update_time() const {
  return base_.update_time() * jitter();
}

}  // namespace pooch::sim
