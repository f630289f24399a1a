#include "cost/calibrated_time_model.hpp"

#include "common/error.hpp"

namespace pooch::cost {

namespace {

/// Ratio of measured to analytic time summed over observed ops; 1.0 when
/// nothing was observed (raw fallback is the only option left).
double learn_scale(double measured_sum, double fallback_sum) {
  return (measured_sum > 0.0 && fallback_sum > 0.0)
             ? measured_sum / fallback_sum
             : 1.0;
}

}  // namespace

CalibratedTimeModel::CalibratedTimeModel(const graph::Graph& graph,
                                         const profile::MeasuredProfile& prof,
                                         const sim::TimeModel& fallback,
                                         const CalibrationOptions& options) {
  POOCH_CHECK_MSG(options.inject_drift > 0.0, "inject_drift must be > 0");
  POOCH_CHECK_MSG(prof.num_nodes() == graph.num_nodes() &&
                      prof.num_values() == graph.num_values(),
                  "profile shape does not match graph");
  const std::size_t nn = static_cast<std::size_t>(graph.num_nodes());
  const std::size_t nv = static_cast<std::size_t>(graph.num_values());

  // Pass 1: learn the measured/roofline scale per category from the ops
  // observed in both domains.
  double msum[4] = {}, fsum[4] = {};
  for (graph::NodeId n = 0; n < graph.num_nodes(); ++n) {
    if (prof.has_forward(n)) {
      msum[0] += prof.forward_seconds(n);
      fsum[0] += fallback.forward_time(n);
    }
    if (prof.has_backward(n)) {
      msum[1] += prof.backward_seconds(n);
      fsum[1] += fallback.backward_time(n);
    }
  }
  for (graph::ValueId v = 0; v < graph.num_values(); ++v) {
    if (prof.has_d2h(v)) {
      msum[2] += prof.d2h_seconds(v);
      fsum[2] += fallback.d2h_time(v);
    }
    if (prof.has_h2d(v)) {
      msum[3] += prof.h2d_seconds(v);
      fsum[3] += fallback.h2d_time(v);
    }
  }
  for (int c = 0; c < 4; ++c) scale_[c] = learn_scale(msum[c], fsum[c]);
  // A transfer direction nobody observed borrows the other direction's
  // scale — both cross the same interconnect.
  if (msum[2] <= 0.0 && msum[3] > 0.0) scale_[2] = scale_[3];
  if (msum[3] <= 0.0 && msum[2] > 0.0) scale_[3] = scale_[2];

  // Pass 2: build the tables. Observed op: its measurement. Unobserved:
  // scaled roofline.
  const double drift = options.inject_drift;
  fwd_.resize(nn);
  bwd_.resize(nn);
  d2h_.resize(nv);
  h2d_.resize(nv);
  auto entry = [&](bool observed, double measured, double analytic,
                   double scale) {
    if (observed) {
      ++measured_ops_;
      return drift * measured;
    }
    ++fallback_ops_;
    return drift * (analytic * scale);
  };
  for (graph::NodeId n = 0; n < graph.num_nodes(); ++n) {
    const std::size_t i = static_cast<std::size_t>(n);
    fwd_[i] = entry(prof.has_forward(n), prof.forward_seconds(n),
                    fallback.forward_time(n), scale_[0]);
    bwd_[i] = entry(prof.has_backward(n), prof.backward_seconds(n),
                    fallback.backward_time(n), scale_[1]);
  }
  for (graph::ValueId v = 0; v < graph.num_values(); ++v) {
    const std::size_t i = static_cast<std::size_t>(v);
    d2h_[i] = entry(prof.has_d2h(v), prof.d2h_seconds(v),
                    fallback.d2h_time(v), scale_[2]);
    h2d_[i] = entry(prof.has_h2d(v), prof.h2d_seconds(v),
                    fallback.h2d_time(v), scale_[3]);
  }
  // The SGD update runs every iteration, so it is observed whenever any
  // measuring run completed; scale it with the backward category
  // otherwise (both are device-side math).
  update_ = prof.update_seconds() > 0.0
                ? drift * prof.update_seconds()
                : drift * fallback.update_time() * scale_[1];
}

double CalibratedTimeModel::forward_time(graph::NodeId node) const {
  return fwd_.at(static_cast<std::size_t>(node));
}
double CalibratedTimeModel::backward_time(graph::NodeId node) const {
  return bwd_.at(static_cast<std::size_t>(node));
}
double CalibratedTimeModel::d2h_time(graph::ValueId value) const {
  return d2h_.at(static_cast<std::size_t>(value));
}
double CalibratedTimeModel::h2d_time(graph::ValueId value) const {
  return h2d_.at(static_cast<std::size_t>(value));
}
double CalibratedTimeModel::update_time() const { return update_; }

}  // namespace pooch::cost
