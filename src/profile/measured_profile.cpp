#include "profile/measured_profile.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "obs/stats.hpp"
#include "sim/data_backend.hpp"

namespace pooch::profile {

namespace {

/// Samples further than this factor from their median are outliers.
constexpr double kOutlierFactor = 3.0;

/// `samples` sorted, minus those outside [median/kOutlierFactor,
/// median*kOutlierFactor]. Nothing is dropped when the median is not
/// positive; otherwise the window holds the median, so a non-empty set
/// keeps at least one sample.
std::vector<double> survivors(const std::vector<double>& samples) {
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  if (sorted.empty()) return sorted;
  const double median = sorted[sorted.size() / 2];
  if (median <= 0.0) return sorted;
  sorted.erase(std::upper_bound(sorted.begin(), sorted.end(),
                                median * kOutlierFactor),
               sorted.end());
  sorted.erase(sorted.begin(), std::lower_bound(sorted.begin(), sorted.end(),
                                                median / kOutlierFactor));
  return sorted;
}

/// The per-op mean as a one-sample set (empty stays empty).
std::vector<double> mean_of(const std::vector<double>& samples) {
  if (samples.empty()) return {};
  double sum = 0.0;
  for (double s : samples) sum += s;
  return {sum / static_cast<double>(samples.size())};
}

}  // namespace

MeasuredProfile::MeasuredProfile(int num_nodes, int num_values)
    : fwd_(static_cast<std::size_t>(num_nodes)),
      bwd_(static_cast<std::size_t>(num_nodes)),
      d2h_(static_cast<std::size_t>(num_values)),
      h2d_(static_cast<std::size_t>(num_values)) {
  POOCH_CHECK(num_nodes >= 0 && num_values >= 0);
}

void MeasuredProfile::record_op(const exec::StreamOp& op, double seconds) {
  switch (op.type) {
    case exec::OpType::kForward:
    case exec::OpType::kRecompute:  // a second forward sample
      record_forward(op.node, seconds);
      break;
    case exec::OpType::kBackward:
      record_backward(op.node, seconds);
      break;
    case exec::OpType::kSwapOut:
      record_d2h(op.value, seconds);
      break;
    case exec::OpType::kSwapIn:
      record_h2d(op.value, seconds);
      break;
    case exec::OpType::kUpdate:
      record_update(seconds);
      break;
    case exec::OpType::kBeginIteration:
    case exec::OpType::kFreeValue:
    case exec::OpType::kFreeGrad:
      break;
  }
}

void MeasuredProfile::record_iteration(double seconds) {
  iteration_.push_back(seconds);
  ++iterations_recorded_;
}

void MeasuredProfile::record_forward(graph::NodeId node, double seconds) {
  fwd_.at(static_cast<std::size_t>(node)).push_back(seconds);
}
void MeasuredProfile::record_backward(graph::NodeId node, double seconds) {
  bwd_.at(static_cast<std::size_t>(node)).push_back(seconds);
}
void MeasuredProfile::record_d2h(graph::ValueId value, double seconds) {
  d2h_.at(static_cast<std::size_t>(value)).push_back(seconds);
}
void MeasuredProfile::record_h2d(graph::ValueId value, double seconds) {
  h2d_.at(static_cast<std::size_t>(value)).push_back(seconds);
}
void MeasuredProfile::record_update(double seconds) {
  update_.push_back(seconds);
}

double MeasuredProfile::estimate(const std::vector<double>& samples) const {
  const std::vector<double> kept = survivors(samples);
  return kept.empty() ? 0.0 : kept[kept.size() / 2];
}

double MeasuredProfile::forward_seconds(graph::NodeId node) const {
  return estimate(fwd_.at(static_cast<std::size_t>(node)));
}
double MeasuredProfile::backward_seconds(graph::NodeId node) const {
  return estimate(bwd_.at(static_cast<std::size_t>(node)));
}
double MeasuredProfile::d2h_seconds(graph::ValueId value) const {
  return estimate(d2h_.at(static_cast<std::size_t>(value)));
}
double MeasuredProfile::h2d_seconds(graph::ValueId value) const {
  return estimate(h2d_.at(static_cast<std::size_t>(value)));
}
double MeasuredProfile::update_seconds() const { return estimate(update_); }
double MeasuredProfile::iteration_seconds() const {
  return estimate(iteration_);
}

bool MeasuredProfile::has_forward(graph::NodeId node) const {
  return !fwd_.at(static_cast<std::size_t>(node)).empty();
}
bool MeasuredProfile::has_backward(graph::NodeId node) const {
  return !bwd_.at(static_cast<std::size_t>(node)).empty();
}
bool MeasuredProfile::has_d2h(graph::ValueId value) const {
  return !d2h_.at(static_cast<std::size_t>(value)).empty();
}
bool MeasuredProfile::has_h2d(graph::ValueId value) const {
  return !h2d_.at(static_cast<std::size_t>(value)).empty();
}

double MeasuredProfile::compute_coverage() const {
  std::size_t observed = 0, total = 0;
  for (const auto& s : fwd_) {
    ++total;
    if (!s.empty()) ++observed;
  }
  for (const auto& s : bwd_) {
    ++total;
    if (!s.empty()) ++observed;
  }
  return total == 0 ? 0.0
                    : static_cast<double>(observed) /
                          static_cast<double>(total);
}

std::int64_t MeasuredProfile::outliers_rejected() const {
  std::int64_t n = 0;
  auto add = [&](const std::vector<double>& samples) {
    n += static_cast<std::int64_t>(
        samples.size() - survivors(samples).size());
  };
  for (const auto& s : fwd_) add(s);
  for (const auto& s : bwd_) add(s);
  for (const auto& s : d2h_) add(s);
  for (const auto& s : h2d_) add(s);
  add(update_);
  add(iteration_);
  return n;
}

MeasuredProfile MeasuredProfile::mean() const {
  MeasuredProfile out(num_nodes(), num_values());
  out.iterations_recorded_ = iterations_recorded_;
  auto collapse = [](const std::vector<std::vector<double>>& from,
                     std::vector<std::vector<double>>& to) {
    for (std::size_t i = 0; i < from.size(); ++i) to[i] = mean_of(from[i]);
  };
  collapse(fwd_, out.fwd_);
  collapse(bwd_, out.bwd_);
  collapse(d2h_, out.d2h_);
  collapse(h2d_, out.h2d_);
  out.update_ = mean_of(update_);
  out.iteration_ = mean_of(iteration_);
  return out;
}

std::int64_t MeasuredProfile::total_samples() const {
  std::int64_t n = static_cast<std::int64_t>(update_.size()) +
                   static_cast<std::int64_t>(iteration_.size());
  for (const auto& s : fwd_) n += static_cast<std::int64_t>(s.size());
  for (const auto& s : bwd_) n += static_cast<std::int64_t>(s.size());
  for (const auto& s : d2h_) n += static_cast<std::int64_t>(s.size());
  for (const auto& s : h2d_) n += static_cast<std::int64_t>(s.size());
  return n;
}

MeasuredProfile measure_op_stream(const graph::Graph& graph,
                                  const exec::OpStream& stream,
                                  sim::DataBackend& data,
                                  const MeasureOptions& options,
                                  std::uint64_t first_iteration) {
  POOCH_CHECK(options.warmup_iterations >= 0);
  POOCH_CHECK(options.iterations >= 1);
  MeasuredProfile profile(graph.num_nodes(), graph.num_values());

  // The stream's schedule is iteration-invariant; only the dropout epoch
  // advances. Patch it per run instead of re-recording.
  exec::OpStream run_stream = stream;
  const exec::AsyncExecutor executor(graph, run_stream);
  exec::AsyncOptions ao;
  ao.compute_workers = options.compute_workers;
  ao.workers_per_copy_lane = options.copy_workers;
  ao.stats = options.stats;

  const int total = options.warmup_iterations + options.iterations;
  for (int it = 0; it < total; ++it) {
    run_stream.iteration = first_iteration + static_cast<std::uint64_t>(it);
    exec::AsyncResult res = executor.run(data, ao);
    if (!res.ok) {
      throw Error("measure_op_stream: iteration " + std::to_string(it) +
                  " failed: " + res.failure);
    }
    if (it >= options.warmup_iterations) {
      for (std::size_t i = 0; i < run_stream.ops.size(); ++i) {
        profile.record_op(run_stream.ops[i],
                          res.spans[i].end - res.spans[i].start);
      }
      profile.record_iteration(res.wall_seconds);
    }
    if (options.keep_runs) options.keep_runs->push_back(std::move(res));
  }

  if (options.stats) {
    auto& s = *options.stats;
    s.counter("calibration.measured_iterations")
        .add(static_cast<std::uint64_t>(options.iterations));
    s.counter("calibration.warmup_iterations")
        .add(static_cast<std::uint64_t>(options.warmup_iterations));
    s.counter("calibration.samples")
        .add(static_cast<std::uint64_t>(profile.total_samples()));
    s.gauge("calibration.last.compute_coverage")
        .set(profile.compute_coverage());
    s.gauge("calibration.last.iteration_seconds")
        .set(profile.iteration_seconds());
  }
  POOCH_LOG_INFO("measured " << options.iterations << " iterations ("
                             << options.warmup_iterations << " warm-up), "
                             << profile.total_samples() << " samples, "
                             << profile.compute_coverage() * 100.0
                             << "% compute coverage");
  return profile;
}

}  // namespace pooch::profile
