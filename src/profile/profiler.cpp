#include "profile/profiler.hpp"

#include "common/error.hpp"
#include "common/logging.hpp"

namespace pooch::profile {

using graph::Graph;

ProfileData run_profiler(const Graph& graph,
                         const std::vector<graph::BwdStep>& tape,
                         const cost::MachineConfig& machine,
                         const sim::TimeModel& ground_truth,
                         const ProfileOptions& options) {
  POOCH_CHECK(options.iterations > 0);
  ProfileData data;
  data.iterations = options.iterations;

  // What the profiled iterations observe: the hardware through jittery
  // measurements. Sigma 0 degenerates to exact observation.
  sim::NoisyTimeModel observed(ground_truth, options.noise_sigma,
                               kNoiseSeed);
  sim::Runtime runtime(graph, tape, machine, observed);

  // §4.2: "all feature maps are classified into swap as the default".
  // Under extreme memory pressure even the eager schedule can fail; the
  // profiler then falls back to on-demand swap-ins (slower iterations,
  // but the measured per-op times are the same).
  const sim::Classification swap_all(graph, sim::ValueClass::kSwap);
  if (!runtime.run(swap_all).ok) {
    data.policy_used = sim::SwapInPolicy::kOnDemand;
    sim::RunOptions on_demand;
    on_demand.swapin_policy = data.policy_used;
    if (!runtime.run(swap_all, on_demand).ok) {
      POOCH_LOG_WARN("profiling impossible: swap-all OOMs even with "
                     "on-demand scheduling");
      data.ok = false;
      return data;
    }
    POOCH_LOG_INFO("profiler fell back to on-demand swap-ins");
  }

  MeasuredProfile samples(graph.num_nodes(), graph.num_values());
  for (int it = 0; it < options.iterations; ++it) {
    sim::RunOptions ro;
    ro.swapin_policy = data.policy_used;
    ro.record_stream = true;
    ro.iteration = static_cast<std::uint64_t>(it);
    const sim::RunResult r = runtime.run(swap_all, ro);
    POOCH_CHECK_MSG(r.ok, "profiling iteration failed: " << r.failure);
    data.profiled_seconds += r.iteration_time;
    for (const exec::StreamOp& op : r.stream.ops) {
      samples.record_op(op, op.sim_end - op.sim_start);
    }
    samples.record_iteration(r.iteration_time);
  }
  // The mean, not the wall-clock path's median-of-k: the injected jitter
  // is symmetric with no outliers to reject, and the Table 3 golden
  // counts are pinned to planning on the mean.
  data.times = samples.mean();

  POOCH_LOG_INFO("profiled " << options.iterations << " iterations, "
                             << data.profiled_seconds << "s simulated");
  return data;
}

}  // namespace pooch::profile
