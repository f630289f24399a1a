#include "profile/profiler.hpp"

#include "common/error.hpp"
#include "common/logging.hpp"

namespace pooch::profile {

using graph::Graph;

std::optional<sim::SwapInPolicy> swap_all_policy(const sim::Runtime& runtime) {
  const sim::Classification swap_all(runtime.graph(), sim::ValueClass::kSwap);
  if (runtime.run(swap_all).ok) return sim::SwapInPolicy::kEagerMemoryAware;
  sim::RunOptions on_demand;
  on_demand.swapin_policy = sim::SwapInPolicy::kOnDemand;
  if (!runtime.run(swap_all, on_demand).ok) {
    POOCH_LOG_WARN("profiling impossible: swap-all OOMs even with "
                   "on-demand scheduling");
    return std::nullopt;
  }
  POOCH_LOG_INFO("profiling falls back to on-demand swap-ins");
  return sim::SwapInPolicy::kOnDemand;
}

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

  const std::optional<sim::SwapInPolicy> policy = swap_all_policy(runtime);
  if (!policy) {
    data.ok = false;
    return data;
  }
  data.policy_used = *policy;
  const sim::Classification swap_all(graph, sim::ValueClass::kSwap);

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
