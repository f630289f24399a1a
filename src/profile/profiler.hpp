// Runtime profiling (paper §4.2).
//
// PoocH's first phase runs a few training iterations with the safe
// default classification (everything swapped) and records, per layer and
// per feature map, what it observed: forward/backward kernel times and
// swap-out/swap-in transfer times. The classifier then plans against
// these *measurements* — not against the hardware model — preserving the
// paper's profile -> classify -> execute structure even though our
// "hardware" is the roofline model (observed through the same virtual
// runtime, with optional measurement noise).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "profile/measured_profile.hpp"
#include "sim/runtime.hpp"
#include "sim/time_model.hpp"

namespace pooch::profile {

/// Seed of the measurement noise, fixed so a profile is reproducible.
inline constexpr std::uint64_t kNoiseSeed = 0x9e3779b9;

struct ProfileOptions {
  /// Training iterations to profile (paper: "the first several").
  int iterations = 3;
  /// Relative measurement noise injected per kernel/transfer observation.
  double noise_sigma = 0.02;
};

struct ProfileData {
  /// False when no profiling iteration could complete (even swap-all
  /// with on-demand scheduling OOMs): the workload is out of reach.
  bool ok = true;
  /// Scheduling actually used: the memory-aware eager policy, or
  /// on-demand when eager swap-all does not fit.
  sim::SwapInPolicy policy_used = sim::SwapInPolicy::kEagerMemoryAware;

  /// Per-op mean over the profiled iterations, one sample per observed
  /// op (MeasuredProfile::mean). The classifier plans on
  /// cost::CalibratedTimeModel over these times; ops profiling never
  /// observed are priced by its scaled roofline.
  MeasuredProfile times{0, 0};

  /// Simulated wall time spent inside the profiled iterations.
  double profiled_seconds = 0.0;
  int iterations = 0;
};

/// The swap-in policy of the swap-all profiling schedule (§4.2: "all
/// feature maps are classified into swap as the default"), found by
/// simulating swap-all on `runtime`: eager memory-aware swap-ins; under
/// extreme memory pressure, on-demand swap-ins (slower iterations, the
/// same per-op times); std::nullopt when both OOM — the workload cannot
/// be profiled, a reported outcome rather than an error. Both pipelines
/// profile under it: run_profiler on its noisy runtime, the measured
/// pipeline on the ground-truth runtime whose stream it then executes.
std::optional<sim::SwapInPolicy> swap_all_policy(const sim::Runtime& runtime);

/// Run the profiling phase. `ground_truth` is the hardware being
/// observed; measurements pass through NoisyTimeModel jitter and are
/// averaged over the iterations.
ProfileData run_profiler(const graph::Graph& graph,
                         const std::vector<graph::BwdStep>& tape,
                         const cost::MachineConfig& machine,
                         const sim::TimeModel& ground_truth,
                         const ProfileOptions& options = {});

}  // namespace pooch::profile
