// Out-of-core vs in-core execution on the same executor, measured on
// real kernels.
//
//   build/bench/bench_async_exec [output.json]
//
// For each OOC workload (ResNet-50, AlexNet and an Inception toy under a
// device capacity tight enough to force swap traffic) the bench runs one
// real training iteration two ways through exec::AsyncExecutor, with the
// same compute and copy worker counts:
//
//   incore — the keep-all stream on a device that holds every feature
//            map (planner::record_incore_stream): the paper's in-core
//            comparison point;
//   async  — the out-of-core schedule, its swaps retired by dedicated
//            H2D/D2H copy workers while the compute workers run.
//
// Every run is verified bit-identical to the serial in-core reference
// (planner::run_incore_reference); a fast-but-wrong executor aborts the
// bench. The bench::Report (default BENCH_async_exec.json) is keyed on
// (model, policy, copy_workers, compute_workers) and gated on
// `vs_incore` = incore_seconds / async_seconds (higher is better; 1.0 =
// out-of-core execution costs nothing). Its `cpus` field records
// std::thread::hardware_concurrency(): on a single-CPU host the copy
// workers timeshare with compute, and tools/bench_compare.py refuses to
// compare files with different `cpus`.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "exec/async_executor.hpp"
#include "exec/op_stream.hpp"

namespace pooch::bench {
namespace {

constexpr std::uint64_t kSeed = 0x5eed;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Best-of-`reps` wall time for one iteration of `stream` replayed
/// through the AsyncExecutor from a fresh backend (export time excluded —
/// the stream is recorded once and reused, as a training loop would).
/// Exits unless every run is bit-identical to `ref`.
double time_replay(const char* name, const Workload& w,
                   const exec::OpStream& stream, int copy_workers,
                   int compute_workers, int reps, const sim::DataBackend& ref,
                   const char* what) {
  const exec::AsyncExecutor executor(w.g, stream);
  exec::AsyncOptions ao;
  ao.workers_per_copy_lane = copy_workers;
  ao.compute_workers = compute_workers;
  double best = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    sim::DataBackend data(w.g, kSeed);
    const auto t0 = std::chrono::steady_clock::now();
    const auto res = executor.run(data, ao);
    const double s = seconds_since(t0);
    if (!res.ok) {
      std::fprintf(stderr, "%s %s run failed: %s\n", name, what,
                   res.failure.c_str());
      std::exit(1);
    }
    const std::string diff = data.first_difference(ref);
    if (!diff.empty()) {
      std::fprintf(stderr,
                   "%s %s: NOT bit-identical to in-core reference (%s "
                   "differs)\n",
                   name, what, diff.c_str());
      std::exit(1);
    }
    if (s < best) best = s;
  }
  return best;
}

void run_workload(const char* name, const graph::Graph& g, int capacity_pct,
                  int reps, Report& report) {
  // Tightest capacity, in 10-point steps up from `capacity_pct`, at
  // which the swap-all schedule exports.
  const auto wp = tightest_feasible(
      name, g, capacity_pct, 10, [](const Workload& w) {
        try {
          (void)planner::record_op_stream(
              w.rt, sim::Classification(w.g, sim::ValueClass::kSwap));
          return true;
        } catch (const Error&) {
          return false;
        }
      });
  const Workload& w = *wp;
  struct Policy {
    const char* name;
    sim::Classification classes;
  };
  std::vector<Policy> policies;
  policies.push_back(
      {"swap-all", sim::Classification(w.g, sim::ValueClass::kSwap)});
  planner::PoochPlanner planner(w.g, w.tape, w.machine, w.tm);
  const auto plan = planner.plan();
  if (plan.feasible) policies.push_back({"pooch", plan.classes});

  // The serial in-core reference every timed run must match, and the
  // in-core stream the baseline replays.
  sim::DataBackend ref(w.g, kSeed);
  planner::run_incore_reference(w.g, w.tape, ref, 1);
  const exec::OpStream incore = planner::record_incore_stream(w.g, w.tape);

  for (auto& p : policies) {
    exec::OpStream stream;
    try {
      stream = planner::record_op_stream(w.rt, p.classes);
    } catch (const Error& e) {
      std::fprintf(stderr, "%s %s: export infeasible: %s\n", name, p.name,
                   e.what());
      continue;
    }
    std::size_t swapped = 0;
    for (const exec::StreamOp& op : stream.ops) {
      if (op.type == exec::OpType::kSwapOut) swapped += op.bytes;
    }
    // The copy-worker sweep at serial compute, then the compute-worker
    // sweep at 2 copy workers: one axis moves at a time so regressions
    // bisect cleanly.
    const std::pair<int, int> sweep[] = {{1, 1}, {2, 1}, {2, 2}, {2, 4}};
    for (const auto& [copy, compute] : sweep) {
      const double incore_s =
          time_replay(name, w, incore, copy, compute, reps, ref, "in-core");
      const double async_s =
          time_replay(name, w, stream, copy, compute, reps, ref, p.name);
      const double vs_incore = async_s > 0.0 ? incore_s / async_s : 0.0;
      obs::json::Object row;
      row["model"] = name;
      row["policy"] = p.name;
      row["copy_workers"] = copy;
      row["compute_workers"] = compute;
      row["incore_seconds"] = incore_s;
      row["async_seconds"] = async_s;
      row["vs_incore"] = vs_incore;
      row["swapped_bytes"] = swapped;
      report.add(std::move(row));
      std::printf("| %-10s | %-8s | %4d | %7d | %10.4f | %10.4f | %9.3f |\n",
                  name, p.name, copy, compute, incore_s, async_s, vs_incore);
    }
  }
}

int run(int argc, char** argv) {
  Report report("async_exec",
                {"model", "policy", "copy_workers", "compute_workers"},
                "vs_incore", Report::Better::kHigher);
  std::printf("| model      | policy   | copy | compute | incore (s) "
              "| async (s)  | vs incore |\n"
              "|------------|----------|------|---------|------------"
              "|------------|-----------|\n");
  // Small-resolution ResNet-50 and stock AlexNet: OOC once the device is
  // clamped to 60% of the keep-all peak, yet one real iteration stays in
  // benchable range on a laptop-class CPU.
  run_workload("resnet50", models::resnet50(4, 64, 64),
               /*capacity_pct=*/60, /*reps=*/2, report);
  run_workload("alexnet", models::alexnet(8, 64), /*capacity_pct=*/60,
               /*reps=*/2, report);
  // Branchy workload: parallel inception branches are the case where
  // multi-worker compute has independent ops to dispatch at all.
  run_workload("inception", models::inception_toy(4, 32),
               /*capacity_pct=*/60, /*reps=*/2, report);
  report.write(argc, argv);
  return 0;
}

}  // namespace
}  // namespace pooch::bench

int main(int argc, char** argv) { return pooch::bench::run(argc, argv); }
