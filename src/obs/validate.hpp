// Structural invariant checking for simulated timelines.
//
// The planner's whole decision procedure trusts what the timeline
// simulator says happened, so the schedule itself — not just the numeric
// results — must be checkable. A TimelineValidator verifies, over the
// timed ops of any recorded exec::OpStream (the bookkeeping ops —
// begin-iteration and frees — take no time and are skipped):
//
//   - every span is well-formed (finite, end >= start, stall >= 0) and
//     spans on one lane never overlap (nor do their stall lead-ins);
//   - compute ops follow program order (forward ops in graph order,
//     backward ops in tape order, forward phase before backward);
//   - every dependency edge is respected: each value a compute op reads
//     was materialized (produced, recomputed, or swapped in) before the
//     op starts — in particular every swap-in completes before its
//     consumer starts;
//   - per-value transfer order is sane: at most one swap-out per value
//     per iteration, and its H2D re-fetches start only after the D2H
//     completed;
//   - busy + stall on the compute lane equals the lane's end time (the
//     compute lane is gapless by construction — anything else means
//     lost time);
//   - (RunResult overloads) accounting closes: the run's per-lane busy
//     sums and compute stall match its recorded ops, iteration/forward
//     times match the last compute/forward op, peak = persistent +
//     arena peak, and peak fits the device.
//
// Used by tests (including the random-graph fuzzer), the bench harness
// (every reported run) and `pooch_cli --validate`.
#pragma once

#include <string>
#include <vector>

#include "exec/async_executor.hpp"
#include "exec/op_stream.hpp"
#include "graph/autodiff.hpp"
#include "sim/runtime.hpp"

namespace pooch::obs {

struct ValidationReport {
  std::vector<std::string> errors;

  bool ok() const { return errors.empty(); }
  /// One error per line; "timeline valid" when clean.
  std::string to_string() const;
};

class TimelineValidator {
 public:
  TimelineValidator(const graph::Graph& graph,
                    const std::vector<graph::BwdStep>& tape);

  /// Structural checks on a recorded stream's simulated spans.
  ValidationReport check(const exec::OpStream& stream) const;

  /// Structural checks on r.stream plus RunResult accounting (busy and
  /// stall totals, iteration and forward time, peak composition). The
  /// run must have completed (r.ok) with recording on.
  ValidationReport check_run(const sim::RunResult& r) const;

  /// check_run plus the capacity bound: peak usage must fit in
  /// `usable_device_bytes` (e.g. machine.usable_gpu_bytes()).
  ValidationReport check_run(const sim::RunResult& r,
                             std::size_t usable_device_bytes) const;

  /// Ordering oracle for an AsyncExecutor replay: the measured spans
  /// must respect every dependency edge of the op stream, and — derived
  /// independently of those edges, from the graph and tape — every
  /// value a compute op reads must have been materialized (forward,
  /// recompute, or completed swap-in) and not subsequently freed or
  /// moved out before the op began. Ordering comparisons use the spans'
  /// exact completion-sequence numbers, not wall times, so clock
  /// resolution cannot mask or fake a violation. Wall times must agree:
  /// no op starts, or enters its ready queue (start - wait), before a
  /// dependency ends. Per-(lane,worker) span disjointness is also
  /// enforced.
  ValidationReport check_replay(const exec::OpStream& stream,
                                const std::vector<exec::OpSpan>& spans) const;

 private:
  const graph::Graph& graph_;
  const std::vector<graph::BwdStep>& tape_;
};

}  // namespace pooch::obs
