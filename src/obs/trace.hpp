// Chrome-trace (chrome://tracing / Perfetto "JSON trace") export of a
// simulated run's recorded op stream. One process, one track per lane
// (compute / D2H copy / H2D copy); the bookkeeping ops (begin-iteration,
// frees) take no time and get no slice; stall intervals appear as their
// own red slices on the compute track, with flow arrows from the
// transfer that is blamed for them; swap and recompute work is
// color-coded by the value's classification. Load the file via
// chrome://tracing "Load" or https://ui.perfetto.dev.
//
// Schema (documented in README "Observability"): the top-level object
// has "traceEvents" (the standard event array), "displayTimeUnit", and a
// "pooch" object carrying run-level aggregates (busy/stall seconds per
// lane). Timestamps are microseconds of simulated time.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "exec/async_executor.hpp"
#include "obs/json.hpp"
#include "sim/plan.hpp"
#include "sim/runtime.hpp"

namespace pooch::obs {

struct TraceOptions {
  /// When set, per-op args carry the value's keep/swap/recompute class
  /// and transfer slices are color-coded by it.
  const sim::Classification* classes = nullptr;
  /// Extra full-height instant markers (seconds, label) — the measured
  /// pipeline uses these to stamp drift-triggered re-plan events into
  /// the session trace.
  std::vector<std::pair<double, std::string>> markers;
};

/// Build the trace document of `run`, recorded with
/// RunOptions::record_stream.
json::Value chrome_trace(const graph::Graph& graph, const sim::RunResult& run,
                         const TraceOptions& options = {});

/// chrome_trace() serialized to a string.
std::string chrome_trace_json(const graph::Graph& graph,
                              const sim::RunResult& run,
                              const TraceOptions& options = {});

/// Write the trace to `path`; throws pooch::Error on I/O failure.
void write_chrome_trace(const std::string& path, const graph::Graph& graph,
                        const sim::RunResult& run,
                        const TraceOptions& options = {});

/// Trace of a real AsyncExecutor replay with one track per worker:
/// "compute w0" … "compute wN-1", then one per copy-lane worker. Spans
/// come from AsyncResult::spans (measured wall clock), so concurrent
/// compute ops visibly overlap across the compute tracks; per-op args
/// carry the dependency-wait time. Same envelope/schema as
/// chrome_trace, with per-worker busy seconds in the "pooch" object.
json::Value async_chrome_trace(const graph::Graph& graph,
                               const exec::OpStream& stream,
                               const std::vector<exec::OpSpan>& spans,
                               const TraceOptions& options = {});

/// async_chrome_trace() written to `path`; throws on I/O failure.
void write_async_chrome_trace(const std::string& path,
                              const graph::Graph& graph,
                              const exec::OpStream& stream,
                              const std::vector<exec::OpSpan>& spans,
                              const TraceOptions& options = {});

}  // namespace pooch::obs
