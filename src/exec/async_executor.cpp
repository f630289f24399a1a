#include "exec/async_executor.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <queue>
#include <string>
#include <thread>
#include <utility>

#include "common/error.hpp"
#include "kernels/kernel_context.hpp"
#include "mem/host_pool.hpp"
#include "obs/stats.hpp"
#include "sim/data_backend.hpp"

namespace pooch::exec {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Ready-queue entry: (priority, -index). Lexicographic max order pops
/// the highest priority first, then the lowest index — a total,
/// deterministic dispatch order. With one compute worker every op
/// pushes priority 0, so every lane pops in pure stream-index (FIFO)
/// order.
using ReadyEntry = std::pair<double, std::int32_t>;

/// Dependency-counted dispatcher shared by every worker of a run, and
/// the run's only synchronization. An op enters its lane's ready queue
/// when its last dependency retires; a lane's workers pop under the
/// mutex and execute outside it, and retire under it again. So a pop
/// happens after every dependency's retire: after its writes and its
/// seq_end.
struct Dispatcher {
  std::mutex mu;
  std::condition_variable cv[kNumLanes];
  /// Unretired dependencies per op; -1 once the op has retired.
  std::vector<int> indegree;
  /// When each op entered its lane's ready queue, in seconds since the
  /// run started.
  std::vector<double> ready_at;
  std::priority_queue<ReadyEntry> ready[kNumLanes];
  int remaining[kNumLanes] = {};
  int ready_peak = 0;  // compute lane
  obs::Histogram* depth_hist = nullptr;

  void push_ready_locked(int lane, std::int32_t index, double priority,
                         double now) {
    ready_at[static_cast<std::size_t>(index)] = now;
    ready[lane].push({priority, -index});
    if (lane == kComputeLane) {
      const int depth = static_cast<int>(ready[lane].size());
      ready_peak = std::max(ready_peak, depth);
      if (depth_hist) depth_hist->add(static_cast<double>(depth));
    }
    cv[lane].notify_one();
  }
};

/// The most swap-outs whose [seq_start, seq_end] intervals overlap.
/// Every sequence number is distinct, so a sweep in sequence order is
/// exact.
int peak_swap_outs_in_flight(const OpStream& stream,
                             const std::vector<OpSpan>& spans) {
  std::vector<std::pair<std::uint64_t, int>> edges;
  for (std::size_t i = 0; i < stream.ops.size(); ++i) {
    if (stream.ops[i].type != OpType::kSwapOut) continue;
    edges.push_back({spans[i].seq_start, 1});
    edges.push_back({spans[i].seq_end, -1});
  }
  std::sort(edges.begin(), edges.end());
  int held = 0;
  int peak = 0;
  for (const auto& [seq, delta] : edges) {
    held += delta;
    peak = std::max(peak, held);
  }
  return peak;
}

std::size_t align_up(std::size_t bytes, std::size_t alignment) {
  return (bytes + alignment - 1) / alignment * alignment;
}

/// Shared mutable state of one run, owned by AsyncExecutor::run's stack.
struct RunState {
  const graph::Graph& graph;
  const OpStream& stream;
  const Schedule& sched;
  const SlabLayout& layout;
  sim::DataBackend& data;
  const AsyncOptions& opts;
  Clock::time_point t0;

  std::vector<OpSpan> spans;
  std::atomic<std::uint64_t> seq{0};
  std::atomic<bool> aborted{false};
  std::mutex failure_mu;
  std::string failure;

  Dispatcher dispatch;
  std::vector<double> worker_idle;  // per compute worker

  RunState(const graph::Graph& g, const OpStream& s, const Schedule& sc,
           const SlabLayout& l, sim::DataBackend& d, const AsyncOptions& o)
      : graph(g),
        stream(s),
        sched(sc),
        layout(l),
        data(d),
        opts(o),
        t0(Clock::now()),
        spans(s.ops.size()),
        worker_idle(static_cast<std::size_t>(o.compute_workers), 0.0) {}

  /// Dispatch priority of op i: its critical path to sink over the
  /// stream's spans, or 0 when the compute lane runs single-worker so
  /// FIFO order — the serial program order — is preserved exactly.
  double priority(std::size_t i) const {
    return opts.compute_workers > 1 ? sched.priority[i] : 0.0;
  }

  void fail(const std::string& what) {
    {
      std::lock_guard<std::mutex> lock(failure_mu);
      if (failure.empty()) failure = what;
    }
    aborted.store(true, std::memory_order_release);
  }

  void execute(const StreamOp& op, std::int32_t index) {
    for (const Placement& p : op.places) {
      const std::size_t offset = layout.device_offset(p.offset);
      if (p.grad) {
        data.place_grad(p.value, offset);
      } else {
        data.place_value(p.value, offset);
      }
    }
    switch (op.type) {
      case OpType::kBeginIteration:
        data.begin_iteration();
        break;
      case OpType::kForward:
      case OpType::kRecompute:
        data.forward(op.node, stream.iteration);
        break;
      case OpType::kBackward:
        data.backward(op.node, stream.iteration);
        break;
      case OpType::kUpdate:
        data.update();
        break;
      case OpType::kSwapOut:
        data.swap_out(op.value,
                      layout.host_offset(static_cast<std::size_t>(index)));
        data.free_value(op.value);
        break;
      case OpType::kSwapIn:
        data.swap_in(op.value);
        break;
      case OpType::kFreeValue:
        data.free_value(op.value);
        break;
      case OpType::kFreeGrad:
        data.free_grad(op.value);
        break;
    }
  }

  /// Run one popped op: stamp its start (its wait is the time since it
  /// entered the ready queue), execute it, stamp its end. seq_start is
  /// taken after the pop and seq_end before the retire, and the
  /// dispatcher's mutex orders a dependency's retire before its
  /// consumer's pop, so every consumer sees seq_end(dep) <
  /// seq_start(op); that order is all the counter needs, hence relaxed.
  void run_op(std::int32_t index, int lane, int worker) {
    const StreamOp& op = stream.ops[static_cast<std::size_t>(index)];
    OpSpan& span = spans[static_cast<std::size_t>(index)];
    span.lane = lane;
    span.worker = worker;
    span.start = seconds_since(t0);
    span.wait = span.start - dispatch.ready_at[static_cast<std::size_t>(index)];
    span.seq_start = seq.fetch_add(1, std::memory_order_relaxed);
    if (!aborted.load(std::memory_order_acquire)) {
      try {
        execute(op, index);
      } catch (const std::exception& e) {
        fail(std::string(op_type_name(op.type)) + " op " +
             std::to_string(index) + ": " + e.what());
      }
    }
    span.end = seconds_since(t0);
    span.seq_end = seq.fetch_add(1, std::memory_order_relaxed);
  }

  /// Retire op `index` of `lane`, under the dispatcher's lock: every
  /// successor whose last dependency this was enters its lane's ready
  /// queue now. An op retires once, and no indegree drops below zero.
  void retire_locked(std::int32_t index, int lane) {
    std::vector<int>& indegree = dispatch.indegree;
    POOCH_CHECK_MSG(indegree[static_cast<std::size_t>(index)] == 0,
                    "op " << index << " retired twice");
    indegree[static_cast<std::size_t>(index)] = -1;
    const double now = seconds_since(t0);
    for (std::int32_t s : sched.succs[static_cast<std::size_t>(index)]) {
      int& pending = indegree[static_cast<std::size_t>(s)];
      POOCH_CHECK_MSG(pending > 0, "op " << s << " has no dependency left for "
                                         << index << " to retire");
      if (--pending == 0) {
        dispatch.push_ready_locked(
            lane_of(stream.ops[static_cast<std::size_t>(s)].type), s,
            priority(static_cast<std::size_t>(s)), now);
      }
    }
    if (--dispatch.remaining[lane] == 0) dispatch.cv[lane].notify_all();
  }

  /// Dependency-counted worker loop: pop the lane's best ready op,
  /// execute it, retire it. Exits when the lane has no unexecuted ops
  /// left.
  void worker_loop(int lane, int worker) {
    std::unique_lock<std::mutex> lock(dispatch.mu);
    for (;;) {
      while (dispatch.ready[lane].empty() && dispatch.remaining[lane] > 0) {
        const double idle_begin = seconds_since(t0);
        dispatch.cv[lane].wait(lock);
        if (lane == kComputeLane) {
          worker_idle[static_cast<std::size_t>(worker)] +=
              seconds_since(t0) - idle_begin;
        }
      }
      if (dispatch.ready[lane].empty()) return;  // lane fully drained
      const std::int32_t index = -dispatch.ready[lane].top().second;
      dispatch.ready[lane].pop();
      lock.unlock();

      run_op(index, lane, worker);
      lock.lock();
      retire_locked(index, lane);
    }
  }

  /// Compute-lane worker: when several compute workers run, each routes
  /// its kernels through a private serial KernelContext — scratch
  /// arenas are per-(slot, arena) within a context, so sharing one
  /// across concurrent kernels would race. Kernels stay bit-exact at
  /// any thread count, so swapping the context never changes results.
  void compute_worker(int worker) {
    if (opts.compute_workers > 1) {
      kernels::KernelContext ctx(1);
      ctx.stats = opts.stats;
      sim::DataBackend::ThreadContextGuard guard(data, &ctx);
      worker_loop(kComputeLane, worker);
    } else {
      worker_loop(kComputeLane, worker);
    }
  }
};

}  // namespace

SlabLayout::SlabLayout(const OpStream& stream)
    : host_offset_(stream.ops.size(), 0) {
  // The union of the placement ranges, as disjoint sorted regions.
  for (const StreamOp& op : stream.ops) {
    for (const Placement& p : op.places) {
      regions_.push_back(
          {p.offset, align_up(p.offset + p.bytes, kSlabAlignment), 0});
    }
  }
  std::sort(regions_.begin(), regions_.end(),
            [](const Region& a, const Region& b) {
              return a.arena_begin < b.arena_begin;
            });
  std::size_t merged = 0;
  for (const Region& r : regions_) {
    if (merged > 0 && r.arena_begin <= regions_[merged - 1].arena_end) {
      Region& last = regions_[merged - 1];
      last.arena_end = std::max(last.arena_end, r.arena_end);
    } else {
      regions_[merged++] = r;
    }
  }
  regions_.resize(merged);
  // Each region keeps its arena alignment: the slab squeezes out only
  // whole kSlabAlignment units of never-used arena.
  for (Region& r : regions_) {
    r.slab_begin = device_bytes_ + r.arena_begin % kSlabAlignment;
    device_bytes_ = r.slab_begin + (r.arena_end - r.arena_begin);
  }
  for (std::size_t i = 0; i < stream.ops.size(); ++i) {
    if (stream.ops[i].type != OpType::kSwapOut) continue;
    host_offset_[i] = host_bytes_;
    host_bytes_ += stream.ops[i].bytes;
  }
}

std::size_t SlabLayout::device_offset(std::size_t arena_offset) const {
  // The last region starting at or below the offset holds it.
  auto it = std::upper_bound(
      regions_.begin(), regions_.end(), arena_offset,
      [](std::size_t off, const Region& r) { return off < r.arena_begin; });
  POOCH_CHECK_MSG(it != regions_.begin() && arena_offset < (it - 1)->arena_end,
                  "arena offset " << arena_offset << " is not a placement");
  --it;
  return it->slab_begin + (arena_offset - it->arena_begin);
}

AsyncExecutor::AsyncExecutor(const graph::Graph& graph, const OpStream& stream)
    : graph_(graph),
      stream_(stream),
      tape_(graph::build_backward_tape(graph)),
      schedule_(build_schedule(graph, tape_, stream)),
      layout_(stream) {}

AsyncResult AsyncExecutor::run(sim::DataBackend& data,
                               const AsyncOptions& options) const {
  POOCH_CHECK(options.compute_workers >= 1);
  POOCH_CHECK(options.workers_per_copy_lane >= 1);
  // The run's host memory is its host slab: claim it whole before the
  // backend is touched, and return it however the run ends.
  if (options.host_pool && !options.host_pool->reserve(layout_.host_bytes())) {
    AsyncResult result;
    result.failure = "async exec: host pool cannot hold the " +
                     std::to_string(layout_.host_bytes()) +
                     "-byte host slab";
    return result;
  }
  struct HostRelease {
    mem::HostPool* pool;
    std::size_t bytes;
    ~HostRelease() {
      if (pool) pool->release(bytes);
    }
  } host_release{options.host_pool, layout_.host_bytes()};
  data.reserve_slabs(layout_.device_bytes(), layout_.host_bytes());
  RunState state(graph_, stream_, schedule_, layout_, data, options);

  const std::size_t n_ops = stream_.ops.size();
  // Seed the dispatcher: indegrees from the hazard edges, sources ready.
  state.dispatch.indegree.resize(n_ops);
  state.dispatch.ready_at.resize(n_ops);
  if (options.stats) {
    state.dispatch.depth_hist =
        &options.stats->histogram("exec.sched.ready_depth");
  }
  for (std::size_t i = 0; i < n_ops; ++i) {
    state.dispatch.remaining[lane_of(stream_.ops[i].type)]++;
    state.dispatch.indegree[i] = static_cast<int>(schedule_.deps[i].size());
  }
  {
    std::lock_guard<std::mutex> lock(state.dispatch.mu);
    const double now = seconds_since(state.t0);
    for (std::size_t i = 0; i < n_ops; ++i) {
      if (state.dispatch.indegree[i] == 0) {
        state.dispatch.push_ready_locked(lane_of(stream_.ops[i].type),
                                         static_cast<std::int32_t>(i),
                                         state.priority(i), now);
      }
    }
  }

  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(2 * options.workers_per_copy_lane +
                                           options.compute_workers - 1));
  for (int w = 0; w < options.workers_per_copy_lane; ++w) {
    workers.emplace_back([&state, w] { state.worker_loop(kD2HLane, w); });
    workers.emplace_back([&state, w] { state.worker_loop(kH2DLane, w); });
  }
  for (int w = 1; w < options.compute_workers; ++w) {
    workers.emplace_back([&state, w] { state.compute_worker(w); });
  }
  // The calling thread is compute worker 0.
  state.compute_worker(0);
  for (auto& t : workers) t.join();

  AsyncResult result;
  result.wall_seconds = seconds_since(state.t0);
  result.failure = state.failure;
  result.ok = result.failure.empty();
  result.spans = std::move(state.spans);
  if (result.ok) {
    result.staging_acquisitions =
        static_cast<std::uint64_t>(stream_.count(OpType::kSwapOut));
    result.staging_peak_held = peak_swap_outs_in_flight(stream_, result.spans);
  }
  result.device_slab_bytes = layout_.device_bytes();
  result.host_slab_bytes = layout_.host_bytes();
  result.compute_worker_busy.assign(
      static_cast<std::size_t>(options.compute_workers), 0.0);
  result.compute_worker_idle = std::move(state.worker_idle);
  result.critical_path_seconds = schedule_.critical_path_seconds;
  result.ready_peak = state.dispatch.ready_peak;

  for (const OpSpan& span : result.spans) {
    const double busy = span.end - span.start;
    result.lane_busy[span.lane] += busy;
    result.lane_wait[span.lane] += span.wait;
    if (span.lane == kComputeLane) {
      result.compute_worker_busy[static_cast<std::size_t>(span.worker)] +=
          busy;
    }
  }

  if (options.stats) {
    auto& s = *options.stats;
    s.counter("exec.runs").add(1);
    s.counter("exec.ops").add(stream_.ops.size());
    s.counter("exec.staging.acquisitions").add(result.staging_acquisitions);
    s.gauge("exec.last.wall_seconds").set(result.wall_seconds);
    s.gauge("exec.last.compute_busy_seconds")
        .set(result.lane_busy[kComputeLane]);
    s.gauge("exec.last.compute_wait_seconds")
        .set(result.lane_wait[kComputeLane]);
    s.gauge("exec.last.d2h_busy_seconds").set(result.lane_busy[kD2HLane]);
    s.gauge("exec.last.d2h_wait_seconds").set(result.lane_wait[kD2HLane]);
    s.gauge("exec.last.h2d_busy_seconds").set(result.lane_busy[kH2DLane]);
    s.gauge("exec.last.h2d_wait_seconds").set(result.lane_wait[kH2DLane]);
    s.gauge("exec.last.staging_peak_held")
        .set(static_cast<double>(result.staging_peak_held));
    s.gauge("exec.last.device_slab_bytes")
        .set(static_cast<double>(result.device_slab_bytes));
    s.gauge("exec.last.host_slab_bytes")
        .set(static_cast<double>(result.host_slab_bytes));
    s.gauge("exec.sched.compute_workers")
        .set(static_cast<double>(options.compute_workers));
    s.gauge("exec.sched.critical_path_seconds")
        .set(result.critical_path_seconds);
    s.gauge("exec.sched.ready_peak")
        .set(static_cast<double>(result.ready_peak));
    for (int w = 0; w < options.compute_workers; ++w) {
      const std::string prefix =
          "exec.sched.worker" + std::to_string(w) + ".";
      s.gauge(prefix + "busy_ns")
          .set(result.compute_worker_busy[static_cast<std::size_t>(w)] * 1e9);
      s.gauge(prefix + "idle_ns")
          .set(result.compute_worker_idle[static_cast<std::size_t>(w)] * 1e9);
    }
  }
  return result;
}

}  // namespace pooch::exec
