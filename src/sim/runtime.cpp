#include "sim/runtime.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <optional>
#include <sstream>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "exec/op_stream.hpp"
#include "mem/arena.hpp"
#include "mem/host_pool.hpp"
#include "obs/stats.hpp"

namespace pooch::sim {

using exec::OpType;
using exec::StallCause;
using exec::StreamOp;
using graph::BwdStep;
using graph::Graph;
using graph::LayerKind;
using graph::NodeId;
using graph::ValueId;

struct RuntimeTables {
  RuntimeTables(const Graph& graph, const std::vector<BwdStep>& tape)
      : plan(graph, tape),
        persistent_bytes(2 * graph.total_param_bytes()),
        grad_arena_free_by_step(tape.size()),
        grad_backend_free_by_step(tape.size()),
        grad_alias_first_by_step(tape.size()),
        fwd_prefix(static_cast<std::size_t>(graph.num_nodes())) {
    // kLookaheadPrevConv: a swap-in needed at step k triggers at the
    // nearest earlier convolution's step (0 when there is none).
    prev_conv_step.reserve(tape.size());
    int prev = 0;
    for (std::size_t k = 0; k < tape.size(); ++k) {
      prev_conv_step.push_back(prev);
      if (graph.node(tape[k].node).kind == LayerKind::kConv) {
        prev = static_cast<int>(k);
      }
    }
    const BackwardPlan& skel = plan.skeleton;
    for (ValueId v = 0; v < graph.num_values(); ++v) {
      const std::size_t vi = static_cast<std::size_t>(v);
      // Arena buffers belong to alias roots and live until the last
      // aliased consumer; the backend's per-value tensors release at
      // their own last step.
      if (skel.root_free_step[vi] >= 0 && skel.grad_root[vi] == v) {
        grad_arena_free_by_step[static_cast<std::size_t>(
                                    skel.root_free_step[vi])]
            .push_back(v);
      }
      if (skel.grad_last_step[vi] >= 0) {
        grad_backend_free_by_step[static_cast<std::size_t>(
                                      skel.grad_last_step[vi])]
            .push_back(v);
      }
      if (skel.grad_first_step[vi] >= 0 && skel.grad_root[vi] != v) {
        grad_alias_first_by_step[static_cast<std::size_t>(
                                     skel.grad_first_step[vi])]
            .push_back(v);
      }
    }
    // Value ids follow creation order, so the values a forward checkpoint
    // at node k must hold — every graph input and the outputs of nodes
    // before k — are an id prefix.
    std::size_t inputs_end = 0;
    for (ValueId in : graph.inputs()) {
      inputs_end = std::max(inputs_end, static_cast<std::size_t>(in) + 1);
    }
    for (const auto& node : graph.nodes()) {
      const std::size_t k = static_cast<std::size_t>(node.id);
      fwd_prefix[k] =
          k == 0 ? inputs_end
                 : std::max(inputs_end,
                            static_cast<std::size_t>(
                                graph.node(node.id - 1).output) + 1);
    }
  }

  PlanTables plan;
  std::size_t persistent_bytes;  // params + param grads
  std::vector<int> prev_conv_step;  // per tape step
  // Per tape step: gradients whose arena buffer / backend tensor is
  // released after it.
  std::vector<std::vector<ValueId>> grad_arena_free_by_step;
  std::vector<std::vector<ValueId>> grad_backend_free_by_step;
  // Per tape step: in-place gradients (not their own alias root) first
  // written by it; they take their root's buffer.
  std::vector<std::vector<ValueId>> grad_alias_first_by_step;
  // Per forward node k: how many leading value ids a checkpoint at k holds.
  std::vector<std::size_t> fwd_prefix;
};

namespace {

/// Internal unwinding token for simulated out-of-memory; converted into a
/// RunResult by Runtime::run (OOM is an outcome, not an API error).
struct OomUnwind {
  std::string what;
};

/// A swap-out whose device buffer is reclaimable once its D2H copy ends.
struct SwapOutInFlight {
  double end = 0.0;
  mem::Offset offset = 0;
  ValueId value = -1;
};

struct ValueState {
  std::optional<mem::Offset> dev;
  double ready = 0.0;     // device availability time
  double d2h_end = -1.0;  // completion of the swap-out; <0 = none issued
  bool on_host = false;
  bool swapin_issued = false;
  bool consumed = false;  // its first backward need has been processed
  bool pinned = false;    // operand of the op being scheduled right now
  int fwd_remaining = 0;
};

struct IssuedPrefetch {
  ValueId value = -1;
  mem::Offset offset = 0;
  double h2d_start = 0.0;
  double prev_cursor = 0.0;  // h2d cursor before this issue (for rollback)
  std::size_t queue_index = 0;  // into BackwardPlan::swapin_order
};

struct AllocOutcome {
  mem::Offset offset = 0;
  double time = 0.0;      // when the allocation could be satisfied
  ValueId blame = -1;     // d2h completion that had to be waited for
};

/// Maximum of StepPlan::transient_bytes over a step range in O(1): a
/// sparse table whose level j holds the maximum of each 2^j-step window.
class TransientMax {
 public:
  void build(const std::vector<StepPlan>& steps) {
    n_ = steps.size();
    const std::size_t levels = std::bit_width(n_);
    table_.resize(levels * n_);
    for (std::size_t k = 0; k < n_; ++k) table_[k] = steps[k].transient_bytes;
    for (std::size_t j = 1; j < levels; ++j) {
      const std::size_t half = std::size_t{1} << (j - 1);
      const std::size_t* below = &table_[(j - 1) * n_];
      std::size_t* level = &table_[j * n_];
      for (std::size_t i = 0; i + 2 * half <= n_; ++i) {
        level[i] = std::max(below[i], below[i + half]);
      }
    }
  }

  /// Maximum over steps [lo, hi]; 0 when the range is empty.
  std::size_t max(int lo, int hi) const {
    if (lo > hi) return 0;
    const std::size_t a = static_cast<std::size_t>(lo);
    const std::size_t b = static_cast<std::size_t>(hi);
    const std::size_t j = std::bit_width(b - a + 1) - 1;
    const std::size_t* level = &table_[j * n_];
    return std::max(level[a], level[b + 1 - (std::size_t{1} << j)]);
  }

 private:
  std::size_t n_ = 0;
  std::vector<std::size_t> table_;
};

/// Simulation state reused across runs on one thread: each run re-fills
/// it (assign/clear keep the storage), so a planner thread allocates it
/// once instead of once per simulation.
struct RunScratch {
  BackwardPlan plan;
  TransientMax transients;
  std::vector<ValueState> states;
  std::vector<std::optional<mem::Offset>> grad_dev;
  std::vector<SwapOutInFlight> swapouts;  // in completion order
  std::vector<IssuedPrefetch> issued;
  std::vector<ValueId> pins;
  bool in_use = false;
};

}  // namespace

/// Everything the forward phase has written by the start of one node: the
/// arena, the host pool, the swap-outs still in flight, the states of the
/// values produced so far, the clocks, and the RunResult fields forward
/// writes.
struct ForwardCheckpoints::State {
  std::size_t node = 0;
  mem::Arena arena{0};
  mem::HostPool host{0};
  std::vector<SwapOutInFlight> swapouts;
  std::vector<ValueState> states;      // value ids [0, fwd_prefix[node])
  std::vector<double> stall_by_value;  // the same prefix
  std::vector<ValueId> unhidden_swapouts;
  double t_comp = 0.0;
  double t_d2h = 0.0;
  double compute_busy = 0.0;
  double compute_stall = 0.0;
  double d2h_busy = 0.0;
  double memory_stall = 0.0;
};

ForwardCheckpoints::ForwardCheckpoints(std::vector<NodeId> at)
    : at_(std::move(at)) {
  std::erase_if(at_, [](NodeId k) { return k < 0; });
  std::sort(at_.begin(), at_.end());
  at_.erase(std::unique(at_.begin(), at_.end()), at_.end());
}

namespace detail {

class Exec {
 public:
  Exec(const Graph& graph, const std::vector<BwdStep>& tape,
       const RuntimeTables& tables, const cost::MachineConfig& machine,
       const TimeModel& tm, const Classification& classes,
       const RunOptions& opts, RunScratch& scratch, bool describe_oom)
      : g_(graph),
        tape_(tape),
        tables_(tables),
        machine_(machine),
        tm_(tm),
        opts_(opts),
        plan_(scratch.plan),
        transients_(scratch.transients),
        arena_(0),
        host_(machine.host_capacity_bytes),
        swapouts_(scratch.swapouts),
        states_(scratch.states),
        grad_dev_(scratch.grad_dev),
        issued_(scratch.issued),
        pins_(scratch.pins),
        describe_oom_(describe_oom) {
    build_backward_plan(graph, tape, tables.plan, classes, plan_);
    result_.persistent_bytes = tables.persistent_bytes;
    std::size_t usable = machine_.usable_gpu_bytes();
    if (opts_.usable_bytes_override > 0) {
      usable = std::min(usable, opts_.usable_bytes_override);
    }
    if (result_.persistent_bytes >= usable) {
      throw OomUnwind{"persistent parameter pool (" +
                      format_bytes(result_.persistent_bytes) +
                      ") exceeds usable device memory (" +
                      format_bytes(usable) + ")"};
    }
    arena_ = mem::Arena(usable - result_.persistent_bytes);
    result_.arena_capacity = arena_.capacity();
    if (opts_.record_stream) {
      result_.stream.arena_capacity = result_.arena_capacity;
    }
    const std::size_t nv = static_cast<std::size_t>(g_.num_values());
    states_.assign(nv, ValueState{});
    grad_dev_.assign(nv, std::nullopt);
    result_.stall_by_value.assign(nv, 0.0);
    for (std::size_t v = 0; v < nv; ++v) {
      states_[v].fwd_remaining = plan_.fwd_consumers[v];
    }
    swapouts_.clear();
    issued_.clear();
    pins_.clear();
    result_.stream.iteration = opts_.iteration;
    if (opts_.swapin_policy == SwapInPolicy::kEagerMemoryAware) {
      transients_.build(plan_.steps);
    }
  }

  /// Simulate the iteration: from the latest checkpoint of `from` this
  /// run's forward decisions allow (or from op 0), saving forward states
  /// into `record` on the way.
  RunResult run(const ForwardCheckpoints* from, ForwardCheckpoints* record) {
    const ForwardCheckpoints::State* start =
        from ? resume_point(*from) : nullptr;
    if (start) {
      restore(*start);
      started_at_ = start->node;
    } else {
      place_graph_inputs();
    }
    if (record) begin_recording(*record, from, start);
    run_forward_phase();
    run_backward_phase();
    run_update();
    // Release the buffers of swap-outs no later allocation waited for,
    // so the arena's statistics cover the whole iteration.
    apply_frees_until(std::numeric_limits<double>::infinity());
    result_.ok = true;
    result_.iteration_time = t_comp_;
    bump("runtime.runs");
    finalize();
    return std::move(result_);
  }

  RunResult fail(std::string why) {
    result_.ok = false;
    result_.oom = true;
    result_.failure = std::move(why);
    bump("runtime.oom");
    result_.stream.ops.clear();  // only a completed schedule is recorded
    finalize();
    return std::move(result_);
  }

  /// The forward node the run started at (0 = op 0).
  std::size_t started_at() const { return started_at_; }

 private:
  // ---- forward checkpoints -------------------------------------------

  /// The latest checkpoint of `cp` this run may start from: one at a
  /// node no later than the first value whose lowered forward decisions
  /// differ from the recording run's, taken by a run of this Runtime on
  /// the same arena and placement rule.
  const ForwardCheckpoints::State* resume_point(
      const ForwardCheckpoints& cp) const {
    if (cp.saved_.empty() || cp.tables_ != &tables_ ||
        cp.arena_capacity_ != arena_.capacity() ||
        cp.naive_placement_ != opts_.naive_placement) {
      return nullptr;
    }
    NodeId first_diff = g_.num_nodes();
    for (std::size_t v = 0; v < plan_.swap_out.size(); ++v) {
      if (plan_.swap_out[v] != cp.swap_out_[v] ||
          plan_.discard[v] != cp.discard_[v]) {
        // A graph input (producer kNoNode = -1) is placed before node 0.
        first_diff = std::min(
            first_diff, g_.value(static_cast<ValueId>(v)).producer);
      }
    }
    const ForwardCheckpoints::State* best = nullptr;
    for (const auto& state : cp.saved_) {
      if (static_cast<NodeId>(state->node) > first_diff) break;
      best = state.get();
    }
    return best;
  }

  void restore(const ForwardCheckpoints::State& s) {
    arena_ = s.arena;
    host_ = s.host;
    swapouts_ = s.swapouts;
    swapouts_head_ = 0;
    std::copy(s.states.begin(), s.states.end(), states_.begin());
    std::copy(s.stall_by_value.begin(), s.stall_by_value.end(),
              result_.stall_by_value.begin());
    result_.unhidden_swapouts = s.unhidden_swapouts;
    t_comp_ = s.t_comp;
    t_d2h_ = s.t_d2h;
    result_.compute_busy = s.compute_busy;
    result_.compute_stall = s.compute_stall;
    result_.d2h_busy = s.d2h_busy;
    result_.memory_stall = s.memory_stall;
  }

  /// Make `record` this run's checkpoint set. A resumed run inherits the
  /// source's checkpoints up to its start — its own states there are the
  /// same — and takes its own at the later nodes of `record`.
  void begin_recording(ForwardCheckpoints& record,
                       const ForwardCheckpoints* from,
                       const ForwardCheckpoints::State* start) {
    record.recorded_ = true;
    record.tables_ = &tables_;
    record.swap_out_ = plan_.swap_out;
    record.discard_ = plan_.discard;
    record.arena_capacity_ = arena_.capacity();
    record.naive_placement_ = opts_.naive_placement;
    record.saved_.clear();
    if (start) {
      for (const auto& state : from->saved_) {
        if (state->node > started_at_) break;
        record.saved_.push_back(state);
      }
    }
    record_ = &record;
    const NodeId after = start ? static_cast<NodeId>(started_at_) + 1 : 0;
    next_record_ = static_cast<std::size_t>(
        std::lower_bound(record.at_.begin(), record.at_.end(), after) -
        record.at_.begin());
  }

  /// Save the state at the start of forward node k.
  void save(std::size_t k) {
    auto s = std::make_shared<ForwardCheckpoints::State>();
    s->node = k;
    s->arena = arena_;
    s->host = host_;
    s->swapouts.assign(
        swapouts_.begin() + static_cast<std::ptrdiff_t>(swapouts_head_),
        swapouts_.end());
    const auto prefix = static_cast<std::ptrdiff_t>(tables_.fwd_prefix[k]);
    s->states.assign(states_.begin(), states_.begin() + prefix);
    s->stall_by_value.assign(result_.stall_by_value.begin(),
                             result_.stall_by_value.begin() + prefix);
    s->unhidden_swapouts = result_.unhidden_swapouts;
    s->t_comp = t_comp_;
    s->t_d2h = t_d2h_;
    s->compute_busy = result_.compute_busy;
    s->compute_stall = result_.compute_stall;
    s->d2h_busy = result_.d2h_busy;
    s->memory_stall = result_.memory_stall;
    record_->saved_.push_back(std::move(s));
  }

  // ---- bookkeeping -------------------------------------------------

  ValueState& st(ValueId v) { return states_[static_cast<std::size_t>(v)]; }
  std::size_t vbytes(ValueId v) const {
    return tables_.plan.value_bytes[static_cast<std::size_t>(v)];
  }
  std::size_t workspace(NodeId n) const {
    return tables_.plan.workspace_bytes[static_cast<std::size_t>(n)];
  }

  // ---- recording -----------------------------------------------------
  //
  // Every op the schedule implies goes through record() (timed work) or
  // record_bookkeeping() (begin-iteration and frees), in program order.
  // The accounting always runs; the op joins the stream only when the
  // run records it (see exec/op_stream.hpp).

  /// Account one timed op — busy time on its lane, the stall it
  /// inflicted on the compute lane and the value blamed for it — and
  /// append it to the stream when recording. A swap's byte count is
  /// filled in here.
  void record(StreamOp op) {
    const double dur = op.sim_end - op.sim_start;
    switch (exec::lane_of(op.type)) {
      case exec::kComputeLane:
        result_.compute_busy += dur;
        result_.compute_stall += op.stall;
        break;
      case exec::kD2HLane:
        result_.d2h_busy += dur;
        bump("runtime.swapouts");
        observe("runtime.transfer_seconds", dur);
        break;
      case exec::kH2DLane:
        result_.h2d_busy += dur;
        bump("runtime.swapins");
        observe("runtime.transfer_seconds", dur);
        break;
    }
    if (op.type == OpType::kRecompute) bump("runtime.recomputes");
    if (op.stall > 0.0) {
      observe("runtime.stall_seconds", op.stall);
      const ValueId blame = op.stall_value;
      if (op.stall_cause == StallCause::kSwapInWait && blame >= 0) {
        result_.swapin_stall += op.stall;
        result_.stall_by_value[static_cast<std::size_t>(blame)] += op.stall;
        mark_unhidden(result_.unhidden_swapins, blame);
      } else if (op.stall_cause == StallCause::kMemoryWait && blame >= 0) {
        result_.memory_stall += op.stall;
        result_.stall_by_value[static_cast<std::size_t>(blame)] += op.stall;
        mark_unhidden(result_.unhidden_swapouts, blame);
      }
    }
    if (!opts_.record_stream) return;
    if (exec::lane_of(op.type) != exec::kComputeLane) {
      op.bytes = vbytes(op.value);
    }
    result_.stream.ops.push_back(op);
  }

  /// Append a zero-duration bookkeeping op at time t when recording.
  void record_bookkeeping(OpType type, ValueId v, double t,
                          bool releases_host = false) {
    if (!opts_.record_stream) return;
    result_.stream.ops.push_back(StreamOp{
        .type = type,
        .value = v,
        .bytes = releases_host ? vbytes(v) : 0,
        .releases_host = releases_host,
        .sim_start = t,
        .sim_end = t});
  }

  exec::Placement placement(ValueId v, mem::Offset off, bool grad) const {
    return {.value = v, .grad = grad, .offset = off, .bytes = vbytes(v)};
  }

  /// The placement of v's feature map at `off`, for the op that
  /// allocates it; nothing when the run does not record.
  std::vector<exec::Placement> placed(ValueId v, mem::Offset off) const {
    if (!opts_.record_stream) return {};
    return {placement(v, off, false)};
  }

  static void mark_unhidden(std::vector<ValueId>& set, ValueId v) {
    if (std::find(set.begin(), set.end(), v) == set.end()) set.push_back(v);
  }

  // ---- metrics -----------------------------------------------------

  void bump(const char* name, std::uint64_t n = 1) {
    if (opts_.stats) opts_.stats->counter(name).add(n);
  }
  void set_gauge(const char* name, double v) {
    if (opts_.stats) opts_.stats->gauge(name).set(v);
  }
  void observe(const char* name, double v) {
    if (opts_.stats) opts_.stats->histogram(name).add(v);
  }

  int trigger_step_for(int need_step) const {
    switch (opts_.swapin_policy) {
      case SwapInPolicy::kOnDemand:
        return need_step;
      case SwapInPolicy::kLookahead1:
        return std::max(0, need_step - 1);
      case SwapInPolicy::kLookaheadPrevConv:
        return tables_.prev_conv_step[static_cast<std::size_t>(need_step)];
      case SwapInPolicy::kEagerMemoryAware:
        return 0;  // eligible immediately; gated by free memory instead
    }
    return need_step;
  }

  // ---- memory ------------------------------------------------------
  //
  // A buffer freed at the compute cursor (a discard, a workspace, a last
  // use, a gradient) goes straight back to the arena: the free is stamped
  // with the end of the op just recorded, which is the new cursor, and
  // every later request is made at or after it. Only a swapped-out
  // buffer waits, until its D2H copy ends; the D2H lane runs one copy at
  // a time, so those completions queue in time order.

  /// Release the buffers of the swap-outs completed by time t.
  void apply_frees_until(double t) {
    while (swapouts_head_ < swapouts_.size() &&
           swapouts_[swapouts_head_].end <= t) {
      arena_.free(swapouts_[swapouts_head_++].offset);
    }
  }

  /// Allocate, advancing virtual time through in-flight swap-outs if
  /// needed. Tries to cancel not-yet-started prefetches before giving up.
  AllocOutcome blocking_alloc(std::size_t bytes, double t_req,
                              const char* what,
                              mem::AllocSide side = mem::AllocSide::kBottom) {
    if (opts_.naive_placement) side = mem::AllocSide::kBottom;
    AllocOutcome out;
    out.time = t_req;
    apply_frees_until(t_req);
    for (;;) {
      if (auto off = arena_.allocate(bytes, side)) {
        out.offset = *off;
        return out;
      }
      if (swapouts_head_ < swapouts_.size()) {
        const SwapOutInFlight& next = swapouts_[swapouts_head_++];
        arena_.free(next.offset);
        out.time = std::max(out.time, next.end);
        out.blame = next.value;
        continue;
      }
      // Rescue chain: revoke or drop clean pages before giving up. (The
      // blind-prefetch baseline fails earlier — at issue time — but its
      // allocator still reclaims clean pages like everyone else's.)
      if (cancel_latest_prefetch(out.time)) continue;
      if (evict_completed_prefetch(out.time)) continue;
      if (evict_clean_resident(out.time)) continue;
      if (wait_and_evict_inflight_prefetch(out.time)) continue;
      if (!describe_oom_) throw OomUnwind{};
      std::ostringstream os;
      os << "device OOM allocating " << format_bytes(bytes) << " for " << what
         << " at t=" << format_time(out.time) << "\n"
         << arena_.debug_string() << resident_values_string();
      throw OomUnwind{os.str()};
    }
  }

  /// Resident feature maps and gradients, largest first (OOM forensics).
  std::string resident_values_string() const {
    std::vector<std::pair<std::size_t, std::string>> rows;
    for (ValueId v = 0; v < g_.num_values(); ++v) {
      const auto& s = states_[static_cast<std::size_t>(v)];
      if (s.dev.has_value()) {
        std::string tags;
        if (s.on_host) tags += " host";
        if (s.pinned) tags += " pinned";
        if (s.swapin_issued) tags += " swapin";
        if (s.consumed) tags += " consumed";
        rows.emplace_back(vbytes(v), "  v" + std::to_string(v) + " '" +
                                         g_.value(v).name + "'" + tags);
      }
      if (grad_dev_[static_cast<std::size_t>(v)].has_value()) {
        rows.emplace_back(vbytes(v), "  grad v" + std::to_string(v) + " '" +
                                         g_.value(v).name + "'");
      }
    }
    std::sort(rows.rbegin(), rows.rend());
    std::ostringstream os;
    os << "resident buffers (" << rows.size() << "):\n";
    for (std::size_t i = 0; i < rows.size() && i < 30; ++i) {
      os << rows[i].second << " " << format_bytes(rows[i].first) << "\n";
    }
    return os.str();
  }

  /// Non-waiting allocation attempt at time t.
  std::optional<mem::Offset> try_alloc_now(
      std::size_t bytes, double t,
      mem::AllocSide side = mem::AllocSide::kBottom) {
    if (opts_.naive_placement) side = mem::AllocSide::kBottom;
    apply_frees_until(t);
    return arena_.allocate(bytes, side);
  }

  /// Placement of a feature-map buffer: values that persist into the
  /// backward phase anchor at the bottom; everything transient (swapped
  /// maps awaiting D2H, discards, swap-in buffers, recompute outputs)
  /// churns at the top alongside gradients and workspace.
  mem::AllocSide value_side(ValueId v) const {
    const std::size_t vi = static_cast<std::size_t>(v);
    return (plan_.swap_out[vi] || plan_.discard[vi]) ? mem::AllocSide::kTop
                                                     : mem::AllocSide::kBottom;
  }

  /// True when an issued_ record still describes the value's actual
  /// buffer (clean-page eviction can invalidate records in place).
  bool prefetch_record_valid(const IssuedPrefetch& p) {
    const ValueState& s = st(p.value);
    return s.swapin_issued && s.dev.has_value() && *s.dev == p.offset;
  }

  /// A cancelled prefetch never ran its DMA: take it back out of the
  /// H2D busy sum and, when recorded, out of the stream, or the H2D lane
  /// would show two transfers over the same interval after the cursor
  /// rollback. The duration comes from the H2D cursor (this prefetch is
  /// the lane's latest issue, so the cursor sits at its end) — never from
  /// re-querying the time model, whose noisy profiling variant draws
  /// fresh jitter per call.
  void unrecord_swapin(const IssuedPrefetch& p) {
    result_.h2d_busy -= t_h2d_ - p.h2d_start;
    if (!opts_.record_stream) return;
    auto& ops = result_.stream.ops;
    for (auto it = ops.rbegin(); it != ops.rend(); ++it) {
      if (it->type == OpType::kSwapIn && it->value == p.value) {
        ops.erase(std::next(it).base());
        return;
      }
    }
  }

  /// Pop the latest issue records that are already needed or stale.
  void pop_dead_prefetches() {
    while (!issued_.empty() && (st(issued_.back().value).consumed ||
                                !prefetch_record_valid(issued_.back()))) {
      issued_.pop_back();
    }
  }

  /// Drop v's device copy, a clean page (its host copy is intact), at
  /// `now`; a later use re-fetches it.
  void drop_clean_page(ValueId v, double now, const char* counter) {
    ValueState& s = st(v);
    arena_.free(*s.dev);
    s.dev.reset();
    s.swapin_issued = false;
    s.ready = 0.0;
    record_bookkeeping(OpType::kFreeValue, v, now);
    bump(counter);
  }

  bool cancel_latest_prefetch(double now) {
    pop_dead_prefetches();
    if (issued_.empty()) return false;
    const IssuedPrefetch p = issued_.back();
    if (p.h2d_start <= now) return false;  // DMA already in flight
    issued_.pop_back();
    arena_.free(p.offset);
    unrecord_swapin(p);  // before the cursor rollback: needs p's end time
    t_h2d_ = p.prev_cursor;
    ValueState& s = st(p.value);
    s.swapin_issued = false;
    s.dev.reset();
    s.ready = 0.0;
    next_q_ = std::min(next_q_, p.queue_index);
    bump("runtime.rescue.cancel_prefetch");
    return true;
  }

  /// Last resort under memory pressure: drop a prefetched value whose
  /// transfer already completed but that no backward step has consumed
  /// yet. The host copy is intact (it is a clean page), so the value is
  /// simply re-fetched later; the wasted transfer time is real and stays
  /// on the timeline. Evict the latest-needed one first.
  bool evict_completed_prefetch(double now) {
    pop_dead_prefetches();
    for (auto it = issued_.rbegin(); it != issued_.rend(); ++it) {
      const ValueState& s = st(it->value);
      if (s.consumed || !prefetch_record_valid(*it) || s.ready > now) {
        continue;  // already needed, stale, or DMA still active
      }
      drop_clean_page(it->value, now,
                      "runtime.rescue.evict_completed_prefetch");
      next_q_ = std::min(next_q_, it->queue_index);
      issued_.erase(std::next(it).base());
      return true;
    }
    return false;
  }

  /// When every other rescue fails but a prefetch DMA is still in
  /// flight, stall until it lands and drop the page (its host copy is
  /// intact). The waited time is honest: the allocation simply could not
  /// proceed sooner.
  bool wait_and_evict_inflight_prefetch(double& now) {
    ValueId best = -1;
    double earliest = 0.0;
    for (ValueId v = 0; v < g_.num_values(); ++v) {
      const ValueState& s = states_[static_cast<std::size_t>(v)];
      if (!s.dev.has_value() || !s.on_host || s.pinned || s.consumed) {
        continue;
      }
      if (s.ready <= now) continue;  // evict_clean_resident handles these
      if (best < 0 || s.ready < earliest) {
        best = v;
        earliest = s.ready;
      }
    }
    if (best < 0) return false;
    now = std::max(now, earliest);
    drop_clean_page(best, now, "runtime.rescue.wait_inflight_prefetch");
    return true;
  }

  /// Defragmentation of last resort: drop the largest resident *clean*
  /// buffer — a swapped value whose host copy is intact — unless it is
  /// pinned by the op being scheduled. Every later use re-fetches it
  /// through require_now(), so correctness is unaffected; the extra
  /// transfer is honest, scheduled when the use arrives.
  bool evict_clean_resident(double now) {
    ValueId best = -1;
    std::size_t best_bytes = 0;
    for (ValueId v = 0; v < g_.num_values(); ++v) {
      const ValueState& s = states_[static_cast<std::size_t>(v)];
      if (!s.dev.has_value() || !s.on_host || s.pinned) continue;
      if (s.ready > now) continue;  // H2D still in flight
      if (vbytes(v) > best_bytes) {
        best_bytes = vbytes(v);
        best = v;
      }
    }
    if (best < 0) return false;
    drop_clean_page(best, now, "runtime.rescue.evict_clean_resident");
    return true;
  }

  // ---- swap transfers ------------------------------------------------

  void issue_swap_out(ValueId v, double after) {
    ValueState& s = st(v);
    POOCH_CHECK(s.dev.has_value());
    if (!host_.reserve(vbytes(v))) {
      throw OomUnwind{"host memory exhausted swapping out v" +
                      std::to_string(v)};
    }
    const double start = std::max(t_d2h_, after);
    const double end = start + tm_.d2h_time(v);
    t_d2h_ = end;
    s.d2h_end = end;
    s.on_host = true;
    record({.type = OpType::kSwapOut,
            .value = v,
            .sim_start = start,
            .sim_end = end});
    // The device buffer is reclaimable only once the copy has finished.
    POOCH_CHECK(swapouts_.empty() || swapouts_.back().end <= end);
    swapouts_.push_back(SwapOutInFlight{end, *s.dev, v});
    s.dev.reset();
  }

  /// Issue the H2D for v. `blocking` allocs may advance virtual time;
  /// non-blocking failures return false.
  bool issue_swap_in(ValueId v, double t, bool blocking,
                     std::size_t queue_index) {
    ValueState& s = st(v);
    POOCH_CHECK(s.on_host && !s.swapin_issued);
    double t_alloc = t;
    mem::Offset off;
    if (blocking) {
      AllocOutcome a = blocking_alloc(vbytes(v), t, "swap-in buffer",
                                      mem::AllocSide::kTop);
      off = a.offset;
      t_alloc = a.time;
      if (a.blame >= 0 && a.time > t) {
        result_.memory_stall += a.time - t;
        mark_unhidden(result_.unhidden_swapouts, a.blame);
      }
    } else {
      auto maybe = try_alloc_now(vbytes(v), t, mem::AllocSide::kTop);
      if (!maybe) return false;
      off = *maybe;
    }
    const double prev_cursor = t_h2d_;
    const double start = std::max({t_h2d_, t_alloc, s.d2h_end});
    const double end = start + tm_.h2d_time(v);
    t_h2d_ = end;
    s.dev = off;
    s.ready = end;
    s.swapin_issued = true;
    record({.type = OpType::kSwapIn,
            .value = v,
            .sim_start = start,
            .sim_end = end,
            .places = placed(v, off)});
    if (!blocking) {
      issued_.push_back(IssuedPrefetch{v, off, start, prev_cursor,
                                       queue_index});
    }
    return true;
  }

  /// Issue queued swap-ins whose trigger has arrived (or, for the eager
  /// policy, for which there is memory headroom).
  void prefetch_tick(int step, double t) {
    const bool eager = opts_.swapin_policy == SwapInPolicy::kEagerMemoryAware;
    while (next_q_ < plan_.swapin_order.size()) {
      const SwapInNeed& e = plan_.swapin_order[next_q_];
      ValueState& s = st(e.value);
      // Skip entries that no longer need a transfer: already issued or
      // resident, or (after a queue rewind past a clean-page eviction)
      // already past their last use and freed entirely.
      if (s.swapin_issued || s.dev.has_value() || !s.on_host) {
        ++next_q_;
        continue;
      }
      if (trigger_step_for(e.step) > step) break;
      if (eager) {
        // §4.3: issue only "when there is room in the GPU memory" — room
        // meaning the buffer plus the near-future transient needs.
        if (s.d2h_end > t) break;  // still being copied out
        apply_frees_until(t);
        const std::size_t headroom = static_cast<std::size_t>(
            static_cast<double>(upcoming_transients(step, e.step)) *
            opts_.headroom_factor);
        if (arena_.free_bytes() < vbytes(e.value) + headroom) {
          bump("runtime.prefetch.headroom_blocked");
          break;
        }
        if (!issue_swap_in(e.value, t, /*blocking=*/false, next_q_)) {
          break;
        }
      } else {
        if (!issue_swap_in(e.value, t, /*blocking=*/false, next_q_)) {
          if (opts_.oom_on_prefetch_failure) {
            std::ostringstream os;
            os << "prefetch OOM: swap-in of v" << e.value << " ("
               << format_bytes(vbytes(e.value))
               << ") scheduled without memory headroom at backward step "
               << step << "\n"
               << arena_.debug_string();
            throw OomUnwind{os.str()};
          }
          break;  // retry at the next opportunity
        }
      }
      ++next_q_;
    }
  }

  /// Largest per-step transient requirement between now and the step
  /// that will consume a prospective prefetch: the prefetched buffer has
  /// to coexist with each of them.
  std::size_t upcoming_transients(int step, int need_step) const {
    return transients_.max(
        step, std::min(need_step, static_cast<int>(plan_.steps.size()) - 1));
  }

  // ---- forward phase -------------------------------------------------

  void place_graph_inputs() {
    const std::size_t begin = result_.stream.ops.size();
    record_bookkeeping(OpType::kBeginIteration, -1, 0.0);
    for (ValueId in : g_.inputs()) {
      AllocOutcome a =
          blocking_alloc(vbytes(in), 0.0, "graph input", value_side(in));
      if (opts_.record_stream) {
        result_.stream.ops[begin].places.push_back(
            placement(in, a.offset, false));
      }
      st(in).dev = a.offset;
      st(in).ready = 0.0;
      if (st(in).fwd_remaining == 0) finish_forward_use(in, 0.0);
    }
  }

  void finish_forward_use(ValueId v, double t) {
    const std::size_t vi = static_cast<std::size_t>(v);
    ValueState& s = st(v);
    if (!s.dev.has_value()) return;
    if (plan_.discard[vi]) {
      arena_.free(*s.dev);
      s.dev.reset();
      record_bookkeeping(OpType::kFreeValue, v, t);
      return;
    }
    if (plan_.swap_out[vi]) {
      issue_swap_out(v, t);
      return;
    }
    // keep: stays resident; freed after its last backward use.
  }

  void run_forward_phase() {
    const auto& nodes = g_.nodes();
    for (std::size_t k = started_at_; k < nodes.size(); ++k) {
      if (record_ && next_record_ < record_->at_.size() &&
          static_cast<std::size_t>(record_->at_[next_record_]) == k) {
        save(k);
        ++next_record_;
      }
      const auto& node = nodes[k];
      const ValueId out = node.output;
      AllocOutcome a_out = blocking_alloc(vbytes(out), t_comp_,
                                          g_.node(node.id).name.c_str(),
                                          value_side(out));
      double t_alloc = a_out.time;
      ValueId mem_blame = a_out.blame;
      const std::size_t ws = workspace(node.id);
      std::optional<mem::Offset> ws_off;
      if (ws > 0) {
        AllocOutcome a_ws = blocking_alloc(ws, t_alloc, "conv workspace",
                                           mem::AllocSide::kTop);
        ws_off = a_ws.offset;
        t_alloc = std::max(t_alloc, a_ws.time);
        if (a_ws.blame >= 0) mem_blame = a_ws.blame;
      }
      double dep = 0.0;
      for (ValueId in : node.inputs) dep = std::max(dep, st(in).ready);
      const double start = std::max({t_comp_, t_alloc, dep});
      const double stall = start - t_comp_;
      StallCause cause = StallCause::kNone;
      ValueId blame = -1;
      if (stall > 0.0 && t_alloc >= dep && mem_blame >= 0) {
        cause = StallCause::kMemoryWait;
        blame = mem_blame;
      }
      const double end = start + tm_.forward_time(node.id);
      record({.type = OpType::kForward,
              .node = node.id,
              .value = out,
              .sim_start = start,
              .sim_end = end,
              .stall = stall,
              .stall_cause = cause,
              .stall_value = blame,
              .places = placed(out, a_out.offset)});
      st(out).dev = a_out.offset;
      st(out).ready = end;
      if (ws_off) arena_.free(*ws_off);
      t_comp_ = end;
      for (ValueId in : node.inputs) {
        if (--st(in).fwd_remaining == 0) finish_forward_use(in, end);
      }
      if (st(out).fwd_remaining == 0) finish_forward_use(out, end);
    }
    result_.forward_time = t_comp_;
    // Swap-outs still in flight when forward compute finished are, by the
    // paper's Figure-11 definition, not hidden by computation.
    for (ValueId v = 0; v < g_.num_values(); ++v) {
      if (st(v).d2h_end > t_comp_) {
        mark_unhidden(result_.unhidden_swapouts, v);
      }
    }
  }

  // ---- backward phase --------------------------------------------------

  /// Bring v on device for a compute op at step `k`; returns availability
  /// time. On-demand swap-ins are blocking.
  double require_now(ValueId v, double t) {
    ValueState& s = st(v);
    s.consumed = true;
    if (!s.pinned) {
      s.pinned = true;
      pins_.push_back(v);
    }
    if (s.dev.has_value()) return s.ready;
    POOCH_CHECK_MSG(s.on_host && !s.swapin_issued,
                    "value v" << v << " needed but neither resident nor "
                              << "swappable (classification bug)");
    issue_swap_in(v, t, /*blocking=*/true, 0);
    return s.ready;
  }

  void clear_pins() {
    for (ValueId v : pins_) st(v).pinned = false;
    pins_.clear();
  }

  struct Stall {
    double seconds = 0.0;
    StallCause cause = StallCause::kNone;
    ValueId value = -1;
  };

  /// The stall of a backward-phase compute op (a recompute or a backward
  /// kernel) that starts at `start`: its latest input, when a swap-in
  /// and no earlier than its memory; else the swap-out its memory waited
  /// for; else its inputs.
  Stall backward_stall(double start, double dep, ValueId dep_blame,
                       double t_alloc, ValueId mem_blame) {
    Stall s{.seconds = start - t_comp_};
    if (s.seconds <= 0.0) return s;
    if (dep >= t_alloc && dep_blame >= 0 && st(dep_blame).swapin_issued) {
      s.cause = StallCause::kSwapInWait;
      s.value = dep_blame;
    } else if (mem_blame >= 0) {
      s.cause = StallCause::kMemoryWait;
      s.value = mem_blame;
    } else {
      s.cause = StallCause::kDependency;
    }
    return s;
  }

  void run_recompute(const PrepOp& op) {
    const auto& node = g_.node(op.node);
    const ValueId out = op.value;
    // Sources were materialized by earlier preps of this (or a prior)
    // step; mark their use and gather readiness.
    double dep = 0.0;
    ValueId dep_blame = -1;
    for (ValueId in : node.inputs) {
      const double r = require_now(in, t_comp_);
      if (r > dep) {
        dep = r;
        dep_blame = in;
      }
    }
    AllocOutcome a_out = blocking_alloc(vbytes(out), t_comp_, "recompute out",
                                        mem::AllocSide::kTop);
    double t_alloc = a_out.time;
    ValueId mem_blame = a_out.blame;
    const std::size_t ws = workspace(node.id);
    std::optional<mem::Offset> ws_off;
    if (ws > 0) {
      AllocOutcome a_ws = blocking_alloc(ws, t_alloc, "recompute workspace",
                                         mem::AllocSide::kTop);
      ws_off = a_ws.offset;
      t_alloc = std::max(t_alloc, a_ws.time);
      if (a_ws.blame >= 0) mem_blame = a_ws.blame;
    }
    const double start = std::max({t_comp_, t_alloc, dep});
    const Stall stall =
        backward_stall(start, dep, dep_blame, t_alloc, mem_blame);
    const double dur = tm_.forward_time(node.id);
    const double end = start + dur;
    result_.recompute_seconds += dur;
    record({.type = OpType::kRecompute,
            .node = node.id,
            .value = node.output,
            .sim_start = start,
            .sim_end = end,
            .stall = stall.seconds,
            .stall_cause = stall.cause,
            .stall_value = stall.value,
            .places = placed(out, a_out.offset)});
    if (ws_off) arena_.free(*ws_off);
    ValueState& s = st(out);
    s.dev = a_out.offset;
    s.ready = end;
    s.consumed = true;
    t_comp_ = end;
    clear_pins();
  }

  void run_backward_phase() {
    for (std::size_t k = 0; k < tape_.size(); ++k) {
      const int step = static_cast<int>(k);
      const BwdStep& bstep = tape_[k];
      const StepPlan& splan = plan_.steps[k];
      prefetch_tick(step, t_comp_);

      // Prep ops (swap-ins issued on demand if the prefetcher has not
      // covered them; recompute chains re-run on the compute stream).
      for (const PrepOp& op : splan.preps) {
        if (op.kind == PrepOp::Kind::kSwapIn) {
          ValueState& s = st(op.value);
          s.consumed = true;
          if (!s.swapin_issued && !s.dev.has_value()) {
            issue_swap_in(op.value, t_comp_, /*blocking=*/true, 0);
          }
        } else {
          run_recompute(op);
        }
      }

      // Gradient buffers first written by this step.
      double t_alloc = t_comp_;
      ValueId mem_blame = -1;
      // Gradients interleave stack-like with the shrinking keep prefix,
      // so they pack best at the bottom.
      for (ValueId v : splan.grad_allocs) {
        AllocOutcome a = blocking_alloc(vbytes(v), t_alloc, "gradient",
                                        mem::AllocSide::kBottom);
        grad_dev_[static_cast<std::size_t>(v)] = a.offset;
        t_alloc = std::max(t_alloc, a.time);
        if (a.blame >= 0) mem_blame = a.blame;
      }
      // Backward workspace: conv uses two column buffers, allocated
      // separately (they need not be contiguous).
      const std::size_t ws = workspace(bstep.node);
      std::optional<mem::Offset> ws_off, ws2_off;
      if (ws > 0) {
        AllocOutcome a = blocking_alloc(ws, t_alloc, "backward workspace",
                                        mem::AllocSide::kTop);
        ws_off = a.offset;
        t_alloc = std::max(t_alloc, a.time);
        if (a.blame >= 0) mem_blame = a.blame;
        AllocOutcome a2 = blocking_alloc(ws, t_alloc, "backward workspace",
                                         mem::AllocSide::kTop);
        ws2_off = a2.offset;
        t_alloc = std::max(t_alloc, a2.time);
        if (a2.blame >= 0) mem_blame = a2.blame;
      }

      // Stored feature maps this backward kernel reads.
      double dep = 0.0;
      ValueId dep_blame = -1;
      for (ValueId v : bstep.needed) {
        const double r = require_now(v, t_comp_);
        if (r > dep) {
          dep = r;
          dep_blame = v;
        }
      }

      const double start = std::max({t_comp_, t_alloc, dep});
      const Stall stall =
          backward_stall(start, dep, dep_blame, t_alloc, mem_blame);
      const double end = start + tm_.backward_time(bstep.node);
      record({.type = OpType::kBackward,
              .node = bstep.node,
              .sim_start = start,
              .sim_end = end,
              .stall = stall.seconds,
              .stall_cause = stall.cause,
              .stall_value = stall.value,
              .places = grad_placements(k)});
      t_comp_ = end;
      clear_pins();

      if (ws_off) arena_.free(*ws_off);
      if (ws2_off) arena_.free(*ws2_off);

      // Free feature maps whose last backward use was this step.
      for (ValueId v : splan.frees) {
        ValueState& s = st(v);
        record_bookkeeping(OpType::kFreeValue, v, end,
                           /*releases_host=*/s.on_host);
        if (s.dev.has_value()) {
          arena_.free(*s.dev);
          s.dev.reset();
        }
        if (s.on_host) {
          host_.release(vbytes(v));
          s.on_host = false;
        }
      }
      // Free gradient buffers whose last aliased consumer was this step.
      for (ValueId v : tables_.grad_arena_free_by_step[k]) {
        auto& go = grad_dev_[static_cast<std::size_t>(v)];
        if (go.has_value()) {
          arena_.free(*go);
          go.reset();
        }
      }
      for (ValueId v : tables_.grad_backend_free_by_step[k]) {
        record_bookkeeping(OpType::kFreeGrad, v, end);
      }
    }
  }

  /// The gradients backward step k writes first: the buffers it
  /// allocated, then the in-place gradients sharing their root's buffer.
  std::vector<exec::Placement> grad_placements(std::size_t k) const {
    std::vector<exec::Placement> places;
    if (!opts_.record_stream) return places;
    for (ValueId v : plan_.steps[k].grad_allocs) {
      places.push_back(
          placement(v, *grad_dev_[static_cast<std::size_t>(v)], true));
    }
    for (ValueId v : tables_.grad_alias_first_by_step[k]) {
      const auto& root = grad_dev_[static_cast<std::size_t>(
          plan_.grad_root[static_cast<std::size_t>(v)])];
      POOCH_CHECK_MSG(root.has_value(),
                      "in-place gradient of v" << v << " before its root");
      places.push_back(placement(v, *root, true));
    }
    return places;
  }

  void run_update() {
    const double start = t_comp_;
    const double end = start + tm_.update_time();
    record({.type = OpType::kUpdate, .sim_start = start, .sim_end = end});
    t_comp_ = end;
  }

  void finalize() {
    result_.peak_arena_bytes = arena_.stats().peak_in_use;
    result_.peak_bytes = result_.peak_arena_bytes + result_.persistent_bytes;
    result_.peak_host_bytes = host_.peak_in_use();
    result_.swapped_bytes = plan_.swap_bytes;
    result_.recomputed_bytes = plan_.recompute_bytes;
    std::sort(result_.unhidden_swapouts.begin(),
              result_.unhidden_swapouts.end());
    std::sort(result_.unhidden_swapins.begin(),
              result_.unhidden_swapins.end());
    if (!opts_.stats) return;
    set_gauge("runtime.last.iteration_seconds", result_.iteration_time);
    set_gauge("runtime.last.forward_seconds", result_.forward_time);
    set_gauge("runtime.last.compute_busy_seconds", result_.compute_busy);
    set_gauge("runtime.last.d2h_busy_seconds", result_.d2h_busy);
    set_gauge("runtime.last.h2d_busy_seconds", result_.h2d_busy);
    set_gauge("runtime.last.compute_stall_seconds", result_.compute_stall);
    set_gauge("runtime.last.swapin_stall_seconds", result_.swapin_stall);
    set_gauge("runtime.last.memory_stall_seconds", result_.memory_stall);
    set_gauge("runtime.last.recompute_seconds", result_.recompute_seconds);
    const mem::ArenaStats& a = arena_.stats();
    bump("arena.allocs", a.alloc_count);
    bump("arena.frees", a.free_count);
    bump("arena.failed_allocs", a.failed_allocs);
    bump("arena.splits", a.split_count);
    bump("arena.coalesces", a.coalesce_count);
    set_gauge("arena.last.peak_bytes",
              static_cast<double>(a.peak_in_use));
    set_gauge("arena.last.fragmentation", a.fragmentation());
    set_gauge("host.last.peak_bytes",
              static_cast<double>(host_.peak_in_use()));
  }

  // ---- state ---------------------------------------------------------

  const Graph& g_;
  const std::vector<BwdStep>& tape_;
  const RuntimeTables& tables_;
  const cost::MachineConfig& machine_;
  const TimeModel& tm_;
  const RunOptions& opts_;

  // Re-filled per run; the storage belongs to the thread's RunScratch.
  BackwardPlan& plan_;
  TransientMax& transients_;

  mem::Arena arena_;
  mem::HostPool host_;
  std::vector<SwapOutInFlight>& swapouts_;
  std::size_t swapouts_head_ = 0;  // first one not yet released

  std::vector<ValueState>& states_;
  std::vector<std::optional<mem::Offset>>& grad_dev_;
  std::size_t next_q_ = 0;  // into plan_.swapin_order
  std::vector<IssuedPrefetch>& issued_;
  std::vector<ValueId>& pins_;

  double t_comp_ = 0.0;
  double t_d2h_ = 0.0;
  double t_h2d_ = 0.0;

  const bool describe_oom_;
  std::size_t started_at_ = 0;
  ForwardCheckpoints* record_ = nullptr;
  std::size_t next_record_ = 0;  // index into record_->at_

  RunResult result_;
};

}  // namespace detail

Runtime::Runtime(const Graph& graph, const std::vector<BwdStep>& tape,
                 const cost::MachineConfig& machine,
                 const TimeModel& time_model)
    : graph_(graph), tape_(tape), machine_(machine), time_model_(time_model) {
  POOCH_CHECK_MSG(static_cast<int>(tape.size()) == graph.num_nodes(),
                  "tape does not match graph");
  tables_ = std::make_shared<const RuntimeTables>(graph, tape);
}

RunResult Runtime::run(const Classification& classes,
                       const RunOptions& options) const {
  Resume none;
  return run_exec(classes, options, nullptr, none);
}

RunResult Runtime::run(const Classification& classes,
                       const RunOptions& options, Resume& resume) const {
  POOCH_CHECK_MSG(options.stats == nullptr && !options.record_stream,
                  "a resumable run takes no stats sink and records no "
                  "stream");
  POOCH_CHECK_MSG(resume.record == nullptr || resume.record != resume.from,
                  "a run cannot record into the checkpoints it resumes from");
  return run_exec(classes, options,
                  time_model_.concurrent_safe() ? resume.from : nullptr,
                  resume);
}

RunResult Runtime::run_exec(const Classification& classes,
                            const RunOptions& options,
                            const ForwardCheckpoints* from,
                            Resume& resume) const {
  // The thread's scratch set, unless a run is already using it further
  // up this thread's stack; then a fresh one keeps run() re-entrant.
  thread_local RunScratch thread_scratch;
  RunScratch fresh;
  RunScratch& scratch = thread_scratch.in_use ? fresh : thread_scratch;
  struct Lease {
    RunScratch& s;
    explicit Lease(RunScratch& scratch) : s(scratch) { s.in_use = true; }
    ~Lease() { s.in_use = false; }
  } lease(scratch);
  resume.started_at = 0;
  try {
    detail::Exec exec(graph_, tape_, *tables_, machine_, time_model_, classes,
                      options, scratch, resume.describe_oom);
    try {
      RunResult r = exec.run(from, resume.record);
      resume.started_at = static_cast<int>(exec.started_at());
      return r;
    } catch (const OomUnwind& oom) {
      resume.started_at = static_cast<int>(exec.started_at());
      return exec.fail(oom.what);
    }
  } catch (const OomUnwind& oom) {
    // Construction-time failure (persistent pool does not fit).
    RunResult r;
    r.oom = true;
    r.failure = oom.what;
    return r;
  }
}

}  // namespace pooch::sim
