#include "obs/validate.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <map>
#include <sstream>

#include "common/strings.hpp"
#include "exec/schedule.hpp"

namespace pooch::obs {

namespace {

using graph::NodeId;
using graph::ValueId;
using sim::OpKind;
using sim::OpRecord;
using sim::Timeline;

constexpr std::size_t kMaxErrors = 50;

/// Relative tolerance for accumulated time sums.
double tol(double scale) { return 1e-6 * std::max(1.0, std::fabs(scale)); }
/// Tight tolerance for event-ordering comparisons.
double eps(double scale) { return 1e-9 * std::max(1.0, std::fabs(scale)); }

std::string op_label(const graph::Graph& g, const OpRecord& op,
                     std::size_t index) {
  std::ostringstream os;
  os << "op#" << index << " " << sim::op_kind_name(op.kind);
  if (op.node != graph::kNoNode) os << " " << g.node(op.node).name;
  if (op.value >= 0) os << " (v" << op.value << ")";
  os << " [" << op.start << ", " << op.end << "]";
  return os.str();
}

struct Materializations {
  /// Per value: sorted completion times of ops that place it on device
  /// (forward/recompute producing it, or a swap-in).
  std::vector<std::vector<double>> ready_at;
  /// Per value: swap-out records (start, end), in start order.
  std::vector<std::vector<std::pair<double, double>>> swapouts;
};

class Checker {
 public:
  Checker(const graph::Graph& g, const std::vector<graph::BwdStep>& tape,
          const Timeline& tl, ValidationReport& rep)
      : g_(g), tape_(tape), tl_(tl), rep_(rep) {
    for (const auto& op : tl.ops) t_end_ = std::max(t_end_, op.end);
    for (const auto& step : tape_) needed_by_node_[step.node] = &step.needed;
  }

  void run() {
    if (tl_.ops.empty()) {
      error("timeline has no recorded ops (was record_timeline enabled?)");
      return;
    }
    check_well_formed();
    sort_streams();
    check_no_overlap();
    check_program_order();
    collect_materializations();
    check_dependencies();
    check_accounting();
  }

  double last_compute_end() const {
    return streams_[sim::kComputeStream].empty()
               ? 0.0
               : tl_.ops[streams_[sim::kComputeStream].back()].end;
  }

 private:
  void error(std::string msg) {
    if (rep_.errors.size() < kMaxErrors) rep_.errors.push_back(std::move(msg));
  }

  void check_well_formed() {
    for (std::size_t i = 0; i < tl_.ops.size(); ++i) {
      const OpRecord& op = tl_.ops[i];
      if (!std::isfinite(op.start) || !std::isfinite(op.end) ||
          !std::isfinite(op.stall)) {
        error(op_label(g_, op, i) + ": non-finite time");
        continue;
      }
      if (op.start < -eps(t_end_)) {
        error(op_label(g_, op, i) + ": negative start time");
      }
      if (op.end < op.start - eps(t_end_)) {
        error(op_label(g_, op, i) + ": ends before it starts");
      }
      if (op.stall < -eps(t_end_)) {
        error(op_label(g_, op, i) + ": negative stall");
      }
      if (op.stall > 0.0 && sim::stream_of(op.kind) != sim::kComputeStream) {
        error(op_label(g_, op, i) + ": stall recorded on a copy stream");
      }
      if (op.start - op.stall < -eps(t_end_)) {
        error(op_label(g_, op, i) + ": stall region starts before t=0");
      }
    }
  }

  void sort_streams() {
    for (std::size_t i = 0; i < tl_.ops.size(); ++i) {
      streams_[sim::stream_of(tl_.ops[i].kind)].push_back(i);
    }
    for (auto& s : streams_) {
      std::sort(s.begin(), s.end(), [&](std::size_t a, std::size_t b) {
        return tl_.ops[a].start < tl_.ops[b].start;
      });
    }
  }

  void check_no_overlap() {
    for (int s = 0; s < sim::kNumStreams; ++s) {
      double prev_end = -std::numeric_limits<double>::infinity();
      std::size_t prev_i = 0;
      for (const std::size_t i : streams_[s]) {
        const OpRecord& op = tl_.ops[i];
        // On the compute stream the stall lead-in occupies the stream
        // too: the op's slot effectively begins at start - stall.
        const double begin = s == sim::kComputeStream ? op.start - op.stall
                                                      : op.start;
        if (begin < prev_end - eps(t_end_)) {
          error(std::string(sim::stream_name(s)) + " stream overlap: " +
                op_label(g_, op, i) + " begins before " +
                op_label(g_, tl_.ops[prev_i], prev_i) + " ends");
        }
        if (op.end > prev_end) {
          prev_end = op.end;
          prev_i = i;
        }
      }
    }
  }

  void check_program_order() {
    // Forward ops must replay the graph's node order, backward ops the
    // tape's, and the whole forward phase precedes the backward phase.
    std::vector<NodeId> fwd, bwd;
    double max_fwd_end = 0.0;
    double min_bwd_start = std::numeric_limits<double>::infinity();
    std::size_t updates = 0;
    for (const std::size_t i : streams_[sim::kComputeStream]) {
      const OpRecord& op = tl_.ops[i];
      if (op.kind == OpKind::kForward) {
        fwd.push_back(op.node);
        max_fwd_end = std::max(max_fwd_end, op.end);
      } else if (op.kind == OpKind::kBackward) {
        bwd.push_back(op.node);
        min_bwd_start = std::min(min_bwd_start, op.start);
      } else if (op.kind == OpKind::kUpdate) {
        ++updates;
        if (i != streams_[sim::kComputeStream].back()) {
          error("update op is not the last compute op");
        }
      }
    }
    if (!fwd.empty() && min_bwd_start < max_fwd_end - eps(t_end_)) {
      error("backward phase starts before the forward phase ends");
    }
    if (updates > 1) error("multiple update ops in one iteration");
    const auto& nodes = g_.nodes();
    if (fwd.size() > nodes.size()) {
      error("more forward ops than graph nodes");
    } else {
      for (std::size_t i = 0; i < fwd.size(); ++i) {
        if (fwd[i] != nodes[i].id) {
          error("forward op order diverges from graph order at position " +
                std::to_string(i));
          break;
        }
      }
    }
    if (bwd.size() > tape_.size()) {
      error("more backward ops than tape steps");
    } else {
      for (std::size_t i = 0; i < bwd.size(); ++i) {
        if (bwd[i] != tape_[i].node) {
          error("backward op order diverges from tape order at position " +
                std::to_string(i));
          break;
        }
      }
    }
    if (tl_.forward_end > 0.0 && !fwd.empty() &&
        std::fabs(tl_.forward_end - max_fwd_end) > tol(t_end_)) {
      error("forward_end does not match the last forward op");
    }
  }

  void collect_materializations() {
    const std::size_t n = static_cast<std::size_t>(g_.num_values());
    mat_.ready_at.assign(n, {});
    mat_.swapouts.assign(n, {});
    // Graph inputs are placed on device at t=0.
    for (const ValueId in : g_.inputs()) {
      mat_.ready_at[static_cast<std::size_t>(in)].push_back(0.0);
    }
    for (const auto& op : tl_.ops) {
      if (op.value < 0) continue;
      const std::size_t v = static_cast<std::size_t>(op.value);
      switch (op.kind) {
        case OpKind::kForward:
        case OpKind::kRecompute:
        case OpKind::kSwapIn:
          mat_.ready_at[v].push_back(op.end);
          break;
        case OpKind::kSwapOut:
          mat_.swapouts[v].emplace_back(op.start, op.end);
          break;
        default:
          break;
      }
    }
    for (auto& r : mat_.ready_at) std::sort(r.begin(), r.end());
    for (auto& s : mat_.swapouts) std::sort(s.begin(), s.end());
  }

  /// Latest materialization of v completing by time t; NaN when none.
  double ready_by(ValueId v, double t) const {
    const auto& r = mat_.ready_at[static_cast<std::size_t>(v)];
    auto it = std::upper_bound(r.begin(), r.end(), t + eps(t_end_));
    if (it == r.begin()) return std::numeric_limits<double>::quiet_NaN();
    return *std::prev(it);
  }

  void check_read(ValueId v, double at, const OpRecord& op,
                  std::size_t index) {
    const double ready = ready_by(v, at);
    if (std::isnan(ready)) {
      error(op_label(g_, op, index) + ": reads v" + std::to_string(v) + " '" +
            g_.value(v).name + "' before it was ever materialized");
      return;
    }
    // If the value left the device (swap-out completed) after it was
    // last materialized, the read needs a newer swap-in/recompute.
    for (const auto& [so_start, so_end] :
         mat_.swapouts[static_cast<std::size_t>(v)]) {
      if (so_end <= at + eps(t_end_) && so_end > ready + eps(t_end_)) {
        error(op_label(g_, op, index) + ": reads v" + std::to_string(v) +
              " '" + g_.value(v).name +
              "' after its swap-out completed without a completed swap-in");
        return;
      }
    }
  }

  void check_dependencies() {
    for (const std::size_t i : streams_[sim::kComputeStream]) {
      const OpRecord& op = tl_.ops[i];
      if (op.kind == OpKind::kForward || op.kind == OpKind::kRecompute) {
        for (const ValueId in : g_.node(op.node).inputs) {
          check_read(in, op.start, op, i);
        }
      } else if (op.kind == OpKind::kBackward) {
        const auto it = needed_by_node_.find(op.node);
        if (it == needed_by_node_.end()) {
          error(op_label(g_, op, i) + ": backward op for a node not on the "
                                      "tape");
          continue;
        }
        for (const ValueId v : *it->second) check_read(v, op.start, op, i);
      }
    }
    // Transfer-order invariants, per value.
    for (const std::size_t i : streams_[sim::kD2HStream]) {
      const OpRecord& op = tl_.ops[i];
      if (op.value < 0) {
        error(op_label(g_, op, i) + ": swap-out without a value");
        continue;
      }
      check_read(op.value, op.start, op, i);
    }
    for (ValueId v = 0; v < g_.num_values(); ++v) {
      if (mat_.swapouts[static_cast<std::size_t>(v)].size() > 1) {
        error("value v" + std::to_string(v) + " '" + g_.value(v).name +
              "' swapped out more than once in one iteration");
      }
    }
    for (const std::size_t i : streams_[sim::kH2DStream]) {
      const OpRecord& op = tl_.ops[i];
      if (op.value < 0) {
        error(op_label(g_, op, i) + ": swap-in without a value");
        continue;
      }
      const auto& outs = mat_.swapouts[static_cast<std::size_t>(op.value)];
      bool covered = false;
      for (const auto& [so_start, so_end] : outs) {
        if (so_end <= op.start + eps(t_end_)) covered = true;
      }
      if (!covered) {
        error(op_label(g_, op, i) +
              ": swap-in starts before any swap-out of the value completed");
      }
    }
  }

  void check_accounting() {
    double busy[sim::kNumStreams] = {0.0, 0.0, 0.0};
    double stall_sum = 0.0;
    for (const auto& op : tl_.ops) {
      busy[sim::stream_of(op.kind)] += op.end - op.start;
      stall_sum += op.stall;
    }
    const double recorded[sim::kNumStreams] = {tl_.compute_busy, tl_.d2h_busy,
                                               tl_.h2d_busy};
    for (int s = 0; s < sim::kNumStreams; ++s) {
      if (std::fabs(busy[s] - recorded[s]) > tol(busy[s])) {
        error(std::string(sim::stream_name(s)) + " busy accounting drift: " +
              "recorded " + std::to_string(recorded[s]) + "s, ops sum to " +
              std::to_string(busy[s]) + "s");
      }
    }
    if (std::fabs(stall_sum - tl_.compute_stall) > tol(stall_sum)) {
      error("compute stall accounting drift: recorded " +
            std::to_string(tl_.compute_stall) + "s, ops sum to " +
            std::to_string(stall_sum) + "s");
    }
    // The compute stream starts at t=0 and is gapless: every idle moment
    // is attributed as some op's stall, so busy + stall must equal the
    // stream's end time exactly.
    const double end = last_compute_end();
    if (std::fabs((busy[sim::kComputeStream] + stall_sum) - end) >
        tol(end)) {
      error("compute stream loses time: busy + stall = " +
            std::to_string(busy[sim::kComputeStream] + stall_sum) +
            "s but the stream ends at " + std::to_string(end) + "s");
    }
  }

  const graph::Graph& g_;
  const std::vector<graph::BwdStep>& tape_;
  const Timeline& tl_;
  ValidationReport& rep_;
  double t_end_ = 0.0;
  std::vector<std::size_t> streams_[sim::kNumStreams];
  Materializations mat_;
  /// node -> needed-values list of its tape step.
  std::map<NodeId, const std::vector<ValueId>*> needed_by_node_;
};

}  // namespace

std::string ValidationReport::to_string() const {
  if (ok()) return "timeline valid\n";
  std::ostringstream os;
  os << errors.size() << " timeline invariant violation(s):\n";
  for (const auto& e : errors) os << "  - " << e << "\n";
  return os.str();
}

TimelineValidator::TimelineValidator(const graph::Graph& graph,
                                     const std::vector<graph::BwdStep>& tape)
    : graph_(graph), tape_(tape) {}

void TimelineValidator::check_structure(const sim::Timeline& tl,
                                        ValidationReport& rep) const {
  Checker checker(graph_, tape_, tl, rep);
  checker.run();
}

ValidationReport TimelineValidator::check(const sim::Timeline& tl) const {
  ValidationReport rep;
  check_structure(tl, rep);
  return rep;
}

ValidationReport TimelineValidator::check_run(const sim::RunResult& r) const {
  ValidationReport rep;
  if (!r.ok) {
    rep.errors.push_back("run did not complete: " +
                         (r.failure.empty() ? std::string("(no reason)")
                                            : r.failure));
    return rep;
  }
  check_structure(r.timeline, rep);

  double last_compute_end = 0.0;
  for (const auto& op : r.timeline.ops) {
    if (sim::stream_of(op.kind) == sim::kComputeStream) {
      last_compute_end = std::max(last_compute_end, op.end);
    }
  }
  const double t = std::max(1.0, r.iteration_time);
  if (std::fabs(r.iteration_time - last_compute_end) > 1e-6 * t) {
    rep.errors.push_back("iteration_time does not match the last compute op (" +
                         std::to_string(r.iteration_time) + "s vs " +
                         std::to_string(last_compute_end) + "s)");
  }
  if (std::fabs(r.forward_time - r.timeline.forward_end) > 1e-6 * t) {
    rep.errors.push_back("forward_time does not match timeline.forward_end");
  }
  if (std::fabs(r.compute_stall - r.timeline.compute_stall) > 1e-6 * t) {
    rep.errors.push_back(
        "RunResult.compute_stall does not match timeline.compute_stall");
  }
  if (r.peak_bytes != r.peak_arena_bytes + r.persistent_bytes) {
    rep.errors.push_back(
        "peak_bytes != persistent_bytes + peak_arena_bytes (" +
        format_bytes(r.peak_bytes) + " vs " + format_bytes(r.persistent_bytes) +
        " + " + format_bytes(r.peak_arena_bytes) + ")");
  }
  if (r.peak_arena_bytes > r.arena_capacity) {
    rep.errors.push_back("arena peak " + format_bytes(r.peak_arena_bytes) +
                         " exceeds arena capacity " +
                         format_bytes(r.arena_capacity));
  }
  return rep;
}

ValidationReport TimelineValidator::check_run(
    const sim::RunResult& r, std::size_t usable_device_bytes) const {
  ValidationReport rep = check_run(r);
  if (r.ok && r.peak_bytes > usable_device_bytes) {
    rep.errors.push_back("peak usage " + format_bytes(r.peak_bytes) +
                         " exceeds usable device memory " +
                         format_bytes(usable_device_bytes));
  }
  return rep;
}

namespace {

/// Per-value residency history over a replay, ordered by the exact
/// completion-sequence numbers. A materialization is effective at the
/// op's seq_end (the data exists once the op finished); a kill
/// (swap-out move, free) is effective at the op's seq_start (the data
/// may be gone the moment the op begins).
struct ReplayHistory {
  struct EventRec {
    std::uint64_t seq = 0;
    bool materializes = false;
    std::int32_t op = -1;
  };
  std::vector<std::vector<EventRec>> by_value;

  void add(ValueId v, std::uint64_t seq, bool materializes, std::int32_t op) {
    by_value[static_cast<std::size_t>(v)].push_back(
        EventRec{seq, materializes, op});
  }

  /// The latest event strictly before `seq`, or nullptr.
  const EventRec* latest_before(ValueId v, std::uint64_t seq) const {
    const EventRec* best = nullptr;
    for (const EventRec& e : by_value[static_cast<std::size_t>(v)]) {
      if (e.seq < seq && (!best || e.seq > best->seq)) best = &e;
    }
    return best;
  }
};

}  // namespace

ValidationReport TimelineValidator::check_replay(
    const exec::OpStream& stream,
    const std::vector<exec::OpSpan>& spans) const {
  ValidationReport rep;
  auto error = [&rep](const std::string& msg) {
    if (rep.errors.size() < kMaxErrors) rep.errors.push_back(msg);
  };
  if (spans.size() != stream.ops.size()) {
    error("span count " + std::to_string(spans.size()) +
          " does not match op count " + std::to_string(stream.ops.size()));
    return rep;
  }

  std::map<NodeId, const std::vector<ValueId>*> needed_by_node;
  for (const auto& step : tape_) needed_by_node[step.node] = &step.needed;

  // The full happens-before partial order, derived from the stream's op
  // footprints: every RAW/WAR/WAW hazard over the value/grad/param/host
  // slots, within and across lanes. The residency oracle below audits
  // the same replay without any edges at all, from the graph and tape.
  const exec::Schedule sched = exec::build_schedule(graph_, tape_, stream);

  // Well-formedness and dependency edges (exact, via sequence numbers;
  // wall times must agree up to clock monotonicity).
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const exec::OpSpan& s = spans[i];
    if (!std::isfinite(s.start) || !std::isfinite(s.end) || s.end < s.start ||
        s.wait < 0.0) {
      error("op " + std::to_string(i) + ": malformed span");
    }
    if (s.seq_end <= s.seq_start) {
      error("op " + std::to_string(i) + ": sequence numbers not increasing");
    }
    for (std::int32_t d : sched.deps[i]) {
      const exec::OpSpan& ds = spans[static_cast<std::size_t>(d)];
      if (ds.seq_end >= s.seq_start) {
        error("op " + std::to_string(i) + " started (seq " +
              std::to_string(s.seq_start) + ") before its dependency " +
              std::to_string(d) + " completed (seq " +
              std::to_string(ds.seq_end) + ")");
      }
      if (ds.end > s.start) {
        error("op " + std::to_string(i) + " wall start " +
              std::to_string(s.start) + " precedes dependency " +
              std::to_string(d) + " wall end " + std::to_string(ds.end));
      }
    }
  }

  // Per-(lane,worker) spans must be disjoint: one worker executes one
  // op at a time.
  std::map<std::pair<int, int>, std::vector<std::size_t>> by_worker;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    by_worker[{spans[i].lane, spans[i].worker}].push_back(i);
  }
  for (auto& [key, indices] : by_worker) {
    std::sort(indices.begin(), indices.end(),
              [&spans](std::size_t a, std::size_t b) {
                return spans[a].seq_start < spans[b].seq_start;
              });
    for (std::size_t j = 1; j < indices.size(); ++j) {
      if (spans[indices[j - 1]].seq_end >= spans[indices[j]].seq_start) {
        error("lane " + std::to_string(key.first) + " worker " +
              std::to_string(key.second) + ": ops " +
              std::to_string(indices[j - 1]) + " and " +
              std::to_string(indices[j]) + " overlap");
      }
    }
  }

  // Residency oracle, derived from the graph and tape independently of
  // the dependency edges: every read must land on a window where the
  // value is materialized.
  ReplayHistory hist;
  hist.by_value.resize(static_cast<std::size_t>(graph_.num_values()));
  for (std::size_t i = 0; i < stream.ops.size(); ++i) {
    const exec::StreamOp& op = stream.ops[i];
    const exec::OpSpan& s = spans[i];
    const auto idx = static_cast<std::int32_t>(i);
    switch (op.type) {
      case exec::OpType::kBeginIteration:
        for (ValueId v : graph_.inputs()) hist.add(v, s.seq_end, true, idx);
        break;
      case exec::OpType::kForward:
      case exec::OpType::kRecompute:
        hist.add(graph_.node(op.node).output, s.seq_end, true, idx);
        break;
      case exec::OpType::kSwapIn:
        hist.add(op.value, s.seq_end, true, idx);
        break;
      case exec::OpType::kSwapOut:
      case exec::OpType::kFreeValue:
        hist.add(op.value, s.seq_start, false, idx);
        break;
      default:
        break;
    }
  }
  // Reads hold the value for the op's whole [seq_start, seq_end]
  // window; record the interval so kills can be audited against every
  // concurrent reader, not just the read's start instant.
  std::vector<std::vector<std::array<std::uint64_t, 3>>> read_windows(
      static_cast<std::size_t>(graph_.num_values()));
  auto check_read = [&](ValueId v, std::size_t reader, std::uint64_t at) {
    const ReplayHistory::EventRec* e = hist.latest_before(v, at);
    if (!e) {
      error("op " + std::to_string(reader) + " read v" + std::to_string(v) +
            " which was never materialized");
    } else if (!e->materializes) {
      error("op " + std::to_string(reader) + " read v" + std::to_string(v) +
            " after op " + std::to_string(e->op) + " removed it");
    }
    read_windows[static_cast<std::size_t>(v)].push_back(
        {at, spans[reader].seq_end, static_cast<std::uint64_t>(reader)});
  };
  for (std::size_t i = 0; i < stream.ops.size(); ++i) {
    const exec::StreamOp& op = stream.ops[i];
    const std::uint64_t at = spans[i].seq_start;
    switch (op.type) {
      case exec::OpType::kForward:
      case exec::OpType::kRecompute:
        for (ValueId v : graph_.node(op.node).inputs) check_read(v, i, at);
        break;
      case exec::OpType::kBackward: {
        auto it = needed_by_node.find(op.node);
        if (it == needed_by_node.end()) {
          error("op " + std::to_string(i) + ": backward of node " +
                std::to_string(op.node) + " not on the tape");
          break;
        }
        for (ValueId v : *it->second) check_read(v, i, at);
        break;
      }
      case exec::OpType::kSwapOut:
        // The move reads the device copy at its own start; its kill
        // event carries the same seq, and latest_before is strict, so
        // the op does not shadow its own read.
        check_read(op.value, i, at);
        break;
      default:
        break;
    }
  }
  // No kill may land inside a reader's window: a reader that *started*
  // on a materialized value must also *finish* before a swap-out moves
  // the buffer or a free drops it. This is exactly the hazard a missing
  // WAR edge would let through once readers run concurrently.
  for (std::size_t i = 0; i < stream.ops.size(); ++i) {
    const exec::StreamOp& op = stream.ops[i];
    if (op.type != exec::OpType::kSwapOut &&
        op.type != exec::OpType::kFreeValue) {
      continue;
    }
    const std::uint64_t kill = spans[i].seq_start;
    for (const auto& w : read_windows[static_cast<std::size_t>(op.value)]) {
      if (w[2] == i) continue;  // a swap-out's own read
      if (w[0] < kill && kill < w[1]) {
        error("op " + std::to_string(i) + " removed v" +
              std::to_string(op.value) + " (seq " + std::to_string(kill) +
              ") while op " + std::to_string(w[2]) +
              " was still reading it (seq [" + std::to_string(w[0]) + ", " +
              std::to_string(w[1]) + "])");
      }
    }
  }
  return rep;
}

}  // namespace pooch::obs
