#include "exec/op_stream.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace pooch::exec {

Lane lane_of(OpType type) {
  switch (type) {
    case OpType::kSwapOut:
      return kD2HLane;
    case OpType::kSwapIn:
      return kH2DLane;
    default:
      return kComputeLane;
  }
}

const char* op_type_name(OpType type) {
  switch (type) {
    case OpType::kBeginIteration:
      return "begin-iteration";
    case OpType::kForward:
      return "forward";
    case OpType::kBackward:
      return "backward";
    case OpType::kRecompute:
      return "recompute";
    case OpType::kUpdate:
      return "update";
    case OpType::kSwapOut:
      return "swap-out";
    case OpType::kSwapIn:
      return "swap-in";
    case OpType::kFreeValue:
      return "free-value";
    case OpType::kFreeGrad:
      return "free-grad";
  }
  return "?";
}

const char* lane_name(Lane lane) {
  switch (lane) {
    case kComputeLane: return "compute";
    case kD2HLane: return "d2h";
    case kH2DLane: return "h2d";
  }
  return "?";
}

const char* stall_cause_name(StallCause cause) {
  switch (cause) {
    case StallCause::kNone: return "none";
    case StallCause::kSwapInWait: return "swapin-wait";
    case StallCause::kMemoryWait: return "memory-wait";
    case StallCause::kDependency: return "dependency";
  }
  return "?";
}

bool is_bookkeeping(OpType type) {
  return type == OpType::kBeginIteration || type == OpType::kFreeValue ||
         type == OpType::kFreeGrad;
}

int OpStream::count(OpType type) const {
  return static_cast<int>(
      std::count_if(ops.begin(), ops.end(),
                    [type](const StreamOp& op) { return op.type == type; }));
}

int OpStream::lane_count(Lane lane) const {
  return static_cast<int>(
      std::count_if(ops.begin(), ops.end(), [lane](const StreamOp& op) {
        return lane_of(op.type) == lane;
      }));
}

int OpStream::timed_count() const {
  return static_cast<int>(
      std::count_if(ops.begin(), ops.end(), [](const StreamOp& op) {
        return !is_bookkeeping(op.type);
      }));
}

namespace {

// Residency the replay state machine tracks per feature-map slot.
struct SlotState {
  bool device = false;  // values_[v] holds data
  bool host = false;    // host_[v] holds a swap copy
};

/// The placements live during an index-order replay, and the memory
/// rules of validate() over them.
class LivePlacements {
 public:
  LivePlacements(const graph::Graph& graph, std::size_t capacity,
                 std::vector<std::string>& errors)
      : graph_(graph), capacity_(capacity), errors_(errors) {}

  /// Check `p`, placed by op `i`, against the arena bounds and every
  /// live placement, then make it live.
  void place(int i, const StreamOp& op, const Placement& p) {
    if (p.offset + p.bytes > capacity_) {
      std::ostringstream os;
      os << describe(i, p) << " ends past the arena capacity " << capacity_;
      errors_.push_back(os.str());
    }
    for (const Placement& q : live_) {
      if (same_buffer(p, q) || !overlap(p, q) || in_place_grad(op, p, q)) {
        continue;
      }
      std::ostringstream os;
      os << describe(i, p) << " overlaps the live "
         << (q.grad ? "gradient" : "value") << " of v" << q.value << " at ["
         << q.offset << ", " << q.offset + q.bytes << ")";
      errors_.push_back(os.str());
    }
    drop(p.value, p.grad);
    live_.push_back(p);
  }

  void drop(graph::ValueId v, bool grad) {
    std::erase_if(live_, [&](const Placement& q) {
      return q.value == v && q.grad == grad;
    });
  }

  bool placed(graph::ValueId v, bool grad) const {
    return std::any_of(live_.begin(), live_.end(), [&](const Placement& q) {
      return q.value == v && q.grad == grad;
    });
  }

 private:
  static bool same_buffer(const Placement& a, const Placement& b) {
    return a.value == b.value && a.grad == b.grad;
  }
  static bool overlap(const Placement& a, const Placement& b) {
    return a.offset < b.offset + b.bytes && b.offset < a.offset + a.bytes;
  }
  /// dx written into dy: the gradient of a backward node's input takes
  /// exactly the buffer of the live gradient of the node's output.
  bool in_place_grad(const StreamOp& op, const Placement& p,
                     const Placement& q) const {
    if (op.type != OpType::kBackward || !p.grad || !q.grad) return false;
    const graph::Node& n = graph_.node(op.node);
    return p.value == n.inputs[0] && q.value == n.output &&
           p.offset == q.offset && p.bytes == q.bytes;
  }
  static std::string describe(int i, const Placement& p) {
    std::ostringstream os;
    os << "op " << i << ": placement of " << (p.grad ? "gradient of v" : "v")
       << p.value << " at [" << p.offset << ", " << p.offset + p.bytes
       << ")";
    return os.str();
  }

  const graph::Graph& graph_;
  std::size_t capacity_;
  std::vector<std::string>& errors_;
  std::vector<Placement> live_;
};

}  // namespace

std::vector<std::string> OpStream::validate(
    const graph::Graph& graph,
    const std::vector<graph::BwdStep>& tape) const {
  std::vector<std::string> errors;
  auto err = [&errors](const std::string& msg) { errors.push_back(msg); };

  std::vector<const graph::BwdStep*> step_of_node(
      static_cast<std::size_t>(graph.num_nodes()), nullptr);
  for (const auto& step : tape) {
    step_of_node[static_cast<std::size_t>(step.node)] = &step;
  }

  std::vector<SlotState> slot(static_cast<std::size_t>(graph.num_values()));
  LivePlacements memory(graph, arena_capacity, errors);
  auto prefix = [&](int i) {
    std::ostringstream os;
    os << "op " << i << " ("
       << op_type_name(ops[static_cast<std::size_t>(i)].type) << "): ";
    return os.str();
  };
  auto require_resident = [&](graph::ValueId v, int i, const char* why) {
    if (!slot[static_cast<std::size_t>(v)].device) {
      err(prefix(i) + "value v" + std::to_string(v) +
          " not device-resident for " + why);
    }
  };
  auto require_placed = [&](graph::ValueId v, bool grad, int i) {
    if (!memory.placed(v, grad)) {
      err(prefix(i) + (grad ? "gradient of v" : "v") + std::to_string(v) +
          " written without a placement");
    }
  };

  for (int i = 0; i < static_cast<int>(ops.size()); ++i) {
    const StreamOp& op = ops[static_cast<std::size_t>(i)];
    for (const Placement& p : op.places) memory.place(i, op, p);
    switch (op.type) {
      case OpType::kBeginIteration:
        for (graph::ValueId v : graph.inputs()) {
          slot[static_cast<std::size_t>(v)].device = true;
          require_placed(v, false, i);
        }
        break;
      case OpType::kForward:
      case OpType::kRecompute: {
        const graph::Node& n = graph.node(op.node);
        for (graph::ValueId v : n.inputs) require_resident(v, i, "input");
        SlotState& out = slot[static_cast<std::size_t>(n.output)];
        if (op.type == OpType::kRecompute && out.device) {
          std::ostringstream os;
          os << "op " << i << ": recompute of already-resident v" << n.output;
          err(os.str());
        }
        out.device = true;
        require_placed(n.output, false, i);
        break;
      }
      case OpType::kBackward: {
        const graph::BwdStep* step =
            step_of_node[static_cast<std::size_t>(op.node)];
        POOCH_CHECK(step != nullptr);
        for (graph::ValueId v : step->needed) {
          require_resident(v, i, "backward needed");
        }
        require_placed(graph.node(op.node).output, true, i);
        for (graph::ValueId v : step->grad_outputs) require_placed(v, true, i);
        break;
      }
      case OpType::kUpdate:
        break;
      case OpType::kSwapOut: {
        require_resident(op.value, i, "swap-out");
        SlotState& s = slot[static_cast<std::size_t>(op.value)];
        s.device = false;
        s.host = true;
        memory.drop(op.value, false);
        break;
      }
      case OpType::kSwapIn: {
        SlotState& s = slot[static_cast<std::size_t>(op.value)];
        if (!s.host) {
          std::ostringstream os;
          os << "op " << i << ": dangling swap-in of v" << op.value
             << " (no host copy)";
          err(os.str());
        }
        if (s.device) {
          std::ostringstream os;
          os << "op " << i << ": duplicate swap-in of resident v" << op.value;
          err(os.str());
        }
        s.device = true;
        require_placed(op.value, false, i);
        break;
      }
      case OpType::kFreeValue: {
        SlotState& s = slot[static_cast<std::size_t>(op.value)];
        s.device = false;
        if (op.releases_host) s.host = false;
        memory.drop(op.value, false);
        break;
      }
      case OpType::kFreeGrad:
        memory.drop(op.value, true);
        break;
    }
  }
  return errors;
}

std::string OpStream::to_string(const graph::Graph& graph) const {
  std::ostringstream os;
  os << "OpStream: " << ops.size() << " ops (compute "
     << lane_count(kComputeLane) << ", d2h " << lane_count(kD2HLane)
     << ", h2d " << lane_count(kH2DLane) << "), iteration " << iteration
     << "\n";
  for (int i = 0; i < static_cast<int>(ops.size()); ++i) {
    const StreamOp& op = ops[static_cast<std::size_t>(i)];
    os << "  [" << i << "] " << op_type_name(op.type);
    if (op.node != graph::kNoNode) os << " " << graph.node(op.node).name;
    if (op.value >= 0) os << " v" << op.value;
    os << "\n";
  }
  return os.str();
}

namespace {

char op_glyph(OpType type) {
  switch (type) {
    case OpType::kForward: return 'F';
    case OpType::kBackward: return 'B';
    case OpType::kRecompute: return 'R';
    case OpType::kSwapOut: return 'o';
    case OpType::kSwapIn: return 'i';
    case OpType::kUpdate: return 'U';
    default: return '?';
  }
}

}  // namespace

std::string OpStream::render(int width) const {
  double t_end = 0.0;
  for (const auto& op : ops) {
    if (!is_bookkeeping(op.type)) t_end = std::max(t_end, op.sim_end);
  }
  if (t_end <= 0.0) return "(empty timeline)\n";

  std::string rows[kNumLanes];
  for (auto& r : rows) r.assign(static_cast<std::size_t>(width), '.');

  for (const auto& op : ops) {
    if (is_bookkeeping(op.type)) continue;
    const int lane = lane_of(op.type);
    int a = static_cast<int>(std::floor(op.sim_start / t_end * width));
    int b = static_cast<int>(std::ceil(op.sim_end / t_end * width));
    a = std::clamp(a, 0, width - 1);
    b = std::clamp(b, a + 1, width);
    for (int i = a; i < b; ++i) {
      rows[lane][static_cast<std::size_t>(i)] = op_glyph(op.type);
    }
    // Mark the stall interval that preceded this compute op.
    if (lane == kComputeLane && op.stall > 0.0) {
      int sa = static_cast<int>(
          std::floor((op.sim_start - op.stall) / t_end * width));
      sa = std::clamp(sa, 0, a);
      for (int i = sa; i < a; ++i) {
        rows[kComputeLane][static_cast<std::size_t>(i)] = '#';
      }
    }
  }

  std::ostringstream os;
  os << "timeline span " << format_time(t_end) << "  (# = compute stall)\n";
  for (int lane = 0; lane < kNumLanes; ++lane) {
    std::string name = lane_name(static_cast<Lane>(lane));
    name.resize(7, ' ');
    os << name << " |" << rows[lane] << "|\n";
  }
  return os.str();
}

}  // namespace pooch::exec
