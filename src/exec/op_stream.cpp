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
  auto require_resident = [&](graph::ValueId v, int i, const char* why) {
    if (!slot[static_cast<std::size_t>(v)].device) {
      std::ostringstream os;
      os << "op " << i << " (" << op_type_name(ops[static_cast<std::size_t>(i)].type)
         << "): value v" << v << " not device-resident for " << why;
      err(os.str());
    }
  };

  for (int i = 0; i < static_cast<int>(ops.size()); ++i) {
    const StreamOp& op = ops[static_cast<std::size_t>(i)];
    switch (op.type) {
      case OpType::kBeginIteration:
        for (graph::ValueId v : graph.inputs()) {
          slot[static_cast<std::size_t>(v)].device = true;
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
        break;
      }
      case OpType::kBackward: {
        const graph::BwdStep* step =
            step_of_node[static_cast<std::size_t>(op.node)];
        POOCH_CHECK(step != nullptr);
        for (graph::ValueId v : step->needed) {
          require_resident(v, i, "backward needed");
        }
        break;
      }
      case OpType::kUpdate:
        break;
      case OpType::kSwapOut: {
        require_resident(op.value, i, "swap-out");
        SlotState& s = slot[static_cast<std::size_t>(op.value)];
        s.device = false;
        s.host = true;
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
        break;
      }
      case OpType::kFreeValue: {
        SlotState& s = slot[static_cast<std::size_t>(op.value)];
        s.device = false;
        if (op.releases_host) s.host = false;
        break;
      }
      case OpType::kFreeGrad:
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
