#include "exec/op_stream.hpp"

#include <algorithm>
#include <sstream>

#include "common/error.hpp"

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
      return "begin_iteration";
    case OpType::kForward:
      return "forward";
    case OpType::kBackward:
      return "backward";
    case OpType::kRecompute:
      return "recompute";
    case OpType::kUpdate:
      return "update";
    case OpType::kSwapOut:
      return "swap_out";
    case OpType::kSwapIn:
      return "swap_in";
    case OpType::kFreeValue:
      return "free_value";
    case OpType::kFreeGrad:
      return "free_grad";
  }
  return "?";
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

}  // namespace pooch::exec
