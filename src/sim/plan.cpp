#include "sim/plan.hpp"

#include <algorithm>
#include <sstream>

#include "common/error.hpp"

namespace pooch::sim {

using graph::BwdStep;
using graph::Graph;
using graph::kNoNode;
using graph::NodeId;
using graph::ValueId;

const char* value_class_name(ValueClass c) {
  switch (c) {
    case ValueClass::kKeep: return "keep";
    case ValueClass::kSwap: return "swap";
    case ValueClass::kRecompute: return "recompute";
  }
  return "?";
}

Classification::Classification(const Graph& graph, ValueClass fill)
    : classes_(static_cast<std::size_t>(graph.num_values()), fill) {}

std::array<int, 3> Classification::counts(
    const std::vector<ValueId>& over) const {
  std::array<int, 3> c{0, 0, 0};
  for (ValueId v : over) ++c[static_cast<std::size_t>(of(v))];
  return c;
}

std::string Classification::to_string(const Graph& graph) const {
  std::ostringstream os;
  for (ValueId v = 0; v < size(); ++v) {
    os << "v" << v << " '" << graph.value(v).name << "' -> "
       << value_class_name(of(v)) << "\n";
  }
  return os.str();
}

std::string Classification::serialize() const {
  std::string out;
  out.reserve(classes_.size());
  for (ValueClass c : classes_) {
    switch (c) {
      case ValueClass::kKeep: out += 'k'; break;
      case ValueClass::kSwap: out += 's'; break;
      case ValueClass::kRecompute: out += 'r'; break;
    }
  }
  return out;
}

Classification Classification::deserialize(const Graph& graph,
                                           const std::string& text) {
  POOCH_CHECK_MSG(static_cast<int>(text.size()) == graph.num_values(),
                  "serialized classification has " << text.size()
                                                   << " entries, graph has "
                                                   << graph.num_values());
  Classification c(graph, ValueClass::kKeep);
  for (ValueId v = 0; v < graph.num_values(); ++v) {
    switch (text[static_cast<std::size_t>(v)]) {
      case 'k': c.set(v, ValueClass::kKeep); break;
      case 's': c.set(v, ValueClass::kSwap); break;
      case 'r': c.set(v, ValueClass::kRecompute); break;
      default:
        throw Error("invalid classification character '" +
                    std::string(1, text[static_cast<std::size_t>(v)]) + "'");
    }
  }
  return c;
}

std::vector<ValueId> classifiable_values(const Graph& graph,
                                         const std::vector<BwdStep>& tape) {
  const auto counts = graph::backward_need_counts(graph, tape);
  std::vector<ValueId> out;
  for (ValueId v = 0; v < graph.num_values(); ++v) {
    if (counts[static_cast<std::size_t>(v)] > 0) out.push_back(v);
  }
  return out;
}

PlanTables::PlanTables(const Graph& graph, const std::vector<BwdStep>& tape) {
  const std::size_t nv = static_cast<std::size_t>(graph.num_values());
  value_bytes.reserve(nv);
  for (const auto& v : graph.values()) value_bytes.push_back(v.byte_size());
  workspace_bytes.reserve(static_cast<std::size_t>(graph.num_nodes()));
  for (const auto& node : graph.nodes()) {
    workspace_bytes.push_back(graph.workspace_bytes(node.id));
  }

  BackwardPlan& plan = skeleton;
  plan.steps.resize(tape.size());
  plan.fwd_consumers.assign(nv, 0);
  plan.grad_first_step.assign(nv, -1);
  plan.grad_last_step.assign(nv, -1);
  for (const auto& v : graph.values()) {
    plan.fwd_consumers[static_cast<std::size_t>(v.id)] =
        static_cast<int>(v.consumers.size());
  }

  // --- Gradient lifetimes. ---
  // Tape index of a node's backward step (tape is reverse node order).
  const int n = graph.num_nodes();
  auto step_of_node = [&](NodeId id) { return n - 1 - id; };
  for (const auto& v : graph.values()) {
    if (v.producer == kNoNode) continue;  // inputs receive no gradient
    const std::size_t vi = static_cast<std::size_t>(v.id);
    int first;
    if (v.consumers.empty()) {
      // Loss seed (or a dead-end value seeded with zeros).
      first = step_of_node(v.producer);
    } else {
      NodeId latest =
          *std::max_element(v.consumers.begin(), v.consumers.end());
      first = step_of_node(latest);
    }
    plan.grad_first_step[vi] = first;
    plan.grad_last_step[vi] = step_of_node(v.producer);
  }

  // --- In-place elementwise gradients. ---
  // dx of ReLU / dropout / flatten overwrites dy when the input gradient
  // has a single contributor (no accumulation from branches).
  plan.grad_root.resize(nv);
  for (ValueId v = 0; v < graph.num_values(); ++v) {
    plan.grad_root[static_cast<std::size_t>(v)] = v;
  }
  plan.root_free_step.assign(nv, -1);
  auto alias_eligible = [&](const graph::Node& node) {
    switch (node.kind) {
      case graph::LayerKind::kReLU:
      case graph::LayerKind::kDropout:
      case graph::LayerKind::kFlatten:
        break;
      default:
        return false;
    }
    const auto& in = graph.value(node.inputs[0]);
    return in.producer != kNoNode && in.consumers.size() == 1 &&
           value_bytes[static_cast<std::size_t>(in.id)] ==
               value_bytes[static_cast<std::size_t>(node.output)];
  };
  for (const auto& node : graph.nodes()) {
    if (alias_eligible(node)) {
      plan.grad_root[static_cast<std::size_t>(node.inputs[0])] = node.output;
    }
  }
  auto resolve_root = [&](ValueId v) {
    while (plan.grad_root[static_cast<std::size_t>(v)] != v) {
      v = plan.grad_root[static_cast<std::size_t>(v)];
    }
    return v;
  };
  for (ValueId v = 0; v < graph.num_values(); ++v) {
    plan.grad_root[static_cast<std::size_t>(v)] = resolve_root(v);
  }

  // Buffer owners allocate at their own first write (outer gradients are
  // written before the aliased inner ones) and free after the last
  // aliased consumer.
  for (ValueId v = 0; v < graph.num_values(); ++v) {
    const std::size_t vi = static_cast<std::size_t>(v);
    if (plan.grad_first_step[vi] < 0) continue;
    const std::size_t ri =
        static_cast<std::size_t>(plan.grad_root[vi]);
    plan.root_free_step[ri] =
        std::max(plan.root_free_step[ri], plan.grad_last_step[vi]);
  }
  for (ValueId v = 0; v < graph.num_values(); ++v) {
    const std::size_t vi = static_cast<std::size_t>(v);
    if (plan.grad_first_step[vi] < 0) continue;
    if (plan.grad_root[vi] != v) continue;  // aliased: no allocation
    plan.steps[static_cast<std::size_t>(plan.grad_first_step[vi])]
        .grad_allocs.push_back(v);
  }

  // --- Per-step transient bytes: the gradients and the backward
  // workspace (build_backward_plan adds the recompute preps). ---
  for (std::size_t k = 0; k < tape.size(); ++k) {
    StepPlan& sp = plan.steps[k];
    std::size_t bytes = 0;
    for (ValueId v : sp.grad_allocs) {
      bytes += value_bytes[static_cast<std::size_t>(v)];
    }
    bytes += 2 * workspace_bytes[static_cast<std::size_t>(tape[k].node)];
    sp.transient_bytes = bytes;
  }
}

BackwardPlan build_backward_plan(const Graph& graph,
                                 const std::vector<BwdStep>& tape,
                                 const Classification& classes) {
  BackwardPlan plan;
  build_backward_plan(graph, tape, PlanTables(graph, tape), classes, plan);
  return plan;
}

void build_backward_plan(const Graph& graph, const std::vector<BwdStep>& tape,
                         const PlanTables& tables,
                         const Classification& classes, BackwardPlan& plan) {
  const std::size_t nv = static_cast<std::size_t>(graph.num_values());
  POOCH_CHECK_MSG(classes.size() == graph.num_values(),
                  "classification size mismatch");
  const auto& value_bytes = tables.value_bytes;

  plan = tables.skeleton;
  plan.bwd_uses.assign(nv, 0);
  plan.last_use_step.assign(nv, -1);
  plan.swap_out.assign(nv, 0);
  plan.discard.assign(nv, 0);

  // --- Pass 1: walk the tape, expanding swap-in and recompute needs. ---
  // `materialized` is the device-residency state at backward time assuming
  // nothing is freed mid-backward; the prep sequences this produces are
  // identical to the free-at-last-use schedule because a value's last use
  // is, by construction, after every need.
  std::vector<char> materialized(nv, 0);
  for (ValueId v = 0; v < graph.num_values(); ++v) {
    materialized[static_cast<std::size_t>(v)] =
        classes.of(v) == ValueClass::kKeep ? 1 : 0;
  }

  // use(v, step): record one backward use of v at `step`.
  auto use = [&](ValueId v, int step) {
    const std::size_t vi = static_cast<std::size_t>(v);
    ++plan.bwd_uses[vi];
    plan.last_use_step[vi] = std::max(plan.last_use_step[vi], step);
  };

  // require(v, step): make v resident before `step`'s backward op.
  // Recursion depth is bounded by the longest recompute chain.
  auto require = [&](auto&& self, ValueId v, int step) -> void {
    use(v, step);
    const std::size_t vi = static_cast<std::size_t>(v);
    if (materialized[vi]) return;
    StepPlan& sp = plan.steps[static_cast<std::size_t>(step)];
    const auto& val = graph.value(v);
    if (classes.of(v) == ValueClass::kSwap) {
      PrepOp op;
      op.kind = PrepOp::Kind::kSwapIn;
      op.value = v;
      sp.preps.push_back(op);
      plan.swapin_order.push_back({v, step});
      materialized[vi] = 1;
      return;
    }
    // Recompute: re-run the producer after making its inputs resident.
    POOCH_CHECK_MSG(val.producer != kNoNode,
                    "graph input v" << v << " ('" << val.name
                                    << "') classified recompute — inputs "
                                       "cannot be re-derived");
    for (ValueId in : graph.node(val.producer).inputs) self(self, in, step);
    PrepOp op;
    op.kind = PrepOp::Kind::kRecompute;
    op.value = v;
    op.node = val.producer;
    sp.preps.push_back(op);
    // The recompute output and its workspace are this step's transients.
    sp.transient_bytes +=
        value_bytes[vi] +
        tables.workspace_bytes[static_cast<std::size_t>(val.producer)];
    plan.recompute_bytes += value_bytes[vi];
    materialized[vi] = 1;
  };

  for (std::size_t k = 0; k < tape.size(); ++k) {
    for (ValueId v : tape[k].needed) {
      require(require, v, static_cast<int>(k));
    }
  }
  for (ValueId v = 0; v < graph.num_values(); ++v) {
    const int last = plan.last_use_step[static_cast<std::size_t>(v)];
    if (last >= 0) {
      plan.steps[static_cast<std::size_t>(last)].frees.push_back(v);
    }
  }

  // --- Forward-phase decisions. ---
  for (ValueId v = 0; v < graph.num_values(); ++v) {
    const std::size_t vi = static_cast<std::size_t>(v);
    const bool needed_in_bwd = plan.bwd_uses[vi] > 0;
    if (!needed_in_bwd) {
      // Never needed again: always freed after the last forward use,
      // whatever the nominal class says.
      plan.discard[vi] = graph.value(v).producer != kNoNode ? 1 : 0;
      continue;
    }
    switch (classes.of(v)) {
      case ValueClass::kKeep:
        break;
      case ValueClass::kSwap:
        plan.swap_out[vi] = 1;
        plan.swap_bytes += value_bytes[vi];
        break;
      case ValueClass::kRecompute:
        plan.discard[vi] = 1;
        break;
    }
  }
}

}  // namespace pooch::sim
