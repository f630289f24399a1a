#include "exec/schedule.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "sim/time_model.hpp"

namespace pooch::exec {

namespace {

/// Flat resource ids: VALUE [0,V), GRAD [V,2V), PARAM [2V,2V+N),
/// HOST [2V+N, 2V+N+V).
struct ResourceSpace {
  std::int32_t num_values;
  std::int32_t num_nodes;

  std::int32_t value(graph::ValueId v) const { return v; }
  std::int32_t grad(graph::ValueId v) const { return num_values + v; }
  std::int32_t param(graph::NodeId n) const { return 2 * num_values + n; }
  std::int32_t host(graph::ValueId v) const {
    return 2 * num_values + num_nodes + v;
  }
  std::int32_t total() const { return 3 * num_values + num_nodes; }
};

/// Per-resource hazard state: the last writer plus every reader since.
struct ResourceState {
  std::int32_t last_writer = -1;
  std::vector<std::int32_t> readers_since;
};

/// The read/write footprint of one op, as resource-id lists.
struct Footprint {
  std::vector<std::int32_t> reads;
  std::vector<std::int32_t> writes;

  void clear() {
    reads.clear();
    writes.clear();
  }
};

void footprint_of(const graph::Graph& graph,
                  const std::vector<const graph::BwdStep*>& step_of_node,
                  const ResourceSpace& rs, const StreamOp& op,
                  Footprint& fp) {
  fp.clear();
  switch (op.type) {
    case OpType::kBeginIteration:
      // Re-installs the input batch into every graph-input slot.
      for (graph::ValueId in : graph.inputs()) {
        fp.writes.push_back(rs.value(in));
      }
      break;
    case OpType::kForward:
    case OpType::kRecompute: {
      const graph::Node& n = graph.node(op.node);
      for (graph::ValueId in : n.inputs) fp.reads.push_back(rs.value(in));
      fp.reads.push_back(rs.param(op.node));
      fp.writes.push_back(rs.value(n.output));
      break;
    }
    case OpType::kBackward: {
      const graph::BwdStep* step = step_of_node[
          static_cast<std::size_t>(op.node)];
      POOCH_CHECK_MSG(step != nullptr,
                      "backward op for node " << op.node << " not on tape");
      for (graph::ValueId v : step->needed) fp.reads.push_back(rs.value(v));
      // dy = ensure_grad(output) may materialize the slot (the loss
      // seed), and every grad_output accumulates in program order —
      // both are writes so the accumulation chain stays serialized.
      fp.writes.push_back(rs.grad(graph.node(op.node).output));
      for (graph::ValueId v : step->grad_outputs) {
        fp.writes.push_back(rs.grad(v));
      }
      // Reads the params, writes the param grads: one combined unit.
      fp.writes.push_back(rs.param(op.node));
      break;
    }
    case OpType::kUpdate:
      // SGD touches every node's params + param grads.
      for (const graph::Node& n : graph.nodes()) {
        fp.writes.push_back(rs.param(n.id));
      }
      break;
    case OpType::kSwapOut:
      // Destructive move device -> host: a write on both sides.
      fp.writes.push_back(rs.value(op.value));
      fp.writes.push_back(rs.host(op.value));
      break;
    case OpType::kSwapIn:
      // Deep copy host -> device; the host page stays clean.
      fp.reads.push_back(rs.host(op.value));
      fp.writes.push_back(rs.value(op.value));
      break;
    case OpType::kFreeValue:
      fp.writes.push_back(rs.value(op.value));
      if (op.releases_host) fp.writes.push_back(rs.host(op.value));
      break;
    case OpType::kFreeGrad:
      fp.writes.push_back(rs.grad(op.value));
      break;
  }
}

}  // namespace

double op_cost(const StreamOp& op, const sim::TimeModel* tm) {
  if (!tm) return std::max(0.0, op.sim_end - op.sim_start);
  switch (op.type) {
    case OpType::kForward:
    case OpType::kRecompute:
      return tm->forward_time(op.node);
    case OpType::kBackward:
      return tm->backward_time(op.node);
    case OpType::kUpdate:
      return tm->update_time();
    case OpType::kSwapOut:
      return tm->d2h_time(op.value);
    case OpType::kSwapIn:
      return tm->h2d_time(op.value);
    case OpType::kBeginIteration:
    case OpType::kFreeValue:
    case OpType::kFreeGrad:
      return 0.0;
  }
  return 0.0;
}

Schedule build_schedule(const graph::Graph& graph,
                        const std::vector<graph::BwdStep>& tape,
                        const OpStream& stream,
                        const sim::TimeModel* time_model) {
  const std::size_t n_ops = stream.ops.size();
  const ResourceSpace rs{graph.num_values(), graph.num_nodes()};

  std::vector<const graph::BwdStep*> step_of_node(
      static_cast<std::size_t>(graph.num_nodes()), nullptr);
  for (const graph::BwdStep& s : tape) {
    step_of_node[static_cast<std::size_t>(s.node)] = &s;
  }

  Schedule sched;
  sched.deps.resize(n_ops);
  sched.succs.resize(n_ops);
  sched.cost.resize(n_ops);
  sched.priority.assign(n_ops, 0.0);

  std::vector<ResourceState> state(static_cast<std::size_t>(rs.total()));
  Footprint fp;
  for (std::size_t i = 0; i < n_ops; ++i) {
    const StreamOp& op = stream.ops[i];
    const std::int32_t self = static_cast<std::int32_t>(i);
    footprint_of(graph, step_of_node, rs, op, fp);

    std::vector<std::int32_t>& deps = sched.deps[i];
    for (std::int32_t r : fp.reads) {
      ResourceState& st = state[static_cast<std::size_t>(r)];
      if (st.last_writer >= 0) deps.push_back(st.last_writer);
      st.readers_since.push_back(self);
    }
    for (std::int32_t w : fp.writes) {
      ResourceState& st = state[static_cast<std::size_t>(w)];
      if (st.last_writer >= 0) deps.push_back(st.last_writer);
      for (std::int32_t rd : st.readers_since) deps.push_back(rd);
      st.last_writer = self;
      st.readers_since.clear();
    }
    std::sort(deps.begin(), deps.end());
    deps.erase(std::unique(deps.begin(), deps.end()), deps.end());
    // An op that reads and writes the same resource would list itself.
    while (!deps.empty() && deps.back() >= self) deps.pop_back();
    for (std::int32_t d : deps) {
      POOCH_CHECK_MSG(d >= 0 && d < self, "hazard edge out of range");
      sched.succs[static_cast<std::size_t>(d)].push_back(self);
    }

    sched.cost[i] = op_cost(op, time_model);
  }

  // Critical path to sink: deps always point backwards, so a reverse
  // index sweep sees every successor before the op itself.
  for (std::size_t i = n_ops; i-- > 0;) {
    double tail = 0.0;
    for (std::int32_t s : sched.succs[i]) {
      tail = std::max(tail, sched.priority[static_cast<std::size_t>(s)]);
    }
    sched.priority[i] = sched.cost[i] + tail;
    sched.critical_path_seconds =
        std::max(sched.critical_path_seconds, sched.priority[i]);
  }
  return sched;
}

}  // namespace pooch::exec
