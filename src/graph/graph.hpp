// Static computation-graph IR.
//
// A Graph is a DAG of layer Nodes over feature-map Values. Builders append
// nodes in topological order (enforced: a node may only consume already-
// defined values), so `nodes()` *is* the forward execution order — the
// same convention Chainer's define-by-run tape gives the original PoocH.
//
// Values are the unit of out-of-core classification: each carries a shape
// (hence a byte size), its producer, and its forward consumers.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/layer.hpp"
#include "tensor/shape.hpp"

namespace pooch::graph {

using NodeId = std::int32_t;
using ValueId = std::int32_t;
inline constexpr NodeId kNoNode = -1;

struct Node {
  NodeId id = kNoNode;
  LayerKind kind{};
  LayerAttrs attrs;
  std::string name;
  std::vector<ValueId> inputs;
  ValueId output = -1;
};

struct Value {
  ValueId id = -1;
  Shape shape;
  NodeId producer = kNoNode;  // kNoNode for graph inputs
  std::vector<NodeId> consumers;
  std::string name;

  std::size_t byte_size() const {
    return static_cast<std::size_t>(shape.numel()) * 4;  // f32
  }
};

class Graph {
 public:
  /// Declare a graph input (the training mini-batch).
  ValueId add_input(Shape shape, std::string name);

  /// Append a layer; returns the id of its output value. Inputs must
  /// already exist. Output shape is inferred from kind/attrs.
  ValueId add(LayerKind kind, LayerAttrs attrs, std::vector<ValueId> inputs,
              std::string name);

  const std::vector<Node>& nodes() const { return nodes_; }
  const std::vector<Value>& values() const { return values_; }
  const Node& node(NodeId id) const;
  const Value& value(ValueId id) const;

  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  int num_values() const { return static_cast<int>(values_.size()); }

  const std::vector<ValueId>& inputs() const { return inputs_; }

  /// The final value (typically the loss); the last node's output.
  ValueId output() const;

  /// Parameter shapes of a node in kernel order (e.g. conv: weight, bias;
  /// batchnorm: gamma, beta). Empty for parameter-free layers.
  std::vector<Shape> param_shapes(NodeId id) const;

  /// Total parameter bytes across the graph (f32).
  std::size_t total_param_bytes() const;

  /// Conv workspace bytes for a node (0 for non-conv). Capped at
  /// kMaxConvWorkspace: beyond that a real framework selects a tiled or
  /// workspace-free algorithm rather than allocating the full im2col
  /// buffer (cuDNN's workspace-limit behaviour).
  static constexpr std::size_t kMaxConvWorkspace =
      std::size_t{1} << 30;  // 1 GiB
  std::size_t workspace_bytes(NodeId id) const;

  /// Sanity-check the invariants (shapes consistent, DAG ordering).
  void validate() const;

  /// Human-readable multi-line dump.
  std::string to_string() const;

 private:
  Shape infer_output_shape(LayerKind kind, const LayerAttrs& attrs,
                           const std::vector<ValueId>& inputs) const;

  std::vector<Node> nodes_;
  std::vector<Value> values_;
  std::vector<ValueId> inputs_;
};

}  // namespace pooch::graph
