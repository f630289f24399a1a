#include "graph/graph.hpp"

#include <sstream>

#include "common/error.hpp"
#include "kernels/conv.hpp"
#include "kernels/fc.hpp"
#include "kernels/pool.hpp"

namespace pooch::graph {

const char* layer_kind_name(LayerKind kind) {
  switch (kind) {
    case LayerKind::kConv: return "conv";
    case LayerKind::kMaxPool: return "maxpool";
    case LayerKind::kAvgPool: return "avgpool";
    case LayerKind::kGlobalAvgPool: return "gap";
    case LayerKind::kBatchNorm: return "batchnorm";
    case LayerKind::kReLU: return "relu";
    case LayerKind::kFullyConnected: return "fc";
    case LayerKind::kSoftmaxLoss: return "softmax_loss";
    case LayerKind::kAdd: return "add";
    case LayerKind::kConcat: return "concat";
    case LayerKind::kFlatten: return "flatten";
    case LayerKind::kDropout: return "dropout";
  }
  return "?";
}

bool is_compute_bound(LayerKind kind) {
  return kind == LayerKind::kConv || kind == LayerKind::kFullyConnected;
}

ValueId Graph::add_input(Shape shape, std::string name) {
  Value v;
  v.id = static_cast<ValueId>(values_.size());
  v.shape = std::move(shape);
  v.producer = kNoNode;
  v.name = std::move(name);
  values_.push_back(std::move(v));
  inputs_.push_back(values_.back().id);
  return values_.back().id;
}

ValueId Graph::add(LayerKind kind, LayerAttrs attrs,
                   std::vector<ValueId> inputs, std::string name) {
  POOCH_CHECK_MSG(!inputs.empty(), "layer '" << name << "' has no inputs");
  for (ValueId in : inputs) {
    POOCH_CHECK_MSG(in >= 0 && in < num_values(),
                    "layer '" << name << "' consumes undefined value " << in);
  }
  Node n;
  n.id = static_cast<NodeId>(nodes_.size());
  n.kind = kind;
  n.attrs = std::move(attrs);
  n.name = name;
  n.inputs = inputs;

  Value out;
  out.id = static_cast<ValueId>(values_.size());
  out.shape = infer_output_shape(kind, n.attrs, inputs);
  out.producer = n.id;
  out.name = name + ".out";
  n.output = out.id;

  for (ValueId in : inputs) {
    values_[static_cast<std::size_t>(in)].consumers.push_back(n.id);
  }
  nodes_.push_back(std::move(n));
  values_.push_back(std::move(out));
  return values_.back().id;
}

const Node& Graph::node(NodeId id) const {
  POOCH_CHECK_MSG(id >= 0 && id < num_nodes(), "bad node id " << id);
  return nodes_[static_cast<std::size_t>(id)];
}

const Value& Graph::value(ValueId id) const {
  POOCH_CHECK_MSG(id >= 0 && id < num_values(), "bad value id " << id);
  return values_[static_cast<std::size_t>(id)];
}

ValueId Graph::output() const {
  POOCH_CHECK_MSG(!nodes_.empty(), "empty graph has no output");
  return nodes_.back().output;
}

Shape Graph::infer_output_shape(LayerKind kind, const LayerAttrs& attrs,
                                const std::vector<ValueId>& inputs) const {
  const Shape& in0 = value(inputs[0]).shape;
  switch (kind) {
    case LayerKind::kConv:
      POOCH_CHECK(inputs.size() == 1);
      return kernels::conv_output_shape(in0, std::get<ConvAttrs>(attrs));
    case LayerKind::kMaxPool:
    case LayerKind::kAvgPool:
      POOCH_CHECK(inputs.size() == 1);
      return kernels::pool_output_shape(in0, std::get<PoolAttrs>(attrs));
    case LayerKind::kGlobalAvgPool:
      POOCH_CHECK(inputs.size() == 1);
      return kernels::global_avg_pool_output_shape(in0);
    case LayerKind::kBatchNorm:
    case LayerKind::kReLU:
    case LayerKind::kDropout:
      POOCH_CHECK(inputs.size() == 1);
      return in0;
    case LayerKind::kFullyConnected:
      POOCH_CHECK(inputs.size() == 1);
      return kernels::fc_output_shape(in0, std::get<FcAttrs>(attrs));
    case LayerKind::kSoftmaxLoss:
      POOCH_CHECK(inputs.size() == 1);
      POOCH_CHECK_MSG(in0.rank() == 2, "softmax loss input must be (N, C)");
      return Shape{1};
    case LayerKind::kAdd: {
      POOCH_CHECK(inputs.size() == 2);
      const Shape& in1 = value(inputs[1]).shape;
      POOCH_CHECK_MSG(in0 == in1, "add shape mismatch " << in0.to_string()
                                                        << " vs "
                                                        << in1.to_string());
      return in0;
    }
    case LayerKind::kConcat: {
      POOCH_CHECK(inputs.size() >= 1);
      std::int64_t channels = 0;
      for (ValueId in : inputs) {
        const Shape& s = value(in).shape;
        POOCH_CHECK(s.rank() == in0.rank());
        for (int i = 0; i < s.rank(); ++i) {
          if (i == 1) continue;
          POOCH_CHECK(s[i] == in0[i]);
        }
        channels += s[1];
      }
      return in0.with_dim(1, channels);
    }
    case LayerKind::kFlatten:
      POOCH_CHECK(inputs.size() == 1);
      return in0.flatten2d();
  }
  throw Error("unknown layer kind");
}

std::vector<Shape> Graph::param_shapes(NodeId id) const {
  const Node& n = node(id);
  const Shape& in0 = value(n.inputs[0]).shape;
  switch (n.kind) {
    case LayerKind::kConv: {
      const auto& a = std::get<ConvAttrs>(n.attrs);
      std::vector<Shape> out{kernels::conv_weight_shape(in0, a)};
      if (a.has_bias) out.push_back(Shape{a.out_channels});
      return out;
    }
    case LayerKind::kFullyConnected: {
      const auto& a = std::get<FcAttrs>(n.attrs);
      std::vector<Shape> out{kernels::fc_weight_shape(in0, a)};
      if (a.has_bias) out.push_back(Shape{a.out_features});
      return out;
    }
    case LayerKind::kBatchNorm: {
      const std::int64_t c = in0[1];
      return {Shape{c}, Shape{c}};
    }
    default:
      return {};
  }
}

std::size_t Graph::total_param_bytes() const {
  std::size_t bytes = 0;
  for (const Node& n : nodes_) {
    for (const Shape& s : param_shapes(n.id)) {
      bytes += static_cast<std::size_t>(s.numel()) * 4;
    }
  }
  return bytes;
}

std::size_t Graph::workspace_bytes(NodeId id) const {
  const Node& n = node(id);
  if (n.kind != LayerKind::kConv) return 0;
  return std::min(kMaxConvWorkspace,
                  kernels::conv_workspace_bytes(value(n.inputs[0]).shape,
                                                std::get<ConvAttrs>(n.attrs)));
}

void Graph::validate() const {
  for (const Node& n : nodes_) {
    POOCH_CHECK(n.output >= 0 && n.output < num_values());
    POOCH_CHECK(value(n.output).producer == n.id);
    for (ValueId in : n.inputs) {
      const Value& v = value(in);
      // Topological ordering: inputs are produced by earlier nodes.
      POOCH_CHECK(v.producer == kNoNode || v.producer < n.id);
    }
  }
  for (const Value& v : values_) {
    for (NodeId c : v.consumers) {
      bool found = false;
      for (ValueId in : node(c).inputs) found = found || in == v.id;
      POOCH_CHECK(found);
    }
  }
}

std::string Graph::to_string() const {
  std::ostringstream os;
  for (const Node& n : nodes_) {
    os << "#" << n.id << " " << layer_kind_name(n.kind) << " '" << n.name
       << "' (";
    for (std::size_t i = 0; i < n.inputs.size(); ++i) {
      if (i != 0) os << ", ";
      os << "v" << n.inputs[i];
    }
    os << ") -> v" << n.output << " "
       << value(n.output).shape.to_string() << "\n";
  }
  return os.str();
}

}  // namespace pooch::graph
