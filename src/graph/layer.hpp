// Layer kinds and their attribute payloads.
//
// A layer kind + attrs fully determines the shape inference, the real CPU
// kernel, the analytic FLOP/byte counts, and which stored feature maps its
// backward pass needs — the four facts the rest of the system consumes.
#pragma once

#include <cstdint>
#include <string>
#include <variant>

#include "kernels/attrs.hpp"

namespace pooch::graph {

enum class LayerKind {
  kConv,            // 2-D or 3-D, grouped (ConvAttrs)
  kMaxPool,         // (PoolAttrs)
  kAvgPool,         // (PoolAttrs)
  kGlobalAvgPool,   // no attrs
  kBatchNorm,       // (BatchNormAttrs)
  kReLU,            // no attrs
  kFullyConnected,  // (FcAttrs)
  kSoftmaxLoss,     // no attrs; labels supplied by the executor
  kAdd,             // two inputs, no attrs
  kConcat,          // n inputs along channel axis, no attrs
  kFlatten,         // no attrs
  kDropout,         // (DropoutAttrs)
};

const char* layer_kind_name(LayerKind kind);

using LayerAttrs = std::variant<std::monostate, ConvAttrs, PoolAttrs,
                                BatchNormAttrs, FcAttrs, DropoutAttrs>;

}  // namespace pooch::graph
