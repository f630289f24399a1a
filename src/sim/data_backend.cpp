#include "sim/data_backend.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include <sys/mman.h>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "kernels/activations.hpp"
#include "kernels/batchnorm.hpp"
#include "kernels/conv.hpp"
#include "kernels/dropout.hpp"
#include "kernels/elementwise.hpp"
#include "kernels/fc.hpp"
#include "kernels/pool.hpp"
#include "kernels/softmax.hpp"
#include "tensor/tensor_ops.hpp"

namespace pooch::sim {

using graph::Graph;
using graph::LayerKind;
using graph::Node;
using graph::NodeId;
using graph::ValueId;

namespace {

/// Per-thread buffer for gradient contributions that land on an earlier
/// one: grows geometrically, is reused across calls, and its contents
/// are unspecified on entry (kernels overwrite their outputs).
float* thread_scratch(std::size_t floats) {
  thread_local std::vector<float> buffer;
  if (buffer.size() < floats) buffer.resize(std::max(floats, 2 * buffer.size()));
  return buffer.data();
}

std::size_t numel_of(const Tensor& t) {
  return static_cast<std::size_t>(t.numel());
}

}  // namespace

DataBackend::DataBackend(const Graph& graph, std::uint64_t seed, float lr,
                         kernels::KernelContext* ctx)
    : graph_(graph), lr_(lr), ctx_(ctx) {
  const std::size_t nv = static_cast<std::size_t>(graph.num_values());
  // Shape-only views, bound to slab memory as the executor places them.
  for (const graph::Value& v : graph.values()) {
    values_.push_back(Tensor::view(v.shape, nullptr));
    host_.push_back(Tensor::view(v.shape, nullptr));
    grads_.push_back(Tensor::view(v.shape, nullptr));
    scratch_views_.push_back(Tensor::view(v.shape, nullptr));
  }
  grad_written_.assign(nv, 0);
  params_.resize(static_cast<std::size_t>(graph.num_nodes()));
  param_grads_.resize(static_cast<std::size_t>(graph.num_nodes()));

  // Every random value comes from one SplitMix64 stream of `seed`, in a
  // fixed order: Kaiming-uniform weights, then inputs, then labels, one
  // draw per value. Each fill is uniform in [-bound, bound] (closed: the
  // float cast can round up to the bound) and records where in the
  // stream it starts; blocks of the fills then run in parallel, each from
  // a copy of the generator advanced to its first draw, and still produce
  // the serial stream's values bit for bit.
  struct Fill {
    float* data;
    std::int64_t n;
    std::uint64_t first_draw;
    float bound;
  };
  std::vector<Fill> fills;
  std::uint64_t draws = 0;
  auto add_fill = [&](Tensor& t, float bound) {
    fills.push_back({t.data(), t.numel(), draws, bound});
    draws += static_cast<std::uint64_t>(t.numel());
  };
  // Parameters and their gradients are views into one slab, each at a
  // 64-byte boundary. Its pages come zeroed from the kernel, so biases,
  // beta and every gradient start at 0 without a write, and a weight's
  // pages are first touched by the parallel fill below.
  constexpr std::size_t kParamAlign = 64 / sizeof(float);
  const auto padded = [](const Shape& s) {
    const auto n = static_cast<std::size_t>(s.numel());
    return (n + kParamAlign - 1) / kParamAlign * kParamAlign;
  };
  std::size_t param_floats = 0;
  for (const Node& n : graph.nodes()) {
    for (const Shape& s : graph.param_shapes(n.id)) {
      param_floats += 2 * padded(s);
    }
  }
  std::size_t param_at = 0;
  const auto carve = [&](const Shape& s) {
    Tensor t = Tensor::view(s, param_slab_.at(param_at * sizeof(float)));
    param_at += padded(s);
    return t;
  };
  param_slab_.grow(param_floats * sizeof(float));
  // Kaiming for weights, zeros for biases/beta, ones for gamma.
  for (const Node& n : graph.nodes()) {
    const auto shapes = graph.param_shapes(n.id);
    auto& ps = params_[static_cast<std::size_t>(n.id)];
    auto& gs = param_grads_[static_cast<std::size_t>(n.id)];
    for (std::size_t i = 0; i < shapes.size(); ++i) {
      Tensor& p = ps.emplace_back(carve(shapes[i]));
      gs.emplace_back(carve(shapes[i]));
      if (n.kind == LayerKind::kBatchNorm && i == 0) {
        p.fill(1.0f);  // gamma
      } else if (n.kind != LayerKind::kBatchNorm && shapes[i].rank() >= 2) {
        std::int64_t fan_in = 1;
        for (int d = 1; d < shapes[i].rank(); ++d) fan_in *= shapes[i][d];
        add_fill(p, kaiming_bound(fan_in));
      }
    }
  }

  // Synthetic inputs: a pristine copy survives across iterations.
  input_batch_.reserve(graph.inputs().size());
  for (ValueId in : graph.inputs()) {
    add_fill(input_batch_.emplace_back(graph.value(in).shape), 1.0f);
  }

  // One parallel_for over blocks of every fill: a call per tensor would
  // pay a pool wake-up per tensor.
  constexpr std::int64_t kFillGrain = std::int64_t{1} << 16;
  std::vector<std::pair<const Fill*, std::int64_t>> blocks;  // (fill, i0)
  for (const Fill& f : fills) {
    for (std::int64_t i0 = 0; i0 < f.n; i0 += kFillGrain) {
      blocks.emplace_back(&f, i0);
    }
  }
  parallel_for(
      kctx().pool(), static_cast<std::int64_t>(blocks.size()), 1,
      [&](std::int64_t b0, std::int64_t b1, int) {
        for (std::int64_t b = b0; b < b1; ++b) {
          const auto [f, i0] = blocks[static_cast<std::size_t>(b)];
          Rng rng(seed);
          rng.discard(f->first_draw + static_cast<std::uint64_t>(i0));
          const std::int64_t i1 = std::min(i0 + kFillGrain, f->n);
          for (std::int64_t i = i0; i < i1; ++i) {
            f->data[i] = static_cast<float>(rng.uniform(-f->bound, f->bound));
          }
        }
      });
  begin_iteration();

  // Labels for the loss layer (if present): derived from the logits shape.
  Rng rng(seed);
  rng.discard(draws);
  for (const Node& n : graph.nodes()) {
    if (n.kind != LayerKind::kSoftmaxLoss) continue;
    const Shape& logits = graph.value(n.inputs[0]).shape;
    labels_.resize(static_cast<std::size_t>(logits[0]));
    for (auto& l : labels_) {
      l = static_cast<std::int64_t>(rng.below(
          static_cast<std::uint64_t>(logits[1])));
    }
  }
}

thread_local const DataBackend* DataBackend::tls_backend_ = nullptr;
thread_local kernels::KernelContext* DataBackend::tls_ctx_ = nullptr;

DataBackend::ThreadContextGuard::ThreadContextGuard(
    const DataBackend& backend, kernels::KernelContext* ctx)
    : prev_backend_(tls_backend_), prev_ctx_(tls_ctx_) {
  tls_backend_ = &backend;
  tls_ctx_ = ctx;
}

DataBackend::ThreadContextGuard::~ThreadContextGuard() {
  tls_backend_ = prev_backend_;
  tls_ctx_ = prev_ctx_;
}

kernels::KernelContext& DataBackend::kctx() const {
  if (tls_backend_ == this && tls_ctx_) return *tls_ctx_;
  return ctx_ ? *ctx_ : kernels::KernelContext::serial();
}

DataBackend::Slab::~Slab() {
  if (base_) munmap(base_, bytes_);
}

bool DataBackend::Slab::grow(std::size_t bytes) {
  if (bytes <= bytes_) return false;
  if (base_) munmap(base_, bytes_);
  base_ = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
               MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (base_ == MAP_FAILED) {
    base_ = nullptr;
    bytes_ = 0;
    throw Error("cannot map a " + std::to_string(bytes) + "-byte slab");
  }
  bytes_ = bytes;
  return true;
}

float* DataBackend::Slab::at(std::size_t offset) const {
  POOCH_CHECK_MSG(offset % sizeof(float) == 0 && offset < bytes_,
                  "slab offset " << offset << " outside the " << bytes_
                                 << "-byte slab");
  return static_cast<float*>(base_) + offset / sizeof(float);
}

void DataBackend::reserve_slabs(std::size_t device_bytes,
                                std::size_t host_bytes) {
  if (device_.grow(device_bytes)) {
    for (Tensor& t : values_) t.release();
    for (Tensor& t : grads_) t.release();
  }
  if (host_slab_.grow(host_bytes)) {
    for (Tensor& t : host_) t.release();
  }
}

void DataBackend::place_value(ValueId v, std::size_t offset) {
  values_[static_cast<std::size_t>(v)].view_at(device_.at(offset));
}

void DataBackend::place_grad(ValueId v, std::size_t offset) {
  grads_[static_cast<std::size_t>(v)].view_at(device_.at(offset));
  grad_written_[static_cast<std::size_t>(v)] = 0;
}

void DataBackend::begin_iteration() {
  const auto& ins = graph_.inputs();
  for (std::size_t i = 0; i < ins.size(); ++i) {
    Tensor& t = values_[static_cast<std::size_t>(ins[i])];
    const Tensor& batch = input_batch_[i];
    if (t.empty()) {
      t.view_at(input_batch_[i].data());  // read-only: kernels never write
    } else if (t.data() != batch.data()) {
      std::memcpy(t.data(), batch.data(), batch.byte_size());
    }
  }
}

Tensor& DataBackend::ensure_grad(ValueId v) {
  const std::size_t vi = static_cast<std::size_t>(v);
  Tensor& t = grads_[vi];
  POOCH_CHECK_MSG(!t.empty(), "gradient of v" << v << " has no placement");
  if (!grad_written_[vi]) {
    t.fill(v == graph_.output() ? 1.0f : 0.0f);
    grad_written_[vi] = 1;
  }
  return t;
}

Tensor& DataBackend::contribution(ValueId v, bool first) {
  const std::size_t vi = static_cast<std::size_t>(v);
  POOCH_CHECK_MSG(!grads_[vi].empty(),
                  "gradient of v" << v << " has no placement");
  if (first) return grads_[vi];
  Tensor& s = scratch_views_[vi];
  s.view_at(thread_scratch(numel_of(s)));
  return s;
}

void DataBackend::commit(ValueId v, const Tensor& written) {
  const std::size_t vi = static_cast<std::size_t>(v);
  if (&written == &grads_[vi]) {
    grad_written_[vi] = 1;
  } else {
    accumulate(grads_[vi], written);
  }
}

void DataBackend::forward(NodeId id, std::uint64_t iteration) {
  const Node& n = graph_.node(id);
  for (ValueId in : n.inputs) {
    POOCH_CHECK_MSG(value_resident(in),
                    "forward of '" << n.name << "': input v" << in
                                   << " not resident");
  }
  const Tensor& x = values_[static_cast<std::size_t>(n.inputs[0])];
  Tensor& y = values_[static_cast<std::size_t>(n.output)];
  POOCH_CHECK_MSG(!y.empty(), "forward of '" << n.name << "': output v"
                                             << n.output
                                             << " has no placement");
  auto& ps = params_[static_cast<std::size_t>(id)];
  switch (n.kind) {
    case LayerKind::kConv: {
      const auto& a = std::get<ConvAttrs>(n.attrs);
      kernels::conv_forward(x, ps[0], a.has_bias ? &ps[1] : nullptr, y, a,
                            kctx());
      break;
    }
    case LayerKind::kMaxPool:
    case LayerKind::kAvgPool:
      kernels::pool_forward(x, y, std::get<PoolAttrs>(n.attrs), kctx());
      break;
    case LayerKind::kGlobalAvgPool:
      kernels::global_avg_pool_forward(x, y, kctx());
      break;
    case LayerKind::kBatchNorm:
      kernels::batchnorm_forward(x, ps[0], ps[1], y,
                                 std::get<BatchNormAttrs>(n.attrs), kctx());
      break;
    case LayerKind::kReLU:
      kernels::relu_forward(x, y, kctx());
      break;
    case LayerKind::kFullyConnected: {
      const auto& a = std::get<FcAttrs>(n.attrs);
      kernels::fc_forward(x, ps[0], a.has_bias ? &ps[1] : nullptr, y, a,
                          kctx());
      break;
    }
    case LayerKind::kSoftmaxLoss:
      kernels::softmax_xent_forward(x, labels_, y, kctx());
      last_loss_ = y[0];
      break;
    case LayerKind::kAdd:
      kernels::add_forward(x, values_[static_cast<std::size_t>(n.inputs[1])],
                           y, kctx());
      break;
    case LayerKind::kConcat: {
      std::vector<const Tensor*> ins;
      for (ValueId in : n.inputs) {
        ins.push_back(&values_[static_cast<std::size_t>(in)]);
      }
      kernels::concat_forward(ins, y, kctx());
      break;
    }
    case LayerKind::kFlatten:
      kernels::flatten_forward(x, y, kctx());
      break;
    case LayerKind::kDropout:
      kernels::dropout_forward(x, y, std::get<DropoutAttrs>(n.attrs),
                               iteration, kctx());
      break;
  }
}

void DataBackend::backward(NodeId id, std::uint64_t iteration) {
  const Node& n = graph_.node(id);
  const Tensor& dy = ensure_grad(n.output);
  auto& ps = params_[static_cast<std::size_t>(id)];
  auto& gs = param_grads_[static_cast<std::size_t>(id)];
  const ValueId x_id = n.inputs[0];
  const bool want_dx = graph_.value(x_id).producer != graph::kNoNode;

  auto stored = [&](ValueId v) -> const Tensor& {
    POOCH_CHECK_MSG(value_resident(v), "backward of '"
                                           << n.name << "': stored v" << v
                                           << " not resident");
    return values_[static_cast<std::size_t>(v)];
  };
  if (n.kind == LayerKind::kAdd || n.kind == LayerKind::kConcat) {
    backward_fan_in(n, dy);
    return;
  }
  // The kernels below write dx only when x takes a gradient; the layers
  // that have no other output skip the kernel otherwise.
  Tensor* dx = nullptr;
  if (want_dx) {
    dx = &contribution(x_id, !grad_written_[static_cast<std::size_t>(x_id)]);
  }

  switch (n.kind) {
    case LayerKind::kConv: {
      const auto& a = std::get<ConvAttrs>(n.attrs);
      kernels::conv_backward(stored(x_id), ps[0], dy, dx, gs[0],
                             a.has_bias ? &gs[1] : nullptr, a, kctx());
      break;
    }
    case LayerKind::kMaxPool:
    case LayerKind::kAvgPool: {
      if (!dx) break;
      const auto& a = std::get<PoolAttrs>(n.attrs);
      // Average pooling backward needs only x's shape, which the unbound
      // view of x carries.
      const Tensor& x = a.mode == PoolMode::kMax
                            ? stored(x_id)
                            : values_[static_cast<std::size_t>(x_id)];
      kernels::pool_backward(x, dy, *dx, a, kctx());
      break;
    }
    case LayerKind::kGlobalAvgPool:
      if (dx) {
        kernels::global_avg_pool_backward(dx->shape(), dy, *dx, kctx());
      }
      break;
    case LayerKind::kBatchNorm:
      kernels::batchnorm_backward(stored(x_id), ps[0], dy, dx, gs[0], gs[1],
                                  std::get<BatchNormAttrs>(n.attrs), kctx());
      break;
    case LayerKind::kReLU:
      // An in-place gradient writes dx over dy: elementwise, so safe.
      if (dx) kernels::relu_backward(stored(n.output), dy, *dx, kctx());
      break;
    case LayerKind::kFullyConnected: {
      const auto& a = std::get<FcAttrs>(n.attrs);
      kernels::fc_backward(stored(x_id), ps[0], dy, dx, gs[0],
                           a.has_bias ? &gs[1] : nullptr, a, kctx());
      break;
    }
    case LayerKind::kSoftmaxLoss:
      if (dx) {
        kernels::softmax_xent_backward(stored(x_id), labels_, dy, *dx,
                                       kctx());
      }
      break;
    case LayerKind::kAdd:
    case LayerKind::kConcat:
      break;  // backward_fan_in
    case LayerKind::kFlatten:
      // In place, dx already is dy.
      if (dx && dx->data() != dy.data()) {
        kernels::flatten_backward(dx->shape(), dy, *dx, kctx());
      }
      break;
    case LayerKind::kDropout:
      if (dx) {
        kernels::dropout_backward(dy, *dx, std::get<DropoutAttrs>(n.attrs),
                                  iteration, kctx());
      }
      break;
  }
  if (dx) commit(x_id, *dx);
}

void DataBackend::backward_fan_in(const Node& n, const Tensor& dy) {
  if (n.kind == LayerKind::kAdd) {
    // dx = dy for each input: copied into a first contribution, added
    // straight onto a later one.
    for (ValueId in : n.inputs) {
      if (graph_.value(in).producer == graph::kNoNode) continue;
      const std::size_t ii = static_cast<std::size_t>(in);
      if (grad_written_[ii]) {
        accumulate(grads_[ii], dy);
      } else {
        Tensor& d = contribution(in, /*first=*/true);
        std::memcpy(d.data(), dy.data(), dy.byte_size());
        commit(in, d);
      }
    }
    return;
  }
  // Concat: a part lands in its gradient's buffer when the gradient
  // holds no contribution and no earlier part of this concat feeds it.
  // The other parts go to the thread's scratch, sized for all of them
  // before any view is taken; inputs without a gradient to a throwaway.
  const std::size_t k = n.inputs.size();
  std::vector<char> first(k, 0);
  std::size_t later = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const ValueId in = n.inputs[i];
    first[i] = !grad_written_[static_cast<std::size_t>(in)] &&
               graph_.value(in).producer != graph::kNoNode &&
               std::find(n.inputs.begin(), n.inputs.begin() + i, in) ==
                   n.inputs.begin() + i;
    if (!first[i]) later += numel_of(values_[static_cast<std::size_t>(in)]);
  }
  float* scratch = thread_scratch(later);
  std::vector<Tensor*> parts;
  std::vector<Tensor> scratch_parts;
  scratch_parts.reserve(k);  // parts point into it
  for (std::size_t i = 0; i < k; ++i) {
    const ValueId in = n.inputs[i];
    if (first[i]) {
      parts.push_back(&contribution(in, true));
      continue;
    }
    parts.push_back(
        &scratch_parts.emplace_back(Tensor::view(graph_.value(in).shape,
                                                 scratch)));
    scratch += numel_of(*parts.back());
  }
  kernels::concat_backward(dy, parts, kctx());
  for (std::size_t i = 0; i < k; ++i) {
    if (graph_.value(n.inputs[i]).producer == graph::kNoNode) continue;
    commit(n.inputs[i], *parts[i]);
  }
}

void DataBackend::swap_out(ValueId v, std::size_t host_offset) {
  POOCH_CHECK_MSG(value_resident(v), "swap_out of non-resident v" << v);
  const Tensor& d = values_[static_cast<std::size_t>(v)];
  Tensor& h = host_[static_cast<std::size_t>(v)];
  h.view_at(host_slab_.at(host_offset));
  std::memcpy(h.data(), d.data(), d.byte_size());
}

void DataBackend::swap_in(ValueId v) {
  const Tensor& h = host_[static_cast<std::size_t>(v)];
  Tensor& d = values_[static_cast<std::size_t>(v)];
  POOCH_CHECK_MSG(!h.empty(), "swap_in without host copy for v" << v);
  POOCH_CHECK_MSG(!d.empty(), "swap_in of v" << v << " without a placement");
  // Copy, not move: the schedule treats a swapped-in value as a clean
  // page whose host copy stays valid — rescue eviction drops the device
  // buffer without re-writing host and re-fetches later.
  std::memcpy(d.data(), h.data(), h.byte_size());
}

void DataBackend::free_value(ValueId v) {
  values_[static_cast<std::size_t>(v)].release();
}

void DataBackend::free_grad(ValueId v) {
  grads_[static_cast<std::size_t>(v)].release();
}

void DataBackend::update() {
  // Plain SGD. Elements are independent, so the flat per-tensor range can
  // be partitioned freely — results match the serial loop bit-for-bit.
  for (const Node& n : graph_.nodes()) {
    auto& ps = params_[static_cast<std::size_t>(n.id)];
    auto& gs = param_grads_[static_cast<std::size_t>(n.id)];
    for (std::size_t i = 0; i < ps.size(); ++i) {
      float* p = ps[i].data();
      const float* g = gs[i].data();
      parallel_for(kctx().pool(), ps[i].numel(), 1 << 14,
                   [&](std::int64_t j0, std::int64_t j1, int) {
                     for (std::int64_t j = j0; j < j1; ++j) {
                       p[j] -= lr_ * g[j];
                     }
                   });
    }
  }
}

float DataBackend::loss() const { return last_loss_; }

const Tensor& DataBackend::value(ValueId v) const {
  return values_[static_cast<std::size_t>(v)];
}

bool DataBackend::value_resident(ValueId v) const {
  const Tensor& t = values_[static_cast<std::size_t>(v)];
  return t.numel() == 0 ? false : !t.empty();
}

const Tensor& DataBackend::grad(ValueId v) const {
  return grads_[static_cast<std::size_t>(v)];
}

const std::vector<Tensor>& DataBackend::params(NodeId node) const {
  return params_[static_cast<std::size_t>(node)];
}

double DataBackend::param_norm() const {
  double acc = 0.0;
  for (const auto& ps : params_) {
    for (const Tensor& p : ps) {
      const double n = l2_norm(p);
      acc += n * n;
    }
  }
  return std::sqrt(acc);
}

std::string DataBackend::first_difference(const DataBackend& other) const {
  POOCH_CHECK(graph_.num_nodes() == other.graph_.num_nodes());
  for (const auto& n : graph_.nodes()) {
    const auto i = static_cast<std::size_t>(n.id);
    POOCH_CHECK(params_[i].size() == other.params_[i].size());
    for (std::size_t k = 0; k < params_[i].size(); ++k) {
      const char* what =
          !bit_equal(params_[i][k], other.params_[i][k]) ? "param "
          : !bit_equal(param_grads_[i][k], other.param_grads_[i][k])
              ? "param grad "
              : nullptr;
      if (what) return what + std::to_string(k) + " of '" + n.name + "'";
    }
  }
  if (std::memcmp(&last_loss_, &other.last_loss_, sizeof(float)) != 0) {
    return "loss";
  }
  return "";
}

}  // namespace pooch::sim
