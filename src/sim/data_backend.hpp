// Real numeric state of one training job.
//
// exec::AsyncExecutor drives this backend by replaying an exported op
// stream: forward/backward kernels, host<->device copies, frees, and the
// SGD update, each op one call below.
//
// Memory is the plan's. Every feature map and gradient is a view into
// one device slab, at the offset the simulated arena placed it (the
// executor binds each placement before the op that writes it), and a
// swap-out copies into the value's fixed slot of one host slab. Neither
// slab is ever zero-filled: kernels overwrite their outputs, a gradient
// nothing flowed into is filled explicitly, and a second contribution to
// a gradient is computed into per-thread scratch and added. So an
// iteration allocates, zero-fills and frees no tensor, and a placement
// that overlaps a live buffer corrupts the numbers the differential
// tests compare. Parameters and their gradients sit in a third slab,
// whose fresh pages are the zeros they start from.
//
// Its purpose is verification: a training iteration executed under any
// feasible classification must produce bit-identical losses, gradients
// and updated parameters to the in-core (all-keep) run. The paper asserts
// swap/recompute transparency; this backend lets tests prove it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "kernels/kernel_context.hpp"
#include "tensor/tensor.hpp"

namespace pooch::sim {

class DataBackend {
 public:
  /// Initialises parameters, synthetic inputs and labels from `seed`.
  /// `ctx` (not owned, must outlive the backend) selects the kernel
  /// execution context: null runs every kernel serially; a pooled context
  /// runs them multithreaded. Because every kernel is bit-identical
  /// across thread counts, the backend's losses/gradients/parameters do
  /// not depend on which context is attached.
  DataBackend(const graph::Graph& graph, std::uint64_t seed,
              float learning_rate = 0.01f,
              kernels::KernelContext* ctx = nullptr);

  /// RAII override routing the *current thread's* kernel calls on
  /// `backend` through `ctx` instead of the constructor-attached
  /// context. The AsyncExecutor installs one per compute worker so
  /// concurrent kernels never share scratch arenas (a context's
  /// per-slot buffers are private to one running kernel). Other
  /// threads — and this thread once the guard dies — are unaffected.
  /// Bit-exact kernels make the routing invisible in the numerics.
  class ThreadContextGuard {
   public:
    ThreadContextGuard(const DataBackend& backend,
                       kernels::KernelContext* ctx);
    ~ThreadContextGuard();
    ThreadContextGuard(const ThreadContextGuard&) = delete;
    ThreadContextGuard& operator=(const ThreadContextGuard&) = delete;

   private:
    const DataBackend* prev_backend_;
    kernels::KernelContext* prev_ctx_;
  };

  // --- memory, driven by the executor (exec::SlabLayout) ---
  /// Grow the device and host slabs to at least these sizes; they never
  /// shrink, and their pages are never touched here. Growing drops every
  /// view into the old slab: a run places each buffer before writing it.
  void reserve_slabs(std::size_t device_bytes, std::size_t host_bytes);
  /// Bind v's feature map / gradient to the device slab at byte `offset`.
  /// A freshly placed gradient holds no contribution yet.
  void place_value(graph::ValueId v, std::size_t offset);
  void place_grad(graph::ValueId v, std::size_t offset);

  // --- ops invoked by the executor, one per StreamOp ---
  /// Copies the input batch into the placed input buffers (mirrors the
  /// per-iteration H2D upload of training data); the first op of every
  /// exported stream. Unplaced inputs view the pristine batch.
  void begin_iteration();
  void forward(graph::NodeId node, std::uint64_t iteration);
  void backward(graph::NodeId node, std::uint64_t iteration);
  /// Device -> host: copies v into its host slot at byte `host_offset`.
  void swap_out(graph::ValueId value, std::size_t host_offset);
  /// Host -> device: copies the host slot into v's placed buffer (the
  /// host copy stays a clean page).
  void swap_in(graph::ValueId value);
  void free_value(graph::ValueId value);
  void free_grad(graph::ValueId value);
  void update();

  // --- inspection (tests, examples) ---
  float loss() const;
  const Tensor& value(graph::ValueId v) const;
  bool value_resident(graph::ValueId v) const;
  const std::vector<Tensor>& params(graph::NodeId node) const;

  /// Flat L2 norm over all parameters (cheap convergence signal).
  double param_norm() const;

  /// The bit-identity verdict between two training states of the same
  /// graph: "" when every parameter, parameter gradient and the loss
  /// match bit for bit, otherwise the first that differs — "param 0 of
  /// 'conv1'" / "param grad 0 of 'conv1'" in graph order, then "loss".
  std::string first_difference(const DataBackend& other) const;

 private:
  /// One anonymous memory mapping the views point into. Mapped outside
  /// malloc, so freeing a slab never moves malloc's mmap threshold
  /// (which would leave later heap allocations resident), and no page
  /// is touched until an op writes it.
  class Slab {
   public:
    Slab() = default;
    ~Slab();
    Slab(const Slab&) = delete;
    Slab& operator=(const Slab&) = delete;

    /// Remap to at least `bytes` when larger; returns whether it moved.
    bool grow(std::size_t bytes);
    float* at(std::size_t offset) const;

   private:
    void* base_ = nullptr;
    std::size_t bytes_ = 0;
  };

  /// v's gradient as dy: a gradient nothing flowed into is filled here —
  /// with the backward seed 1 for the loss output, with 0 otherwise.
  Tensor& ensure_grad(graph::ValueId v);
  /// Where a contribution to v's gradient goes: the gradient's own
  /// buffer for the `first`, else the thread's scratch.
  Tensor& contribution(graph::ValueId v, bool first);
  /// Land a contribution written into contribution(v): mark the first,
  /// add a later one.
  void commit(graph::ValueId v, const Tensor& written);
  /// Backward of an Add or Concat: a gradient to every input.
  void backward_fan_in(const graph::Node& n, const Tensor& dy);
  kernels::KernelContext& kctx() const;

  const graph::Graph& graph_;
  float lr_;
  kernels::KernelContext* ctx_ = nullptr;  // not owned; null = serial
  // Per-thread context override (see ThreadContextGuard). Keyed by
  // backend so a guard on one backend never leaks into another.
  static thread_local const DataBackend* tls_backend_;
  static thread_local kernels::KernelContext* tls_ctx_;
  std::vector<Tensor> input_batch_;  // pristine per-iteration inputs
  Slab device_;
  Slab host_slab_;
  std::vector<Tensor> values_;       // device feature maps (slab views)
  std::vector<Tensor> host_;         // swapped-out copies (host views)
  std::vector<Tensor> grads_;        // feature-map gradients (slab views)
  std::vector<char> grad_written_;   // per value: a contribution landed
  // Per value: a shape-only view for later contributions, bound to the
  // thread's scratch when used.
  std::vector<Tensor> scratch_views_;
  Slab param_slab_;  // parameters and their gradients
  std::vector<std::vector<Tensor>> params_;       // per node (slab views)
  std::vector<std::vector<Tensor>> param_grads_;  // per node (slab views)
  std::vector<std::int64_t> labels_;
  float last_loss_ = 0.0f;
};

}  // namespace pooch::sim
