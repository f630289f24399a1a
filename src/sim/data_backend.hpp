// Real numeric state of one training job.
//
// exec::AsyncExecutor drives this backend by replaying an exported op
// stream: forward/backward kernels, host<->device copies, frees, and the
// SGD update, each op one call below. "Device" tensors live in
// values_/grads_; a swap-out moves to host_ and drops the device buffer,
// mirroring what the simulator scheduled.
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

  // --- ops invoked by the executor, one per StreamOp ---
  /// Re-installs the input batch (mirrors the per-iteration H2D upload of
  /// training data); the first op of every exported stream.
  void begin_iteration();
  void forward(graph::NodeId node, std::uint64_t iteration);
  void backward(graph::NodeId node, std::uint64_t iteration);
  void swap_out(graph::ValueId value);  // device -> host (buffer moves)
  void swap_in(graph::ValueId value);   // host -> device (copies; the
                                        // host copy stays a clean page)
  void free_value(graph::ValueId value);
  void free_grad(graph::ValueId value);
  void update();

  // --- inspection (tests, examples) ---
  float loss() const;
  const Tensor& value(graph::ValueId v) const;
  bool value_resident(graph::ValueId v) const;
  const Tensor& grad(graph::ValueId v) const;
  const std::vector<Tensor>& params(graph::NodeId node) const;

  /// Flat L2 norm over all parameters (cheap convergence signal).
  double param_norm() const;

  /// The bit-identity verdict between two training states of the same
  /// graph: "" when every parameter, parameter gradient and the loss
  /// match bit for bit, otherwise the first that differs — "param 0 of
  /// 'conv1'" / "param grad 0 of 'conv1'" in graph order, then "loss".
  std::string first_difference(const DataBackend& other) const;

 private:
  Tensor& ensure_value(graph::ValueId v);
  Tensor& ensure_grad(graph::ValueId v);
  void accumulate_grad(graph::ValueId v, Tensor contribution);
  kernels::KernelContext& kctx() const;

  const graph::Graph& graph_;
  float lr_;
  kernels::KernelContext* ctx_ = nullptr;  // not owned; null = serial
  // Per-thread context override (see ThreadContextGuard). Keyed by
  // backend so a guard on one backend never leaks into another.
  static thread_local const DataBackend* tls_backend_;
  static thread_local kernels::KernelContext* tls_ctx_;
  std::vector<Tensor> input_batch_;  // pristine per-iteration inputs
  std::vector<Tensor> values_;       // device feature maps
  std::vector<Tensor> host_;         // swapped-out host copies
  std::vector<Tensor> grads_;        // feature-map gradients
  std::vector<std::vector<Tensor>> params_;       // per node
  std::vector<std::vector<Tensor>> param_grads_;  // per node
  std::vector<std::int64_t> labels_;
  float last_loss_ = 0.0f;
};

}  // namespace pooch::sim
