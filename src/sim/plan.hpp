// Classification of feature maps and the derived backward-pass plan.
//
// Classification is PoocH's optimization variable (§4.1.1): every value is
// `keep` (stays on the GPU), `swap` (copied to host after its last forward
// use, copied back before its backward use) or `recompute` (discarded and
// re-derived in backward from the nearest non-discarded ancestors).
//
// build_backward_plan() lowers a classification to a concrete schedule:
// for every backward step, the ordered swap-in / recompute "prep" ops it
// requires, plus value lifetimes (when each buffer can be freed) and
// per-step transient byte requirements (the free-memory headroom the
// eager swap-in scheduler of §4.3 must preserve).
//
// Half of a plan does not depend on the classification: gradient
// lifetimes, gradient buffer allocations and the byte sizes every step
// reads. PlanTables holds that half, derived once per (graph, tape);
// sim::Runtime keeps one and lowers each simulated classification
// against it into reused storage.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "graph/autodiff.hpp"
#include "graph/graph.hpp"

namespace pooch::sim {

enum class ValueClass : std::uint8_t { kKeep = 0, kSwap = 1, kRecompute = 2 };

const char* value_class_name(ValueClass c);

class Classification {
 public:
  Classification() = default;
  Classification(const graph::Graph& graph, ValueClass fill);

  ValueClass of(graph::ValueId v) const {
    return classes_.at(static_cast<std::size_t>(v));
  }
  void set(graph::ValueId v, ValueClass c) {
    classes_.at(static_cast<std::size_t>(v)) = c;
  }
  int size() const { return static_cast<int>(classes_.size()); }

  /// keep/swap/recompute counts over the given values.
  std::array<int, 3> counts(const std::vector<graph::ValueId>& over) const;

  std::string to_string(const graph::Graph& graph) const;

  /// Compact one-character-per-value form ("k", "s", "r"), suitable for
  /// persisting a plan to disk and re-running it later (the §5.2 cross-
  /// environment experiment does exactly this).
  std::string serialize() const;

  /// Inverse of serialize(); length must equal the graph's value count.
  static Classification deserialize(const graph::Graph& graph,
                                    const std::string& text);

 private:
  std::vector<ValueClass> classes_;
};

struct PrepOp {
  enum class Kind { kSwapIn, kRecompute };
  Kind kind{};
  graph::ValueId value = -1;  // swap-in target, or recompute output
  graph::NodeId node = graph::kNoNode;  // producer re-run for recompute
};

struct StepPlan {
  /// Ordered prep ops that must complete before this step's backward op.
  std::vector<PrepOp> preps;
  /// Values whose gradient buffer is first written by this step.
  std::vector<graph::ValueId> grad_allocs;
  /// Bytes of short-lived allocations this step performs (grads +
  /// workspace + recompute outputs): the eager prefetcher keeps at least
  /// this much headroom free.
  std::size_t transient_bytes = 0;
  /// Feature maps whose last backward use is this step, freed after it
  /// (ascending value id).
  std::vector<graph::ValueId> frees;
};

/// One entry of the prefetch queue: a swapped value and the backward
/// step that first needs it.
struct SwapInNeed {
  graph::ValueId value = -1;
  int step = 0;

  bool operator==(const SwapInNeed&) const = default;
};

struct BackwardPlan {
  std::vector<StepPlan> steps;  // indexed by tape position

  // Per value:
  std::vector<int> fwd_consumers;    // forward consumer count
  std::vector<int> bwd_uses;         // direct needs + recompute-source uses
  std::vector<int> last_use_step;    // tape index of last backward use; -1
  std::vector<char> swap_out;        // swapped to host during forward
  std::vector<char> discard;         // freed after last fwd use (recompute
                                     // class or no backward use)
  // Gradient lifetimes (per value; -1 when the value gets no gradient):
  std::vector<int> grad_first_step;
  std::vector<int> grad_last_step;
  // In-place elementwise backward: the gradient of an eligible node's
  // input shares the buffer of the node's output gradient (dx written
  // into dy), as every practical framework does for ReLU-like layers.
  // grad_root[v] follows alias chains to the buffer owner (v itself when
  // unaliased); the owner's buffer is released only at root_free_step.
  std::vector<graph::ValueId> grad_root;
  std::vector<int> root_free_step;  // -1 for non-owners

  /// Swapped values in order of first backward need — the prefetch queue.
  std::vector<SwapInNeed> swapin_order;

  /// Total bytes re-materialized by recomputation (diagnostics).
  std::size_t recompute_bytes = 0;
  /// Total bytes moved per direction by swapping (diagnostics).
  std::size_t swap_bytes = 0;
};

/// What plan lowering derives from the graph and tape alone.
struct PlanTables {
  PlanTables(const graph::Graph& graph,
             const std::vector<graph::BwdStep>& tape);

  std::vector<std::size_t> value_bytes;      // Value::byte_size(), per value
  std::vector<std::size_t> workspace_bytes;  // Graph::workspace_bytes(), per
                                             // node
  /// The classification-independent fields of every BackwardPlan:
  /// fwd_consumers, the gradient lifetimes and aliases, each step's
  /// grad_allocs, and transient_bytes counting only the step's gradients
  /// and backward workspace. The other fields are empty.
  BackwardPlan skeleton;
};

/// Throws pooch::Error on invalid classifications (e.g. a graph input
/// marked recompute, which cannot be re-derived).
BackwardPlan build_backward_plan(const graph::Graph& graph,
                                 const std::vector<graph::BwdStep>& tape,
                                 const Classification& classes);

/// The same lowering against precomputed tables, written into `out`
/// (whose storage is reused).
void build_backward_plan(const graph::Graph& graph,
                         const std::vector<graph::BwdStep>& tape,
                         const PlanTables& tables,
                         const Classification& classes, BackwardPlan& out);

/// Values with a direct backward need — the feature maps PoocH classifies
/// (the population counted in the paper's Table 3).
std::vector<graph::ValueId> classifiable_values(
    const graph::Graph& graph, const std::vector<graph::BwdStep>& tape);

}  // namespace pooch::sim
