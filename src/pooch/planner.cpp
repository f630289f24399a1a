#include "pooch/planner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <iomanip>
#include <limits>
#include <mutex>
#include <numeric>
#include <sstream>
#include <unordered_map>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "common/strings.hpp"
#include "common/thread_pool.hpp"
#include "obs/stats.hpp"

namespace pooch::planner {

using graph::Graph;
using graph::ValueId;
using sim::Classification;
using sim::ValueClass;

namespace {

cost::MachineConfig with_safety_margin(const cost::MachineConfig& machine,
                                       double margin) {
  POOCH_CHECK_MSG(margin >= 0.0 && margin < 0.5,
                  "safety margin out of range");
  cost::MachineConfig m = machine;
  m.gpu_reserved_bytes +=
      static_cast<std::size_t>(static_cast<double>(m.gpu_capacity_bytes) *
                               margin);
  return m;
}

/// Sort value ids so the ones produced nearest the output come first —
/// the scan order of the Figure-13 greedy.
void sort_from_output_layer(std::vector<ValueId>& values, const Graph& g) {
  std::sort(values.begin(), values.end(), [&](ValueId a, ValueId b) {
    return g.value(a).producer > g.value(b).producer;
  });
}

/// Checkpoint nodes for runs that first differ, in scan order, at the
/// forward nodes `flips` (latest first): every ⌈√m⌉-th of the m flip
/// points and the last one, so a run resumes at most ⌈√m⌉ flip points
/// early and a chain holds about √m checkpoints. Graph inputs (producer
/// kNoNode) differ before node 0 and get none.
std::vector<graph::NodeId> spaced_checkpoints(
    std::vector<graph::NodeId> flips) {
  std::erase_if(flips, [](graph::NodeId k) { return k < 0; });
  std::vector<graph::NodeId> at;
  if (flips.empty()) return at;
  const std::size_t m = flips.size();
  std::size_t step = 1;
  while (step * step < m) ++step;
  for (std::size_t i = 0; i < m; i += step) at.push_back(flips[i]);
  at.push_back(flips.back());
  return at;
}

/// spaced_checkpoints() at the producers of `values`, scanned in order.
std::vector<graph::NodeId> producer_checkpoints(
    const std::vector<ValueId>& values, const Graph& g) {
  std::vector<graph::NodeId> flips;
  flips.reserve(values.size());
  for (ValueId v : values) flips.push_back(g.value(v).producer);
  return spaced_checkpoints(std::move(flips));
}

}  // namespace

/// A chain of candidates scanned output first, each differing from the
/// chain's first classification at one more flipped value (the L_O greedy
/// and the absorption scans). Its first run the cache does not serve
/// resumes from `parent` and records the chain's own checkpoints; every
/// later flip point lies before that run's first difference, so its
/// states there serve the whole chain.
struct PoochPlanner::Chain {
  const sim::ForwardCheckpoints* parent = nullptr;
  sim::ForwardCheckpoints own;
};

/// Per-plan mutable state threaded through the (const) search: simulation
/// and cache-hit tallies (atomic — workers bump them concurrently) and
/// fan-out utilization, accumulated only on the calling thread.
struct PoochPlanner::SearchCtx {
  std::atomic<int> sims{0};
  std::atomic<int> cache_hits{0};
  std::atomic<std::int64_t> forward_simulated{0};
  std::atomic<std::int64_t> forward_skipped{0};
  double parallel_wall_seconds = 0.0;
  double parallel_busy_seconds = 0.0;
};

struct PoochPlanner::EvalCache {
  std::mutex mu;
  std::unordered_map<std::string, Eval> map;
};

double PlannerResult::forward_skip_share() const {
  const std::int64_t total = forward_nodes_simulated + forward_nodes_skipped;
  return total > 0 ? static_cast<double>(forward_nodes_skipped) /
                         static_cast<double>(total)
                   : 0.0;
}

std::string PlannerResult::summary() const {
  std::ostringstream os;
  os << "PoocH plan: " << (feasible ? "feasible" : "INFEASIBLE")
     << ", predicted " << format_time(predicted_time) << ", peak "
     << format_bytes(predicted_peak) << "\n"
     << "  #keep=" << counts[0] << " #swap=" << counts[1]
     << " #recompute=" << counts[2] << "\n"
     << "  |L_O|=" << lo.size() << " |L_I|=" << li.size() << ", "
     << simulations << " timeline simulations (" << step1_simulations
     << " step 1, " << step2_simulations << " step 2), " << cache_hits
     << " cache hits, " << recompute_rounds << " recompute rounds"
     << (used_beam_fallback ? ", beam fallback" : "") << "\n"
     << "  " << std::fixed << std::setprecision(1)
     << 100.0 * forward_skip_share() << std::defaultfloat
     << "% of forward nodes skipped by resuming, " << threads_used
     << (threads_used == 1 ? " thread, " : " threads, ")
     << format_time(planning_wall_seconds) << " planning time\n";
  return os.str();
}

PoochPlanner::PoochPlanner(const Graph& graph,
                           const std::vector<graph::BwdStep>& tape,
                           const cost::MachineConfig& machine,
                           const sim::TimeModel& time_model,
                           PlannerOptions options)
    : graph_(graph),
      tape_(tape),
      machine_(with_safety_margin(machine, options.memory_safety_margin)),
      options_(options),
      classifiable_(sim::classifiable_values(graph, tape)),
      runtime_(graph_, tape_, machine_, time_model) {
  int threads = options_.threads == 0 ? ThreadPool::hardware_threads()
                                      : options_.threads;
  POOCH_CHECK_MSG(threads >= 0, "negative planner thread count");
  // Concurrent queries of an order-dependent time model (profiling
  // noise) would neither be safe nor mean anything; plan sequentially.
  if (!time_model.concurrent_safe()) threads = 1;
  if (threads > 1) pool_ = std::make_unique<ThreadPool>(threads);
  if (options_.cache) cache_ = std::make_unique<EvalCache>();
}

PoochPlanner::~PoochPlanner() = default;

void PoochPlanner::for_candidates(
    std::size_t n, SearchCtx& ctx,
    const std::function<void(std::size_t)>& fn) const {
  if (!pool_ || n < 2) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  pool_->parallel_for(n, fn);
  ctx.parallel_wall_seconds += pool_->last_wall_seconds();
  ctx.parallel_busy_seconds += pool_->last_busy_seconds();
}

sim::RunResult PoochPlanner::run_counted(
    const Classification& classes, SearchCtx& ctx,
    const sim::ForwardCheckpoints* from,
    sim::ForwardCheckpoints* record) const {
  // The search reads scores and stall attributions, never an OOM's
  // description.
  sim::Resume resume{.from = from, .record = record, .describe_oom = false};
  sim::RunResult r = runtime_.run(classes, {}, resume);
  ctx.sims.fetch_add(1, std::memory_order_relaxed);
  ctx.forward_simulated.fetch_add(graph_.num_nodes() - resume.started_at,
                                  std::memory_order_relaxed);
  ctx.forward_skipped.fetch_add(resume.started_at, std::memory_order_relaxed);
  return r;
}

PoochPlanner::Eval PoochPlanner::simulate(
    const Classification& classes, SearchCtx& ctx,
    const sim::ForwardCheckpoints* from,
    sim::ForwardCheckpoints* record) const {
  const sim::RunResult r = run_counted(classes, ctx, from, record);
  Eval e;
  e.feasible = r.ok;
  e.time = r.iteration_time;
  e.peak = r.peak_bytes;
  return e;
}

PoochPlanner::Eval PoochPlanner::evaluate(const Classification& classes,
                                          SearchCtx& ctx, Chain& chain) const {
  return chain.own.recorded()
             ? evaluate(classes, ctx, &chain.own, nullptr)
             : evaluate(classes, ctx, chain.parent, &chain.own);
}

PoochPlanner::Eval PoochPlanner::evaluate(
    const Classification& classes, SearchCtx& ctx,
    const sim::ForwardCheckpoints* from,
    sim::ForwardCheckpoints* record) const {
  if (!cache_) return simulate(classes, ctx, from, record);
  // Canonical key: one char per value. Exact-match lookups mean a hit
  // returns precisely what the miss computed, so the cache can never
  // steer the search — only shortcut it.
  std::string key = classes.serialize();
  {
    std::lock_guard<std::mutex> lock(cache_->mu);
    const auto it = cache_->map.find(key);
    if (it != cache_->map.end()) {
      ctx.cache_hits.fetch_add(1, std::memory_order_relaxed);
      return it->second;
    }
  }
  // Simulate outside the lock: concurrent workers may race to fill the
  // same key, at worst duplicating one simulation of identical result.
  const Eval e = simulate(classes, ctx, from, record);
  {
    std::lock_guard<std::mutex> lock(cache_->mu);
    cache_->map.emplace(std::move(key), e);
  }
  return e;
}

PlannerResult PoochPlanner::run_step1(SearchCtx& ctx) const {
  PlannerResult result;

  // 1. Simulate the safe default: everything swapped (§4.4.2 step 1).
  // Its forward states, taken every ⌈√n⌉ nodes, are where the beam's
  // candidates and each chain's first run resume; workers share them
  // read-only.
  Classification all_swap(graph_, ValueClass::kSwap);
  std::vector<graph::NodeId> every_node(
      static_cast<std::size_t>(graph_.num_nodes()));
  std::iota(every_node.rbegin(), every_node.rend(), 0);  // latest first
  sim::ForwardCheckpoints swap_all_states(
      spaced_checkpoints(std::move(every_node)));
  const sim::RunResult base =
      run_counted(all_swap, ctx, nullptr, &swap_all_states);
  if (!base.ok) {
    // Even swap-all does not fit: report infeasibility with the safest
    // classification; callers surface this as the paper's OOM outcome.
    result.classes = all_swap;
    result.feasible = false;
    result.predicted_time = 0.0;
    return result;
  }
  // The search's all-swap candidates (the beam's first bit=0 expansion,
  // the exhaustive search's all-zero assignment) are this run.
  if (cache_) {
    std::lock_guard<std::mutex> lock(cache_->mu);
    cache_->map.emplace(all_swap.serialize(),
                        Eval{true, base.iteration_time, base.peak_bytes});
  }

  // 2. Extract the exposed swaps (Figure 11): L_O and L_I, restricted to
  // the classifiable feature maps.
  auto restrict = [&](const std::vector<ValueId>& in) {
    std::vector<ValueId> out;
    for (ValueId v : in) {
      if (std::binary_search(classifiable_.begin(), classifiable_.end(), v)) {
        out.push_back(v);
      }
    }
    return out;
  };
  result.lo = restrict(base.unhidden_swapouts);
  result.li = restrict(base.unhidden_swapins);

  // Hidden swaps are final `swap` immediately; only L_O ∪ L_I is searched.
  std::vector<ValueId> li = result.li;
  std::vector<ValueId> lo_only;
  for (ValueId v : result.lo) {
    if (std::find(li.begin(), li.end(), v) == li.end()) lo_only.push_back(v);
  }
  sort_from_output_layer(lo_only, graph_);
  sort_from_output_layer(li, graph_);

  auto classification_of = [&](const std::vector<bool>& bits) {
    Classification c = all_swap;
    for (std::size_t i = 0; i < bits.size(); ++i) {
      if (bits[i]) c.set(li[i], ValueClass::kKeep);
    }
    return c;
  };

  // Beam fallback above the exhaustive cap: truncate the enumerated tree
  // by keeping only the most promising prefixes, level by level.
  std::vector<std::vector<bool>> assignments;
  if (static_cast<int>(li.size()) <= options_.bruteforce_cap) {
    const std::size_t leaves = std::size_t{1} << li.size();
    assignments.reserve(leaves);
    for (std::size_t mask = 0; mask < leaves; ++mask) {
      std::vector<bool> bits(li.size());
      for (std::size_t i = 0; i < li.size(); ++i) bits[i] = (mask >> i) & 1;
      assignments.push_back(std::move(bits));
    }
  } else {
    result.used_beam_fallback = true;
    std::vector<std::vector<bool>> beam{{}};
    for (std::size_t level = 0; level < li.size(); ++level) {
      // Expand every prefix by both bits in enumeration order, score the
      // expansions concurrently into per-index slots, then reduce
      // sequentially. Ties in predicted time break toward the lower
      // enumeration index — a fixed rule, so the surviving beam is
      // independent of evaluation order and thread count.
      std::vector<std::vector<bool>> expanded;
      expanded.reserve(beam.size() * 2);
      for (const auto& prefix : beam) {
        for (bool bit : {false, true}) {
          std::vector<bool> next = prefix;
          next.push_back(bit);
          expanded.push_back(std::move(next));
        }
      }
      std::vector<Eval> evals(expanded.size());
      for_candidates(expanded.size(), ctx, [&](std::size_t j) {
        evals[j] = evaluate(classification_of(expanded[j]), ctx,
                            &swap_all_states);
      });
      std::vector<std::pair<double, std::size_t>> scored;
      for (std::size_t j = 0; j < expanded.size(); ++j) {
        if (evals[j].feasible) scored.emplace_back(evals[j].time, j);
      }
      std::sort(scored.begin(), scored.end());  // (time, index): total order
      std::vector<std::vector<bool>> survivors;
      for (std::size_t i = 0;
           i < scored.size() &&
           i < static_cast<std::size_t>(options_.beam_width);
           ++i) {
        survivors.push_back(std::move(expanded[scored[i].second]));
      }
      POOCH_CHECK_MSG(!survivors.empty(), "beam search lost all candidates");
      if (options_.stats && scored.size() > survivors.size()) {
        options_.stats->counter("planner.beam_prunings")
            .add(scored.size() - survivors.size());
      }
      beam = std::move(survivors);
    }
    assignments = std::move(beam);
  }

  // 3. Evaluate every assignment: fix the L_I bits, then run the greedy
  // keep-from-the-output scan over L_O \ L_I (Figure 13) and score the
  // final classification. Each candidate is independent — its greedy
  // scan starts from its own all_swap+bits state — so the whole set fans
  // out across workers. Only (feasible, time, peak) is recorded per
  // candidate; the winning classification is re-derived afterwards (from
  // cache when enabled), which keeps memory O(candidates), not
  // O(candidates × values), when bruteforce_cap is raised.
  const std::vector<graph::NodeId> lo_checkpoints =
      producer_checkpoints(lo_only, graph_);
  auto score_assignment = [&](const std::vector<bool>& bits,
                              Classification* out_classes) {
    Chain chain{&swap_all_states, sim::ForwardCheckpoints(lo_checkpoints)};
    Classification c = classification_of(bits);
    Eval e = evaluate(c, ctx, chain);
    if (e.feasible) {
      for (ValueId v : lo_only) {
        c.set(v, ValueClass::kKeep);
        const Eval trial = evaluate(c, ctx, chain);
        if (!trial.feasible) {
          c.set(v, ValueClass::kSwap);  // does not fit: leave it swapped
        } else {
          e = trial;
        }
      }
    }
    if (out_classes) *out_classes = std::move(c);
    return e;
  };

  std::vector<Eval> outcomes(assignments.size());
  for_candidates(assignments.size(), ctx, [&](std::size_t i) {
    outcomes[i] = score_assignment(assignments[i], nullptr);
  });

  // Sequential reduction in enumeration order: a strict `<` keeps the
  // earliest of equal-time candidates, exactly as the sequential scan
  // did — the fixed tie-break that makes the plan thread-count-invariant.
  double best_time = std::numeric_limits<double>::infinity();
  std::size_t best_index = assignments.size();
  bool any_feasible = false;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    if (!outcomes[i].feasible) continue;
    any_feasible = true;
    if (outcomes[i].time < best_time) {
      best_time = outcomes[i].time;
      best_index = i;
    }
  }

  Classification best = all_swap;
  if (any_feasible) {
    const Eval e = score_assignment(assignments[best_index], &best);
    best_time = e.time;
    result.predicted_peak = e.peak;
  } else {
    // Fall back to the feasible swap-all baseline.
    best_time = base.iteration_time;
    result.predicted_peak = base.peak_bytes;
  }

  // Absorption pass: the search above only considered keeping the
  // *exposed* maps. Device memory left over is still worth spending on
  // the hidden swaps — every map kept is a transfer the copy engines
  // don't make (less bandwidth pressure, less memory-order jitter).
  // Scan from the output layer, flip swap -> keep while it fits and
  // does not hurt the predicted time. Leave one largest-map of slack
  // below the planning capacity: execution times differ from the
  // profile, and a plan packed to the brim fragments under the shifted
  // malloc/free order. (Inherently sequential: each flip's verdict
  // depends on every flip accepted before it.)
  std::size_t largest_map = 0;
  for (ValueId v : classifiable_) {
    largest_map = std::max(largest_map, graph_.value(v).byte_size());
  }
  const std::size_t absorb_limit =
      machine_.usable_gpu_bytes() > largest_map
          ? machine_.usable_gpu_bytes() - largest_map
          : 0;
  auto absorb = [&](Classification& c, double& time, std::size_t& peak) {
    std::vector<ValueId> remaining;
    for (ValueId v : classifiable_) {
      if (c.of(v) == ValueClass::kSwap) remaining.push_back(v);
    }
    sort_from_output_layer(remaining, graph_);
    Chain chain{&swap_all_states, sim::ForwardCheckpoints(
                                      producer_checkpoints(remaining, graph_))};
    for (ValueId v : remaining) {
      c.set(v, ValueClass::kKeep);
      const Eval e = evaluate(c, ctx, chain);
      if (!e.feasible || e.time > time || e.peak > absorb_limit) {
        c.set(v, ValueClass::kSwap);
      } else {
        time = e.time;
        peak = e.peak;
      }
    }
  };
  absorb(best, best_time, result.predicted_peak);

  // Second seed: the output-layer keep greedy applied from scratch (the
  // Figure-13 heuristic over the whole swap set). On deep nets the beam
  // over L_I can miss it, and it is sometimes the stronger start.
  Classification greedy = all_swap;
  double greedy_time = base.iteration_time;
  std::size_t greedy_peak = base.peak_bytes;
  absorb(greedy, greedy_time, greedy_peak);
  if (greedy_time < best_time) {
    best = std::move(greedy);
    best_time = greedy_time;
    result.predicted_peak = greedy_peak;
  }

  result.classes = std::move(best);
  result.feasible = true;
  result.predicted_time = best_time;
  return result;
}

void PoochPlanner::run_step2(PlannerResult& result, SearchCtx& ctx) const {
  // §4.4.3: the candidates are the maps still classified `swap`.
  std::vector<ValueId> pool;
  for (ValueId v : classifiable_) {
    if (result.classes.of(v) == ValueClass::kSwap &&
        graph_.value(v).producer != graph::kNoNode) {
      pool.push_back(v);
    }
  }
  Classification current = result.classes;
  double t_cur = result.predicted_time;
  std::size_t peak_cur = result.predicted_peak;
  constexpr double kTiny = 1e-12;

  while (!pool.empty()) {
    ++result.recompute_rounds;

    // Stall attribution of the current classification: the fallback
    // estimate of swap_overhead(X) when keeping X does not fit.
    const sim::RunResult cur_run = run_counted(current, ctx);

    // Probe every candidate with X=keep and X=recompute concurrently.
    // Each probe takes a private copy of `current` (workers must not
    // mutate the shared classification in place the way the sequential
    // set/restore dance did); results land in per-index slots.
    struct Probe {
      Eval keep;
      Eval rec;
    };
    std::vector<Probe> probes(pool.size());
    for_candidates(pool.size(), ctx, [&](std::size_t j) {
      Classification c = current;
      c.set(pool[j], ValueClass::kKeep);
      probes[j].keep = evaluate(c, ctx);
      c.set(pool[j], ValueClass::kRecompute);
      probes[j].rec = evaluate(c, ctx);
    });

    // Sequential reduction in pool order, identical to the sequential
    // scan: strict `<` on r keeps the earliest of equal candidates.
    double best_r = std::numeric_limits<double>::infinity();
    ValueId best_v = -1;
    double best_time = 0.0;
    std::size_t best_peak = 0;
    std::vector<ValueId> keep_as_swap;
    for (std::size_t j = 0; j < pool.size(); ++j) {
      const ValueId v = pool[j];
      const Eval& ek = probes[j].keep;
      const Eval& er = probes[j].rec;
      if (!er.feasible) {
        keep_as_swap.push_back(v);
        continue;
      }
      const double baseline =
          ek.feasible
              ? ek.time
              : t_cur - cur_run.stall_by_value[static_cast<std::size_t>(v)];
      const double swap_oh = std::max(t_cur - baseline, 0.0);
      const double rec_oh = std::max(er.time - baseline, 0.0);
      const double r =
          swap_oh <= kTiny ? std::numeric_limits<double>::infinity()
                           : rec_oh / swap_oh;
      if (r >= 1.0) {
        keep_as_swap.push_back(v);
        continue;
      }
      if (r < best_r) {
        best_r = r;
        best_v = v;
        best_time = er.time;
        best_peak = er.peak;
      }
    }

    // Retire the maps whose swap is already the better (or equal) choice.
    for (ValueId v : keep_as_swap) {
      pool.erase(std::remove(pool.begin(), pool.end(), v), pool.end());
    }
    if (best_v < 0) break;
    current.set(best_v, ValueClass::kRecompute);
    t_cur = best_time;
    peak_cur = best_peak;
    pool.erase(std::remove(pool.begin(), pool.end(), best_v), pool.end());
  }

  result.classes = std::move(current);
  result.predicted_time = t_cur;
  result.predicted_peak = peak_cur;
}

void PoochPlanner::finish(PlannerResult& result, SearchCtx& ctx,
                          std::chrono::steady_clock::time_point t0) const {
  if (result.feasible) {
    result.planning_usable_bytes = machine_.usable_gpu_bytes();
  }
  result.simulations = ctx.sims.load(std::memory_order_relaxed);
  result.cache_hits = ctx.cache_hits.load(std::memory_order_relaxed);
  result.forward_nodes_simulated =
      ctx.forward_simulated.load(std::memory_order_relaxed);
  result.forward_nodes_skipped =
      ctx.forward_skipped.load(std::memory_order_relaxed);
  result.threads_used = pool_ ? pool_->size() : 1;
  result.counts = result.classes.counts(classifiable_);
  result.planning_wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  if (!options_.stats) return;
  obs::StatsRegistry& st = *options_.stats;
  st.counter("planner.plans").add(1);
  st.counter("planner.simulations")
      .add(static_cast<std::uint64_t>(result.simulations));
  st.counter("planner.cache_hits")
      .add(static_cast<std::uint64_t>(result.cache_hits));
  st.counter("planner.forward_nodes_simulated")
      .add(static_cast<std::uint64_t>(result.forward_nodes_simulated));
  st.counter("planner.forward_nodes_skipped")
      .add(static_cast<std::uint64_t>(result.forward_nodes_skipped));
  st.counter("planner.recompute_rounds")
      .add(static_cast<std::uint64_t>(result.recompute_rounds));
  st.gauge("planner.last.threads")
      .set(static_cast<double>(result.threads_used));
  st.gauge("planner.last.total_seconds").set(result.planning_wall_seconds);
  if (cache_) {
    std::lock_guard<std::mutex> lock(cache_->mu);
    st.gauge("planner.cache_entries")
        .set(static_cast<double>(cache_->map.size()));
  }
  // Utilization of the fan-out phases: summed worker busy time over the
  // capacity (threads × fan-out wall time). 1.0 means every worker was
  // saturated whenever candidates were in flight.
  if (pool_ && ctx.parallel_wall_seconds > 0.0) {
    st.gauge("planner.last.parallel_wall_seconds")
        .set(ctx.parallel_wall_seconds);
    st.gauge("planner.last.worker_utilization")
        .set(ctx.parallel_busy_seconds /
             (ctx.parallel_wall_seconds *
              static_cast<double>(result.threads_used)));
  }
}

PlannerResult PoochPlanner::plan() const {
  using clock = std::chrono::steady_clock;
  const auto t0 = clock::now();
  SearchCtx ctx;
  PlannerResult result = run_step1(ctx);
  result.step1_simulations = ctx.sims.load(std::memory_order_relaxed);
  const auto t1 = clock::now();
  if (result.feasible) {
    run_step2(result, ctx);
  }
  result.step2_simulations =
      ctx.sims.load(std::memory_order_relaxed) - result.step1_simulations;
  const auto t2 = clock::now();
  finish(result, ctx, t0);
  if (options_.stats) {
    options_.stats->gauge("planner.last.step1_seconds")
        .set(std::chrono::duration<double>(t1 - t0).count());
    options_.stats->gauge("planner.last.step2_seconds")
        .set(std::chrono::duration<double>(t2 - t1).count());
  }
  POOCH_LOG_INFO(result.summary());
  return result;
}

PlannerResult PoochPlanner::plan_keep_swap_only() const {
  using clock = std::chrono::steady_clock;
  const auto t0 = clock::now();
  SearchCtx ctx;
  PlannerResult result = run_step1(ctx);
  result.step1_simulations = ctx.sims.load(std::memory_order_relaxed);
  finish(result, ctx, t0);
  if (options_.stats) {
    options_.stats->gauge("planner.last.step1_seconds")
        .set(result.planning_wall_seconds);
  }
  return result;
}

}  // namespace pooch::planner
