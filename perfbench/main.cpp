// Benchmark driver: runs one named workload of the PoocH library in one
// process, through the library's public API only, and writes the raw
// measurements as one JSON document. perfbench/run.py builds and runs
// this program and turns the raw measurements into metrics; the
// workloads, metrics and fixed configuration are described in
// perfbench/README.md.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --out RAW
//             [--trace-dir DIR] [--selfcheck ref-seed|infeasible]
//
// Layers are timed from outside, by wrapping the public call that enters
// each of them (graph construction, planning, stream export, executor
// construction and runs); per-op executor spans come from
// AsyncResult::spans. Nothing inside the library is instrumented.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cost/cost_model.hpp"
#include "cost/machine.hpp"
#include "exec/async_executor.hpp"
#include "exec/op_stream.hpp"
#include "graph/autodiff.hpp"
#include "kernels/kernel_context.hpp"
#include "mem/host_pool.hpp"
#include "models/models.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "pooch/pipeline.hpp"
#include "pooch/planner.hpp"
#include "sim/data_backend.hpp"
#include "sim/runtime.hpp"
#include "sim/time_model.hpp"

namespace {

using namespace pooch;
using Clock = std::chrono::steady_clock;
namespace json = obs::json;

// Fixed run configuration, identical for every workload: four threads in
// total on the executor (one compute worker driving a 2-thread kernel
// context, one worker per copy lane) and four planner threads.
constexpr int kPlannerThreads = 4;
constexpr int kKernelThreads = 2;
constexpr int kComputeWorkers = 1;
constexpr int kCopyWorkersPerLane = 1;
constexpr float kLearningRate = 0.01f;
// A timed training run repeats its set-up at least kTimedSetups times and
// for at least kSetupSeconds, so that short set-ups get a median of more
// samples; the median is reported as setup_s.
constexpr int kTimedSetups = 3;
constexpr double kSetupSeconds = 4.0;
// Iterations run inside each training set-up.
constexpr int kWarmupIterations = 2;
// Kernel threads of the correctness reference in the timed run, where it
// is not measured (kernels are bit-identical at any thread count). The
// traced run replays it with kKernelThreads, to time the in-core
// iteration under the benchmark's configuration.
constexpr int kReferenceThreads = 4;
// Closed-loop units measured per run at the least, even when --seconds
// runs out first: with ten samples beyond it, the tail is then at least
// p60, the 15th of 25 samples where the median is the 13th.
constexpr int kMinTimedUnits = 25;

const Clock::time_point g_t0 = Clock::now();

double now_s() {
  return std::chrono::duration<double>(Clock::now() - g_t0).count();
}

/// A failed operation of the workload (infeasible plan, invalid stream,
/// failed executor run). Counted into the result, never fatal.
struct Failure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

// ---------------------------------------------------------------------
// Tracing: spans recorded around each layer call, kept in memory and
// written out with the raw result.

struct Span {
  std::string name;
  int parent = -1;
  double start = 0.0;
  double end = 0.0;
};

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}

  bool on() const { return on_; }
  int current() const { return current_; }
  const std::vector<Span>& spans() const { return spans_; }

  int add(std::string name, int parent, double start, double end) {
    if (!on_) return -1;
    spans_.push_back({std::move(name), parent, start, end});
    return static_cast<int>(spans_.size()) - 1;
  }
  int open(const char* name) {
    const int id = add(name, current_, now_s(), 0.0);
    if (id >= 0) current_ = id;
    return id;
  }
  void close(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end = now_s();
    current_ = spans_[static_cast<std::size_t>(id)].parent;
  }

 private:
  bool on_;
  int current_ = -1;
  std::vector<Span> spans_;
};

/// RAII span around one layer call; nests under the innermost open span.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name)
      : tracer_(tracer), id_(tracer.open(name)) {}
  ~Scope() { tracer_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

/// Span name of an executor op: the layer doing the work, and for
/// kernels the node's layer kind.
const char* op_span_name(const graph::Graph& g, const exec::StreamOp& op) {
  switch (op.type) {
    case exec::OpType::kBeginIteration:
      return "exec.begin";
    case exec::OpType::kRecompute:
      return "kernels.recompute";
    case exec::OpType::kUpdate:
      return "kernels.update";
    case exec::OpType::kSwapOut:
      return "mem.swap_out";
    case exec::OpType::kSwapIn:
      return "mem.swap_in";
    case exec::OpType::kFreeValue:
    case exec::OpType::kFreeGrad:
      return "mem.free";
    case exec::OpType::kForward:
    case exec::OpType::kBackward:
      break;
  }
  switch (g.node(op.node).kind) {
    case graph::LayerKind::kConv:
      return "kernels.conv";
    case graph::LayerKind::kFullyConnected:
      return "kernels.fc";
    case graph::LayerKind::kBatchNorm:
      return "kernels.bn";
    case graph::LayerKind::kMaxPool:
    case graph::LayerKind::kAvgPool:
    case graph::LayerKind::kGlobalAvgPool:
      return "kernels.pool";
    case graph::LayerKind::kReLU:
    case graph::LayerKind::kDropout:
      return "kernels.act";
    case graph::LayerKind::kSoftmaxLoss:
      return "kernels.softmax";
    case graph::LayerKind::kAdd:
    case graph::LayerKind::kConcat:
    case graph::LayerKind::kFlatten:
      break;
  }
  return "kernels.eltwise";
}

// ---------------------------------------------------------------------
// Workloads.

struct ModelSpec {
  const char* name;
  graph::Graph (*build)();
  /// Device capacity as a share (%) of the keep-all activation headroom:
  /// persistent bytes plus this share of (peak - persistent). 0 keeps
  /// the unclamped x86_pcie device.
  int headroom_pct;
  int batch;
};

const ModelSpec kResNet50Ooc = {
    "resnet50 b4 64x64", [] { return models::resnet50(4, 64, 64); }, 45, 4};
const ModelSpec kInception = {
    "inception_toy b32 32x32", [] { return models::inception_toy(32, 32); },
    80, 32};
const ModelSpec kResNeXt3d = {
    "resnext101_3d b1 128x384",
    [] { return models::resnext101_3d(1, 128, 384); }, 0, 1};
const ModelSpec kResNet50B640 = {
    "resnet50 b640", [] { return models::resnet50(640); }, 0, 640};

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string out;
  std::string trace_dir = ".";
  std::string selfcheck;
};

/// One planning problem: a model on a machine, its plan, the exported
/// stream and the executor built on it. Heap-held and never moved: the
/// runtime, stream and executor keep references into it.
struct Problem {
  const ModelSpec* spec = nullptr;
  graph::Graph graph;
  std::vector<graph::BwdStep> tape;
  cost::MachineConfig machine = cost::x86_pcie();
  std::unique_ptr<sim::CostTimeModel> time_model;
  std::unique_ptr<sim::Runtime> runtime;
  planner::PlannerResult plan;
  sim::RunOptions stream_options;
  exec::OpStream stream;
  std::unique_ptr<exec::AsyncExecutor> executor;
};

std::unique_ptr<Problem> build_problem(const ModelSpec& spec, int headroom_pct,
                                       Tracer& tracer) {
  auto p = std::make_unique<Problem>();
  p->spec = &spec;
  {
    Scope s(tracer, "graph.build");
    p->graph = spec.build();
    p->tape = graph::build_backward_tape(p->graph);
  }
  if (headroom_pct > 0) {
    Scope s(tracer, "sim.probe");
    sim::CostTimeModel roomy_tm(p->graph, p->machine);
    sim::Runtime roomy(p->graph, p->tape, p->machine, roomy_tm);
    const sim::RunResult keep =
        roomy.run(sim::Classification(p->graph, sim::ValueClass::kKeep));
    if (!keep.ok) {
      throw Failure(std::string(spec.name) + ": keep-all probe failed: " +
                    keep.failure);
    }
    p->machine.gpu_capacity_bytes =
        keep.persistent_bytes + (keep.peak_bytes - keep.persistent_bytes) *
                                    static_cast<std::size_t>(headroom_pct) /
                                    100;
    p->machine.gpu_reserved_bytes = 0;
  }
  p->time_model = std::make_unique<sim::CostTimeModel>(p->graph, p->machine);
  p->runtime = std::make_unique<sim::Runtime>(p->graph, p->tape, p->machine,
                                              *p->time_model);
  return p;
}

/// Plan with a fresh planner (so no memo cache carries over), export the
/// plan's stream, validate it and build the executor on it. Throws
/// Failure when the plan is infeasible or the stream is invalid.
void plan_problem(Problem& p, Tracer& tracer) {
  p.executor.reset();  // it references the stream about to be replaced
  {
    Scope s(tracer, "pooch.plan");
    planner::PlannerOptions po;
    po.threads = kPlannerThreads;
    const planner::PoochPlanner planner(p.graph, p.tape, p.machine,
                                        *p.time_model, po);
    p.plan = planner.plan();
  }
  const std::string name = p.spec->name;
  if (!p.plan.feasible) throw Failure(name + ": plan infeasible");
  // Export the schedule as planned: memory-aware swap-ins on the device
  // clamped to the capacity the plan was validated against.
  p.stream_options = {};
  p.stream_options.usable_bytes_override = p.plan.planning_usable_bytes;
  {
    Scope s(tracer, "sim.record_stream");
    try {
      p.stream = planner::record_op_stream(*p.runtime, p.plan.classes,
                                           p.stream_options);
    } catch (const Error& e) {
      throw Failure(name + ": stream export failed: " + e.what());
    }
  }
  {
    Scope s(tracer, "exec.validate");
    const auto violations = p.stream.validate(p.graph, p.tape);
    if (!violations.empty()) {
      throw Failure(name + ": invalid stream: " + violations.front());
    }
  }
  Scope s(tracer, "exec.build");
  p.executor = std::make_unique<exec::AsyncExecutor>(p.graph, p.stream);
}

// ---------------------------------------------------------------------
// Training.

struct IterRecord {
  double wall = 0.0;       // around the run call, tracing work included
  double exec_wall = 0.0;  // AsyncResult::wall_seconds
  double busy[exec::kNumLanes] = {};
  double wait[exec::kNumLanes] = {};
  double compute_idle = 0.0;
  std::uint64_t staging_acquisitions = 0;
  int staging_peak_held = 0;
  int ready_peak = 0;
  double critical_path = 0.0;
  bool ok = false;
  std::uint32_t loss_bits = 0;
  bool traced = false;
};

std::uint32_t float_bits(float f) {
  std::uint32_t u = 0;
  std::memcpy(&u, &f, sizeof u);
  return u;
}

std::uint64_t double_bits(double d) {
  std::uint64_t u = 0;
  std::memcpy(&u, &d, sizeof u);
  return u;
}

exec::AsyncOptions executor_options(mem::HostPool* host_pool) {
  exec::AsyncOptions ao;
  ao.compute_workers = kComputeWorkers;
  ao.workers_per_copy_lane = kCopyWorkersPerLane;
  ao.host_pool = host_pool;
  return ao;
}

/// A training job: a planned problem, its kernel context, host pool and
/// numeric backend. Members are destroyed backend-first.
struct Session {
  std::unique_ptr<Problem> problem;
  std::unique_ptr<kernels::KernelContext> kernels;
  std::unique_ptr<mem::HostPool> host_pool;
  std::unique_ptr<sim::DataBackend> data;
  std::uint64_t next_iteration = 0;
  std::vector<exec::OpSpan> last_traced_spans;
};

IterRecord run_iteration(Session& s, Tracer& tracer, bool traced) {
  Problem& p = *s.problem;
  p.stream.iteration = s.next_iteration++;
  const exec::AsyncOptions ao = executor_options(s.host_pool.get());
  IterRecord r;
  const double t_begin = now_s();
  const exec::AsyncResult res = p.executor->run(*s.data, ao);
  const double t_end = now_s();
  if (traced && tracer.on()) {
    const int id = tracer.add("exec.run", tracer.current(), t_begin, t_end);
    for (std::size_t i = 0; i < res.spans.size(); ++i) {
      tracer.add(op_span_name(p.graph, p.stream.ops[i]), id,
                 t_begin + res.spans[i].start, t_begin + res.spans[i].end);
    }
    s.last_traced_spans = res.spans;
  }
  r.ok = res.ok;
  r.exec_wall = res.wall_seconds;
  for (int l = 0; l < exec::kNumLanes; ++l) {
    r.busy[l] = res.lane_busy[l];
    r.wait[l] = res.lane_wait[l];
  }
  for (double idle : res.compute_worker_idle) r.compute_idle += idle;
  r.staging_acquisitions = res.staging_acquisitions;
  r.staging_peak_held = res.staging_peak_held;
  r.ready_peak = res.ready_peak;
  r.critical_path = res.critical_path_seconds;
  r.loss_bits = float_bits(s.data->loss());
  r.traced = traced;
  r.wall = now_s() - t_begin;
  return r;
}

/// Graph construction through planning, stream export, executor and
/// backend construction, and the warm-up iterations.
std::unique_ptr<Session> set_up_training(const ModelSpec& spec,
                                         int headroom_pct,
                                         std::uint64_t seed, Tracer& tracer,
                                         std::vector<IterRecord>& warmups) {
  auto s = std::make_unique<Session>();
  s->problem = build_problem(spec, headroom_pct, tracer);
  plan_problem(*s->problem, tracer);
  {
    Scope sc(tracer, "kernels.context");
    s->kernels = std::make_unique<kernels::KernelContext>(kKernelThreads);
  }
  {
    Scope sc(tracer, "mem.host_pool");
    s->host_pool = std::make_unique<mem::HostPool>(
        s->problem->machine.host_capacity_bytes);
  }
  {
    Scope sc(tracer, "sim.backend");
    s->data = std::make_unique<sim::DataBackend>(
        s->problem->graph, seed, kLearningRate, s->kernels.get());
  }
  for (int i = 0; i < kWarmupIterations; ++i) {
    warmups.push_back(run_iteration(*s, tracer, /*traced=*/true));
  }
  return s;
}

/// The correctness reference: the same model's keep-all stream replayed
/// on the unclamped device through the benchmark's executor options with
/// a `kernel_threads` kernel context, from a backend seeded with `seed`,
/// for `iterations` iterations.
struct Reference {
  std::vector<std::uint32_t> loss_bits;
  std::vector<double> walls;
  std::uint64_t param_norm_bits = 0;
};

Reference run_reference(const Problem& p, std::uint64_t seed,
                        int iterations, int kernel_threads) {
  const cost::MachineConfig machine = cost::x86_pcie();
  const sim::CostTimeModel tm(p.graph, machine);
  const sim::Runtime rt(p.graph, p.tape, machine, tm);
  exec::OpStream stream;
  try {
    stream = planner::record_op_stream(
        rt, sim::Classification(p.graph, sim::ValueClass::kKeep));
  } catch (const Error& e) {
    throw Failure(std::string("reference export failed: ") + e.what());
  }
  const auto violations = stream.validate(p.graph, p.tape);
  if (!violations.empty()) {
    throw Failure("invalid reference stream: " + violations.front());
  }
  const exec::AsyncExecutor executor(p.graph, stream);
  kernels::KernelContext kctx(kernel_threads);
  sim::DataBackend data(p.graph, seed, kLearningRate, &kctx);
  const exec::AsyncOptions ao = executor_options(nullptr);
  Reference ref;
  for (int it = 0; it < iterations; ++it) {
    stream.iteration = static_cast<std::uint64_t>(it);
    const double t = now_s();
    const exec::AsyncResult res = executor.run(data, ao);
    ref.walls.push_back(now_s() - t);
    if (!res.ok) throw Failure("reference run failed: " + res.failure);
    ref.loss_bits.push_back(float_bits(data.loss()));
  }
  ref.param_norm_bits = double_bits(data.param_norm());
  return ref;
}

// ---------------------------------------------------------------------
// Raw result.

struct Result {
  int attempted = 0;
  int failed = 0;
  std::vector<std::string> failures;
  int batch = 0;  // samples per closed-loop unit
  std::vector<double> setup_s;
  std::vector<IterRecord> iters;   // timed units (iterations or cycles)
  std::vector<double> ref_walls;   // reference walls of the timed units
  long peak_rss_kib = 0;
  // Plan and stream facts, summed over the workload's problems.
  std::array<int, 3> counts{0, 0, 0};
  int simulations = 0, step1 = 0, step2 = 0, cache_hits = 0;
  double predicted_iter_s = 0.0;
  std::size_t predicted_peak_bytes = 0;
  std::size_t stream_ops = 0;
  std::size_t swap_bytes = 0;
  double conv_flops = 0.0, fc_flops = 0.0;  // per iteration, fwd + bwd
  std::size_t host_peak_bytes = 0;
  bool has_profile = false;
  double roofline_error = 0.0, calibrated_error = 0.0;
  int replans = 0;

  void fail(const std::string& why) {
    ++failed;
    failures.push_back(why);
  }
};

void record_plan_facts(const Problem& p, Result& r) {
  for (int i = 0; i < 3; ++i) r.counts[i] += p.plan.counts[i];
  r.simulations += p.plan.simulations;
  r.step1 += p.plan.step1_simulations;
  r.step2 += p.plan.step2_simulations;
  r.cache_hits += p.plan.cache_hits;
  r.predicted_iter_s += p.plan.predicted_time;
  r.predicted_peak_bytes =
      std::max(r.predicted_peak_bytes, p.plan.predicted_peak);
  r.stream_ops += p.stream.ops.size();
  for (const exec::StreamOp& op : p.stream.ops) {
    if (op.type == exec::OpType::kSwapOut || op.type == exec::OpType::kSwapIn) {
      r.swap_bytes += op.bytes;
    }
    if (op.type != exec::OpType::kForward &&
        op.type != exec::OpType::kBackward) {
      continue;
    }
    const graph::LayerKind kind = p.graph.node(op.node).kind;
    if (kind != graph::LayerKind::kConv &&
        kind != graph::LayerKind::kFullyConnected) {
      continue;
    }
    const double flops = op.type == exec::OpType::kForward
                             ? cost::forward_cost(p.graph, op.node).flops
                             : cost::backward_cost(p.graph, op.node).flops;
    (kind == graph::LayerKind::kConv ? r.conv_flops : r.fc_flops) += flops;
  }
}

long read_peak_rss_kib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

json::Array numbers(const double* v, std::size_t n) {
  return json::Array(v, v + n);
}

void write_raw(const Options& o, const Result& r, const Tracer& tracer) {
  json::Object config;
  config["workload"] = o.workload;
  config["seed"] = o.seed;
  config["seconds"] = o.seconds;
  config["trace"] = o.trace ? 1 : 0;
  config["selfcheck"] = o.selfcheck;
  config["nproc"] = static_cast<int>(std::thread::hardware_concurrency());
  config["compiler"] = "g++ " __VERSION__;
  config["build_type"] = PERFBENCH_BUILD_TYPE;
  config["planner_threads"] = kPlannerThreads;
  config["kernel_threads"] = kKernelThreads;
  config["compute_workers"] = kComputeWorkers;
  config["copy_workers_per_lane"] = kCopyWorkersPerLane;
  config["machine"] = "x86_pcie";

  json::Array iters;
  for (const IterRecord& it : r.iters) {
    json::Object e;
    e["wall"] = it.wall;
    e["exec_wall"] = it.exec_wall;
    e["busy"] = numbers(it.busy, exec::kNumLanes);
    e["wait"] = numbers(it.wait, exec::kNumLanes);
    e["compute_idle"] = it.compute_idle;
    e["staging_acquisitions"] = it.staging_acquisitions;
    e["staging_peak_held"] = it.staging_peak_held;
    e["ready_peak"] = it.ready_peak;
    e["critical_path"] = it.critical_path;
    e["traced"] = it.traced;
    iters.emplace_back(std::move(e));
  }

  json::Object plan;
  plan["keep"] = r.counts[0];
  plan["swap"] = r.counts[1];
  plan["recompute"] = r.counts[2];
  plan["simulations"] = r.simulations;
  plan["step1"] = r.step1;
  plan["step2"] = r.step2;
  plan["cache_hits"] = r.cache_hits;
  plan["predicted_iter_s"] = r.predicted_iter_s;
  plan["predicted_peak_bytes"] = std::uint64_t{r.predicted_peak_bytes};

  json::Array spans;
  for (const Span& s : tracer.spans()) {
    spans.emplace_back(json::Array{s.name, s.parent, s.start, s.end});
  }

  json::Object raw;
  raw["config"] = std::move(config);
  raw["attempted"] = r.attempted;
  raw["failed"] = r.failed;
  raw["failures"] = json::Array(r.failures.begin(), r.failures.end());
  raw["batch"] = r.batch;
  raw["setup_s"] = numbers(r.setup_s.data(), r.setup_s.size());
  raw["iters"] = std::move(iters);
  raw["ref_walls"] = numbers(r.ref_walls.data(), r.ref_walls.size());
  raw["peak_rss_kib"] = static_cast<std::int64_t>(r.peak_rss_kib);
  raw["plan"] = std::move(plan);
  raw["stream_ops"] = std::uint64_t{r.stream_ops};
  raw["swap_bytes"] = std::uint64_t{r.swap_bytes};
  raw["conv_flops"] = r.conv_flops;
  raw["fc_flops"] = r.fc_flops;
  raw["host_peak_bytes"] = std::uint64_t{r.host_peak_bytes};
  raw["spans"] = std::move(spans);
  if (r.has_profile) {
    json::Object profile;
    profile["roofline_error"] = r.roofline_error;
    profile["calibrated_error"] = r.calibrated_error;
    profile["replans"] = r.replans;
    raw["profile"] = std::move(profile);
  }
  std::ofstream f(o.out);
  f << json::Value(std::move(raw)).dump() << "\n";
  if (!f) throw std::runtime_error("cannot write " + o.out);
}

// ---------------------------------------------------------------------
// Workload drivers.

/// Compare every executed iteration's loss bit-for-bit with the
/// reference, plus the final parameter norm; a failed executor run is a
/// failure too. `warmups` holds each set-up's warm-up iterations, which
/// start from the same seed as the timed session.
void check_training(const std::vector<std::vector<IterRecord>>& warmups,
                    const std::vector<IterRecord>& timed,
                    std::uint64_t param_norm_bits, const Reference& ref,
                    Result& r) {
  // Returns whether the iteration failed.
  auto check = [&](const IterRecord& it, std::size_t index,
                   const char* what) {
    ++r.attempted;
    const std::string where =
        std::string(what) + " iteration " + std::to_string(index);
    if (!it.ok) {
      r.fail(where + ": executor run failed");
    } else if (it.loss_bits != ref.loss_bits[index]) {
      r.fail(where + ": loss not bit-identical to the reference");
    } else {
      return false;
    }
    return true;
  };
  for (const auto& setup : warmups) {
    for (std::size_t i = 0; i < setup.size(); ++i) {
      check(setup[i], i, "warm-up");
    }
  }
  const std::size_t base = warmups.back().size();
  bool last_failed = false;
  for (std::size_t i = 0; i < timed.size(); ++i) {
    last_failed = check(timed[i], base + i, "timed");
  }
  // The final parameters are one more check on the last iteration.
  if (param_norm_bits != ref.param_norm_bits && !last_failed) {
    r.fail("final param_norm not bit-identical to the reference");
  }
}

void run_training(const Options& o, const ModelSpec& spec, int headroom_pct,
                  bool measured_profile, Tracer& tracer, Result& r) {
  std::vector<std::vector<IterRecord>> warmups;
  std::unique_ptr<Session> s;
  // The traced run sets up once.
  const int min_setups = o.trace ? 1 : kTimedSetups;
  const double setup_deadline = now_s() + (o.trace ? 0.0 : kSetupSeconds);
  for (int i = 0; i < min_setups || now_s() < setup_deadline; ++i) {
    s.reset();  // one job at a time, so set-ups do not stack up in memory
    warmups.emplace_back();
    const double t = now_s();
    try {
      Scope sc(tracer, "bench.setup");
      s = set_up_training(spec, headroom_pct, o.seed, tracer,
                          warmups.back());
    } catch (const Failure& e) {
      // Nothing ran: the plan (or its stream) is the one failed operation.
      r.attempted = 1;
      r.fail(e.what());
      return;
    }
    r.setup_s.push_back(now_s() - t);
  }
  r.batch = spec.batch;
  record_plan_facts(*s->problem, r);

  const double deadline = now_s() + o.seconds;
  for (int i = 0; now_s() < deadline || i < kMinTimedUnits; ++i) {
    // The traced run alternates untraced and traced iterations, so the
    // tracing overhead is measured under the same conditions.
    r.iters.push_back(run_iteration(*s, tracer, o.trace && i % 2 == 1));
  }
  r.peak_rss_kib = read_peak_rss_kib();
  r.host_peak_bytes = s->host_pool->peak_in_use();
  const std::uint64_t norm_bits = double_bits(s->data->param_norm());
  const Problem& p = *s->problem;

  if (o.trace && !s->last_traced_spans.empty()) {
    const std::string path = o.trace_dir + "/" + o.workload + ".async.json";
    std::ofstream(path) << obs::async_chrome_trace(p.graph, p.stream,
                                                   s->last_traced_spans)
                               .dump();
  }
  if (o.trace) {
    Scope sc(tracer, "bench.sim_run");
    Scope run(tracer, "sim.run");
    (void)p.runtime->run(p.plan.classes, p.stream_options);
  }

  // Correctness reference, outside the timed region and after the peak
  // RSS was read.
  const std::uint64_t ref_seed =
      o.selfcheck == "ref-seed" ? o.seed + 1 : o.seed;
  const int total = static_cast<int>(warmups.back().size() + r.iters.size());
  try {
    const Reference ref = run_reference(
        p, ref_seed, total, o.trace ? kKernelThreads : kReferenceThreads);
    check_training(warmups, r.iters, norm_bits, ref, r);
    r.ref_walls.assign(ref.walls.begin() + kWarmupIterations,
                       ref.walls.end());
  } catch (const Failure& e) {
    // Without a reference no iteration is verified: all of them fail.
    r.attempted = static_cast<int>(r.iters.size());
    for (const auto& setup : warmups) {
      r.attempted += static_cast<int>(setup.size());
    }
    r.failed = r.attempted;
    r.failures.push_back(e.what());
  }

  if (measured_profile && o.trace) {
    // One run of the measured calibration loop: plan-quality scores.
    Scope sc(tracer, "profile.measured");
    kernels::KernelContext kctx(kKernelThreads);
    planner::MeasuredPipelineOptions mo;
    mo.pipeline.planner.threads = kPlannerThreads;
    mo.measure.warmup_iterations = 1;
    mo.measure.iterations = 2;
    mo.measure.copy_workers = kCopyWorkersPerLane;
    mo.measure.compute_workers = kComputeWorkers;
    mo.validation_iterations = 1;
    mo.data_seed = o.seed;
    mo.learning_rate = kLearningRate;
    mo.kernel_ctx = &kctx;
    const auto out = planner::run_pooch_measured(p.graph, p.tape, p.machine,
                                                 *p.time_model, mo);
    ++r.attempted;
    if (!out.ok) r.fail("measured pipeline: " + out.failure);
    r.has_profile = true;
    r.roofline_error = out.roofline_error;
    r.calibrated_error = out.calibrated_error;
    r.replans = out.replans;
  }
}

/// One plan-export-build cycle over every problem; returns false if any
/// problem failed (counted into `r`).
bool plan_cycle(std::vector<std::unique_ptr<Problem>>& problems,
                Tracer& tracer, Result& r) {
  bool ok = true;
  for (auto& p : problems) {
    ++r.attempted;
    try {
      plan_problem(*p, tracer);
    } catch (const Failure& e) {
      r.fail(e.what());
      ok = false;
    }
  }
  return ok;
}

/// Planning only. Every timed cycle is one set-up a training job would
/// pay before its first iteration, so setup_s is the median cycle.
void run_planning(const Options& o, Tracer& tracer, Result& r) {
  const ModelSpec* specs[] = {&kResNeXt3d, &kResNet50B640};
  std::vector<std::unique_ptr<Problem>> problems;
  {
    Scope sc(tracer, "bench.setup");
    for (const ModelSpec* spec : specs) {
      problems.push_back(build_problem(*spec, 0, tracer));
    }
    if (!plan_cycle(problems, tracer, r)) return;  // the warm-up cycle
  }
  r.batch = static_cast<int>(problems.size());

  const double deadline = now_s() + o.seconds;
  for (int i = 0; now_s() < deadline || i < kMinTimedUnits; ++i) {
    const bool traced = o.trace && i % 2 == 1;
    IterRecord it;
    it.traced = traced;
    const double t = now_s();
    {
      Tracer quiet(false);
      Scope sc(traced ? tracer : quiet, "bench.cycle");
      it.ok = plan_cycle(problems, traced ? tracer : quiet, r);
    }
    it.wall = now_s() - t;
    r.iters.push_back(it);
    r.setup_s.push_back(it.wall);
    if (!it.ok) break;
  }
  r.peak_rss_kib = read_peak_rss_kib();
  for (const auto& p : problems) record_plan_facts(*p, r);
  if (o.trace) {
    Scope sc(tracer, "bench.sim_run");
    for (const auto& p : problems) {
      Scope run(tracer, "sim.run");
      (void)p->runtime->run(p->plan.classes, p->stream_options);
    }
  }
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "resnet50-ooc|inception-branchy|paper-plan --seed N "
               "--seconds S --trace 0|1 --out RAW.json [--trace-dir DIR] "
               "[--selfcheck ref-seed|infeasible]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        o.workload = v;
      } else if (a == "--seed") {
        o.seed = std::stoull(v);
      } else if (a == "--seconds") {
        o.seconds = std::stod(v);
      } else if (a == "--trace") {
        o.trace = std::stoi(v) != 0;
      } else if (a == "--out") {
        o.out = v;
      } else if (a == "--trace-dir") {
        o.trace_dir = v;
      } else if (a == "--selfcheck") {
        o.selfcheck = v;
      } else {
        usage(("unknown flag " + a).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + a).c_str());
    }
  }
  if (o.out.empty()) usage("--out is required");
  if (o.selfcheck != "" && o.selfcheck != "ref-seed" &&
      o.selfcheck != "infeasible") {
    usage("unknown --selfcheck");
  }
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  Tracer tracer(o.trace);
  Result r;
  // The infeasible self-check shrinks the device to 1% of the activation
  // headroom: no plan can fit, and the run must fail without a verdict.
  const bool infeasible = o.selfcheck == "infeasible";
  if (o.workload == "resnet50-ooc") {
    run_training(o, kResNet50Ooc, infeasible ? 1 : kResNet50Ooc.headroom_pct,
                 /*measured_profile=*/true, tracer, r);
  } else if (o.workload == "inception-branchy") {
    run_training(o, kInception, infeasible ? 1 : kInception.headroom_pct,
                 /*measured_profile=*/false, tracer, r);
  } else if (o.workload == "paper-plan") {
    run_planning(o, tracer, r);
  } else {
    usage(("unknown workload " + o.workload).c_str());
  }
  write_raw(o, r, tracer);
  return 0;
}
