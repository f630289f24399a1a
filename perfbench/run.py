#!/usr/bin/env python3
"""Run one workload of the PoocH benchmark and print its metrics.

    python3 perfbench/run.py --workload resnet50-ooc --seed 1 --seconds 8 --trace 0

On first use this builds the benchmark driver (perfbench/main.cpp, against
the library sources of this checkout) into .bench_build. It then runs the
workload in one process, checks the outputs against a reference and prints
every metric with its unit. The last line of standard output is one JSON
object with the keys "correct", "attempted", "failed" and "metrics".
--trace 0 reports the end-to-end metrics of an untraced run; --trace 1
reports the per-layer metrics of a separate traced run and writes its
spans under .bench_out/. perfbench/README.md describes workloads and
metrics; the exit code is 0 only for a correct run.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

import benchlib as bl

ROOT = pathlib.Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
OUT = ROOT / ".bench_out"
WORKLOADS = ("resnet50-ooc", "inception-branchy", "paper-plan")
RUN_TIMEOUT_S = 170
KERNEL_GROUPS = ("conv", "fc", "bn", "pool", "act", "eltwise", "softmax",
                 "update", "recompute")


def build_driver():
    """Configure once, then (re)build only the driver and the library."""
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr, "check": True}
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                        str(BUILD), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       **quiet)
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "perfbench",
                    "-j", "4"], **quiet)
    return BUILD / "perfbench"


def end_to_end(raw):
    walls = [it["wall"] for it in raw["iters"]]
    value, pct, n = bl.tail(walls)
    metrics = {
        "samples_per_s": raw["batch"] * len(walls) / sum(walls),
        "iter_s_p50": bl.median(walls),
        "iter_s_tail": value,
        "setup_s": bl.median(raw["setup_s"]),
        "peak_rss_mb": raw["peak_rss_kib"] / 1024.0,
    }
    notes = {"iter_s_tail": f"p{pct:.1f} of {n} samples, 10 beyond it",
             "setup_s": f"median of {len(raw['setup_s'])} set-ups"}
    return metrics, notes


def per_layer(raw):
    spans = [tuple(s) for s in raw["spans"]]
    kids = bl.children_of(spans)
    planning = raw["config"]["workload"] == "paper-plan"
    unit = "bench.cycle" if planning else "exec.run"
    unit_roots = bl.roots_named(spans, unit)
    root_kinds = (unit_roots, bl.roots_named(spans, "bench.setup"),
                  bl.roots_named(spans, "bench.sim_run"))

    def layer_s(name):
        """Time in spans named `name`, summed per root span, median over
        the roots of the first kind (timed unit, set-up, simulator probe)
        that contains the name at all."""
        for roots in root_kinds:
            sums = bl.per_root_sums(
                spans, roots,
                lambda i: spans[i][3] - spans[i][2]
                if spans[i][0] == name else 0.0, kids)
            if any(sums):
                return bl.median(sums)
        return 0.0

    iters = raw["iters"]
    traced = [it["wall"] for it in iters if it["traced"]]
    untraced = [it["wall"] for it in iters if not it["traced"]]

    def per_iter(f):
        return bl.median([f(it) for it in iters])

    shares = []
    for r in unit_roots:
        copies, computes = [], []
        for k in kids[r]:
            name, _, s, e = spans[k]
            (copies if name.startswith("mem.swap") else computes).append(
                (s, e))
        shares.append(bl.overlap_share(copies, computes))

    plan = raw["plan"]
    plan_s = layer_s("pooch.plan")
    incore = bl.median(raw["ref_walls"])
    copy_busy = per_iter(lambda it: it["busy"][1] + it["busy"][2])
    m = {
        "graph.build_s": layer_s("graph.build"),
        "pooch.plan_s": plan_s,
        "pooch.simulations": plan["simulations"],
        "pooch.sims_per_s": plan["simulations"] / plan_s if plan_s else 0.0,
        "pooch.cache_hits": plan["cache_hits"],
        "pooch.step1_simulations": plan["step1"],
        "pooch.step2_simulations": plan["step2"],
        "pooch.keep": plan["keep"],
        "pooch.swap": plan["swap"],
        "pooch.recompute": plan["recompute"],
        "pooch.predicted_iter_s": plan["predicted_iter_s"],
        "pooch.predicted_peak_bytes": plan["predicted_peak_bytes"],
        "sim.run_s": layer_s("sim.run"),
        "sim.record_stream_s": layer_s("sim.record_stream"),
        "sim.stream_ops": raw["stream_ops"],
        "exec.build_s": layer_s("exec.build"),
        "exec.run_s": per_iter(lambda it: it["exec_wall"]),
        "exec.compute_busy_s": per_iter(lambda it: it["busy"][0]),
        "exec.compute_idle_s": per_iter(lambda it: it["compute_idle"]),
        "exec.dispatch_gap_s":
            per_iter(lambda it: it["exec_wall"] - it["busy"][0]),
        "exec.h2d_busy_s": per_iter(lambda it: it["busy"][2]),
        "exec.d2h_busy_s": per_iter(lambda it: it["busy"][1]),
        "exec.h2d_wait_s": per_iter(lambda it: it["wait"][2]),
        "exec.d2h_wait_s": per_iter(lambda it: it["wait"][1]),
        "exec.hidden_transfer_share": bl.median(shares),
        "exec.staging_acquisitions":
            per_iter(lambda it: it["staging_acquisitions"]),
        "exec.staging_peak_held": per_iter(lambda it: it["staging_peak_held"]),
        "exec.ready_peak": per_iter(lambda it: it["ready_peak"]),
        "exec.critical_path_s": per_iter(lambda it: it["critical_path"]),
        "exec.incore_iter_s": incore,
        "exec.ooc_overhead": bl.median(untraced) / incore if incore else 0.0,
    }
    for group in KERNEL_GROUPS:
        m[f"kernels.{group}_s"] = layer_s(f"kernels.{group}")
    for group in ("conv", "fc"):
        t = m[f"kernels.{group}_s"]
        m[f"kernels.{group}_gflops"] = (
            raw[f"{group}_flops"] / t / 1e9 if t else 0.0)
    m["mem.swap_bytes"] = raw["swap_bytes"]
    m["mem.swap_gbps"] = raw["swap_bytes"] / copy_busy / 1e9 if copy_busy else 0.0
    m["mem.host_peak_bytes"] = raw["host_peak_bytes"]
    profile = raw.get("profile", {})
    m["profile.roofline_error"] = profile.get("roofline_error", 0.0)
    m["profile.calibrated_error"] = profile.get("calibrated_error", 0.0)
    m["profile.replans"] = profile.get("replans", 0)
    m["obs.trace_overhead"] = (bl.median(traced) / bl.median(untraced) - 1.0
                               if traced and untraced else 0.0)
    for family, roots in (("iter", unit_roots), ("setup", root_kinds[1])):
        for module, seconds in bl.self_by_module(spans, roots, kids).items():
            m[f"self.{family}.{module}_s"] = seconds
    notes = {"exec.hidden_transfer_share":
             f"median over {len(unit_roots)} traced units"}
    return m, notes


def write_span_trace(raw, path):
    """The traced run's spans as a Chrome trace (one track per lane)."""
    spans = [tuple(s) for s in raw["spans"]]
    selfs = bl.self_times(spans)
    lane = {"mem.swap_out": 2, "mem.swap_in": 3}
    events = [{"name": name, "ph": "X", "pid": 1, "tid": lane.get(name, 1),
               "ts": start * 1e6, "dur": (end - start) * 1e6,
               "args": {"parent": parent, "self_s": selfs[i]}}
              for i, (name, parent, start, end) in enumerate(spans)]
    path.write_text(json.dumps({"traceEvents": events,
                                "displayTimeUnit": "ms"}))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", choices=("ref-seed", "infeasible"),
                    help="negative check of the correctness gate: compare "
                    "against a differently seeded reference, or plan on a "
                    "device too small for any plan; must report "
                    "failed_frac = 1")
    args = ap.parse_args()

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in declared["end_to_end"] + declared["per_layer"]}
    try:
        binary = build_driver()
    except subprocess.CalledProcessError as e:
        sys.exit(f"perfbench: build failed: {e}")
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-{args.seed}-t{args.trace}"
    raw_path = OUT / f"{tag}.raw.json"
    cmd = [str(binary), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace), "--out", str(raw_path), "--trace-dir", str(OUT)]
    if args.selfcheck:
        cmd += ["--selfcheck", args.selfcheck]
    try:
        subprocess.run(cmd, check=True, timeout=RUN_TIMEOUT_S)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        sys.exit(f"perfbench: driver failed: {e}")
    raw = json.loads(raw_path.read_text())

    cfg = raw["config"]
    print(f"config: workload {cfg['workload']}, seed {cfg['seed']}, "
          f"nproc {cfg['nproc']} (os.cpu_count {os.cpu_count()}), "
          f"{cfg['compiler']}, {cfg['build_type']}, machine {cfg['machine']}, "
          f"planner threads {cfg['planner_threads']}, compute workers "
          f"{cfg['compute_workers']} x {cfg['kernel_threads']} kernel "
          f"threads, {cfg['copy_workers_per_lane']} worker per copy lane")
    attempted, failed = raw["attempted"], raw["failed"]
    for why in raw["failures"][:5]:
        print(f"failure: {why}")
    ran = bool(raw["iters"]) and attempted > 0
    frac = failed / attempted if attempted else 1.0
    print(f"failed_frac {frac:.6g} ratio ({failed} of {attempted} "
          f"operations failed)")
    # The tail percentile needs more than ten timed units.
    enough = len(raw["iters"]) > 10
    correct = ran and enough and failed == 0
    if correct:
        print("verdict: every iteration bit-identical to the reference"
              if cfg["workload"] != "paper-plan"
              else "verdict: every plan feasible and every stream valid")
    metrics = {}
    if ran and enough:
        values, notes = per_layer(raw) if args.trace else end_to_end(raw)
        wanted = [m["name"] for m in
                  declared["per_layer" if args.trace else "end_to_end"]]
        if sorted(values) != sorted(wanted):
            sys.exit(f"perfbench: metrics {sorted(set(values) ^ set(wanted))}"
                     " differ from BENCHMARK.json")
        for name in wanted:
            note = f"  ({notes[name]})" if name in notes else ""
            print(f"{name:34s} {values[name]:.6g} {units[name]}{note}")
            metrics[name] = {"value": values[name], "unit": units[name]}
        if args.trace:
            trace_path = OUT / f"{tag}.spans.json"
            write_span_trace(raw, trace_path)
            print(f"spans written to {trace_path}")
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed if attempted else 1,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
