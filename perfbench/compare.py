#!/usr/bin/env python3
"""Steadiness check and parent-versus-change comparison for the benchmark.

steady: run one workload k times, each with another seed, and print each
end-to-end metric's median, quartiles and spread (quartile distance over
median) against the metric's bound in BENCHMARK.json.

    python3 perfbench/compare.py steady --workload resnet50-ooc --runs 10

pairs: run two checkouts (say parent and change) in alternating pairs,
parent first in even pairs and change first in odd ones, the same seed
within a pair, then compare them as `files` does.

    python3 perfbench/compare.py pairs --parent ../parent --change . \\
        --workload resnet50-ooc --pairs 10 --save pairs.jsonl

files: compare saved results (JSON lines written by --save) per workload
and metric: "regression" means the change's median is worse by more than
the bound; else "gain" needs the change to win nine tenths of the pairs
and its median to beat the parent's by more than the parent's quartile
distance; otherwise "unresolved" means a side's spread exceeds the bound and
not every change run beats every parent run, and "unchanged" the rest.

    python3 perfbench/compare.py files pairs.jsonl
"""

import argparse
import json
import pathlib
import subprocess
import sys

import benchlib as bl

HERE = pathlib.Path(__file__).resolve().parent


def declared(checkout=HERE.parent):
    return json.loads((checkout / "BENCHMARK.json").read_text())


def run_once(checkout, workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(checkout / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds",
         str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{checkout}: {workload} seed {seed} failed "
                 f"(exit {proc.returncode}):\n{proc.stdout[-2000:]}"
                 f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def values(results, name):
    return [r["metrics"][name]["value"] for r in results]


def cmd_steady(args):
    spec = declared()
    seconds = spec["run_seconds"]
    results = []
    for i in range(args.runs):
        seed = args.first_seed + i
        results.append(run_once(HERE.parent, args.workload, seed, seconds))
        print(f"run {i + 1}/{args.runs} (seed {seed}) done", file=sys.stderr)
    print(f"{args.workload}: {args.runs} runs of {seconds} s")
    print(f"{'metric':16s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s} {'bound':>6s}  status")
    for m in spec["end_to_end"]:
        xs = values(results, m["name"])
        q1, med, q3 = bl.quartiles(xs)
        s = bl.spread(xs)
        status = ("steady" if s < m["bound"] / 3 else
                  "within bound" if s <= m["bound"] else "OVER BOUND")
        print(f"{m['name']:16s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{s:8.4f} {m['bound']:6.3f}  {status}")


def compare(records):
    spec = declared()
    by_workload = {}
    for rec in records:
        side = by_workload.setdefault(rec["workload"], {})
        side.setdefault(rec["side"], []).append(rec["result"])
    for workload, sides in sorted(by_workload.items()):
        parent, change = sides.get("parent", []), sides.get("change", [])
        if not parent or not change:
            print(f"{workload}: needs both parent and change runs")
            continue
        print(f"{workload}: {len(parent)} parent and {len(change)} change "
              "runs")
        for m in spec["end_to_end"]:
            v, d = bl.verdict(values(parent, m["name"]),
                              values(change, m["name"]), m["bound"],
                              m["better"])
            print(f"  {m['name']:16s} {v:11s} parent {d['parent_median']:.6g}"
                  f" [{d['parent_q1']:.6g}, {d['parent_q3']:.6g}] change "
                  f"{d['change_median']:.6g}  worse by {d['worse_by']:+.2%}"
                  f" (bound {m['bound']:.0%}), change wins "
                  f"{d['change_wins']}/{d['pairs']}, spreads "
                  f"{d['parent_spread']:.3f}/{d['change_spread']:.3f}")


def cmd_pairs(args):
    parent = pathlib.Path(args.parent).resolve()
    change = pathlib.Path(args.change).resolve()
    seconds = declared()["run_seconds"]
    records = []
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = [("parent", parent), ("change", change)]
        if i % 2:
            order.reverse()
        for side, checkout in order:
            r = run_once(checkout, args.workload, seed, seconds)
            records.append({"workload": args.workload, "seed": seed,
                            "side": side, "result": r})
        print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr)
    if args.save:
        with open(args.save, "a") as f:
            for rec in records:
                f.write(json.dumps(rec) + "\n")
    compare(records)


def cmd_files(args):
    records = []
    for path in args.files:
        with open(path) as f:
            records += [json.loads(line) for line in f if line.strip()]
    compare(records)


def main():
    ap = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    st = sub.add_parser("steady", help="spread of k runs of one checkout")
    st.add_argument("--workload", required=True)
    st.add_argument("--runs", type=int, default=10)
    st.add_argument("--first-seed", type=int, default=1)
    st.set_defaults(fn=cmd_steady)
    pa = sub.add_parser("pairs", help="alternating runs of two checkouts")
    pa.add_argument("--parent", required=True)
    pa.add_argument("--change", required=True)
    pa.add_argument("--workload", required=True)
    pa.add_argument("--pairs", type=int, default=10)
    pa.add_argument("--first-seed", type=int, default=1)
    pa.add_argument("--save")
    pa.set_defaults(fn=cmd_pairs)
    fi = sub.add_parser("files", help="compare saved results")
    fi.add_argument("files", nargs="+")
    fi.set_defaults(fn=cmd_files)
    args = ap.parse_args()
    args.fn(args)


if __name__ == "__main__":
    main()
