#!/usr/bin/env python3
"""Compare two bench JSON files and fail on metric regression.

Usage:
    tools/bench_compare.py baseline.json candidate.json [--tolerance 0.10]

Supports the repo's bench JSON convention `{"bench": <name>, "rows": [...]}`:

    kernels      rows keyed on (kernel, shape, threads), metric `seconds`
                 (lower is better: memory-bound rows do no FLOPs, and a
                 row's FLOPs are fixed per key, so seconds gives the
                 compute rows the verdicts gflops gave them);
    async_exec   rows keyed on (model, policy, copy_workers,
                 compute_workers), metric `vs_incore` = incore_seconds /
                 async_seconds, the in-core stream and the out-of-core
                 schedule replayed on the same executor (higher is
                 better — a drop means out-of-core execution got more
                 expensive relative to in-core); compute_workers
                 defaults to 1 so baselines predating the multi-worker
                 scheduler still parse;
    calibration  rows keyed on (model,), metric `calibrated_error` =
                 |calibrated_predicted - observed| / observed (LOWER is
                 better — a rise means the measured time model lost
                 accuracy against the wall clock);
    planner_cost rows keyed on (model, threads, cache), metric
                 `sims_per_s` = timeline simulations per wall second of
                 the PoocH search (higher is better — a drop means the
                 planner got slower per simulation).

A row regresses when its candidate metric moves more than `tolerance`
(default 10%) in the bad direction relative to the baseline. Rows present
on only one side are reported but do not fail the comparison (the corpus
may legitimately grow). An envelope without a "bench" key, or with one
this tool does not know, is a hard error — silently assuming a schema
would let a renamed bench pass vacuously. Comparing files from different
bench kinds is an error. Exit status: 0 when no row regresses, 1 on
regression, 2 on a schema/usage error.
"""

import argparse
import json
import sys

# bench name -> (key fields, metric field, direction)
# direction: "higher" = drops regress, "lower" = rises regress.
SCHEMAS = {
    "kernels": (("kernel", "shape", "threads"), "seconds", "lower"),
    "async_exec": (("model", "policy", "copy_workers", "compute_workers"),
                   "vs_incore", "higher"),
    "calibration": (("model",), "calibrated_error", "lower"),
    "planner_cost": (("model", "threads", "cache"), "sims_per_s", "higher"),
}

# Key fields that may be absent in older baselines, with the value the
# bench used implicitly back then. Everything else is required.
OPTIONAL_KEY_DEFAULTS = {
    "compute_workers": 1,  # scheduler was serial before the key existed
}


def load(path):
    with open(path) as f:
        doc = json.load(f)
    if isinstance(doc, dict):
        if "bench" not in doc:
            sys.exit(f"error: {path}: envelope has no 'bench' key; refusing "
                     f"to guess a schema (known: {', '.join(SCHEMAS)})")
        kind = doc["bench"]
        rows = doc["rows"]
    else:  # legacy bare-list files predate the envelope
        print(f"warning: {path}: legacy bare-list file, assuming 'kernels'",
              file=sys.stderr)
        kind = "kernels"
        rows = doc
    if kind not in SCHEMAS:
        sys.exit(f"error: {path}: unknown bench kind '{kind}' "
                 f"(known: {', '.join(SCHEMAS)})")
    key_fields, metric, direction = SCHEMAS[kind]

    def key_of(r):
        return tuple(r[k] if k in r else OPTIONAL_KEY_DEFAULTS[k]
                     for k in key_fields)

    return kind, metric, direction, {key_of(r): r for r in rows}


def compare(base, cand, metric, direction, tolerance, out=sys.stdout):
    """Print the row-by-row table; return the list of regressed keys."""
    def fmt_key(key):
        return " ".join(f"{v}" for v in key)

    width = max([len(fmt_key(k)) for k in list(base) + list(cand)] + [10])
    regressions = []
    print(f"{'row':<{width}} {'base':>10} {'cand':>10} {'delta':>8}",
          file=out)
    for key in sorted(base, key=fmt_key):
        if key not in cand:
            print(f"{fmt_key(key):<{width}} {base[key][metric]:>10.4g} "
                  f"{'missing':>10}", file=out)
            continue
        b = base[key][metric]
        c = cand[key][metric]
        delta = (c - b) / b if b > 0 else 0.0
        bad = delta < -tolerance if direction == "higher" \
            else delta > tolerance
        flag = ""
        if bad:
            regressions.append((key, b, c, delta))
            flag = "  REGRESSION"
        print(f"{fmt_key(key):<{width}} {b:>10.4g} {c:>10.4g} "
              f"{delta:>+7.1%}{flag}", file=out)
    for key in sorted(set(cand) - set(base), key=fmt_key):
        print(f"{fmt_key(key):<{width}} {'new':>10} "
              f"{cand[key][metric]:>10.4g}", file=out)
    return regressions


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline")
    ap.add_argument("candidate")
    ap.add_argument("--tolerance", type=float, default=0.10,
                    help="allowed fractional metric move in the bad "
                         "direction (default 0.10)")
    args = ap.parse_args()

    base_kind, metric, direction, base = load(args.baseline)
    cand_kind, _, _, cand = load(args.candidate)
    if base_kind != cand_kind:
        sys.exit(f"error: bench kind mismatch: {base_kind} vs {cand_kind}")

    regressions = compare(base, cand, metric, direction, args.tolerance)
    if regressions:
        print(f"\n{len(regressions)} {metric} row(s) regressed more than "
              f"{args.tolerance:.0%}", file=sys.stderr)
        return 1
    print("\nno regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
