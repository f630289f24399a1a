#!/usr/bin/env python3
"""Compare two bench JSON files and fail on metric regression.

Usage:
    tools/bench_compare.py baseline.json candidate.json [--tolerance 0.10]

Every regression-gated bench writes one self-describing document
(bench::Report in bench/bench_common.hpp):

    {"bench": "<name>", "cpus": <hardware threads>,
     "key": ["<field>", ...], "metric": "<field>",
     "better": "higher" | "lower", "rows": [{...}, ...]}

Rows are matched on the values of the `key` fields and compared on
`metric`; `better` says which direction is good. The tool names no
bench: the document that owns the rows declares how they are gated.

A row regresses when its candidate metric moves more than `tolerance`
(default 10%) in the bad direction relative to the baseline. Rows present
on only one side are reported but do not fail the comparison (the corpus
may legitimately grow).

Schema errors: a document missing any envelope field, a `better` that is
neither "higher" nor "lower", a row without a key field or a numeric
metric, or two rows with one key. The baseline is the trust anchor: the
candidate must agree with it on `bench`, `key`, `metric` and `better`,
so it cannot relax its own gate, and on `cpus`, so only like is
compared with like. Exit status: 0 when no row regresses, 1 on
regression, 2 on a schema or usage error.
"""

import argparse
import json
import sys

ENVELOPE = ("bench", "cpus", "key", "metric", "better", "rows")
# Header fields on which the candidate must match the baseline.
MUST_MATCH = ("bench", "cpus", "key", "metric", "better")


class SchemaError(Exception):
    pass


def load(path):
    """Return (header, {key tuple: row}) of one bench document."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        raise SchemaError(f"{path}: {e}")
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: not a bench document (expected an "
                          f"object with {', '.join(ENVELOPE)})")
    for field in ENVELOPE:
        if field not in doc:
            raise SchemaError(f"{path}: no '{field}' field; refusing to "
                              f"guess a schema")
    key_fields, metric, better = doc["key"], doc["metric"], doc["better"]
    if (not isinstance(key_fields, list) or not key_fields
            or not all(isinstance(k, str) for k in key_fields)):
        raise SchemaError(f"{path}: 'key' must be a non-empty list of "
                          f"field names")
    if not isinstance(metric, str):
        raise SchemaError(f"{path}: 'metric' must be a field name")
    if better not in ("higher", "lower"):
        raise SchemaError(f"{path}: 'better' is {better!r}, not 'higher' "
                          f"or 'lower'")
    if not isinstance(doc["rows"], list):
        raise SchemaError(f"{path}: 'rows' must be a list")

    rows = {}
    for i, row in enumerate(doc["rows"]):
        if not isinstance(row, dict):
            raise SchemaError(f"{path}: row {i} is not an object")
        for field in key_fields + [metric]:
            if field not in row:
                raise SchemaError(f"{path}: row {i} has no '{field}'")
        value = row[metric]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SchemaError(f"{path}: row {i} '{metric}' is not a number")
        key = tuple(row[k] for k in key_fields)
        if any(isinstance(v, (list, dict)) for v in key):
            raise SchemaError(f"{path}: row {i} has a non-scalar key field")
        if key in rows:
            raise SchemaError(f"{path}: row {i} repeats the key {key}")
        rows[key] = row
    header = {field: doc[field] for field in MUST_MATCH}
    return header, rows


def compare(base, cand, metric, better, tolerance, out=sys.stdout):
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
        bad = delta < -tolerance if better == "higher" \
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

    try:
        base_header, base = load(args.baseline)
        cand_header, cand = load(args.candidate)
        for field in MUST_MATCH:
            if base_header[field] != cand_header[field]:
                raise SchemaError(
                    f"'{field}' mismatch: baseline {base_header[field]!r}, "
                    f"candidate {cand_header[field]!r}")
    except SchemaError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    metric = base_header["metric"]
    regressions = compare(base, cand, metric, base_header["better"],
                          args.tolerance)
    if regressions:
        print(f"\n{len(regressions)} {metric} row(s) regressed more than "
              f"{args.tolerance:.0%}", file=sys.stderr)
        return 1
    print("\nno regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
