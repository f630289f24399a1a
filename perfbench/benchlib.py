"""Statistics of the benchmark: percentiles, span arithmetic and verdicts.

Pure functions over plain lists, shared by run.py (metrics of one run) and
compare.py (steadiness and parent-versus-change comparison). Spans are
(name, parent, start, end) tuples with parent an index into the same list
(-1 for a root), as the benchmark driver writes them.
"""

import statistics

MODULES = ("bench", "graph", "pooch", "sim", "exec", "kernels", "mem")


def median(xs):
    return statistics.median(xs) if xs else 0.0


def quartiles(xs):
    """First quartile, median, third quartile (statistics.quantiles, n=4)."""
    if len(xs) < 2:
        x = xs[0] if xs else 0.0
        return x, x, x
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def spread(xs):
    """Distance between the quartiles as a share of the median."""
    q1, q2, q3 = quartiles(xs)
    return (q3 - q1) / q2 if q2 else float("inf")


def tail(xs, beyond=10):
    """The highest percentile with at least `beyond` samples above it.

    Returns (value, percentile, sample count), or None when there are too
    few samples. The value is the sample with exactly `beyond` samples
    after it in sorted order; its percentile is the share of samples at or
    below it.
    """
    n = len(xs)
    if n <= beyond:
        return None
    ordered = sorted(xs)
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n, n


def union(intervals):
    """Merge (start, end) intervals into a sorted disjoint list."""
    merged = []
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return merged


def covered(start, end, merged):
    """Length of [start, end] covered by a merged interval list."""
    return sum(max(0.0, min(end, e) - max(start, s)) for s, e in merged)


def overlap_share(copies, computes):
    """Share of the copy intervals' total length that overlaps compute."""
    busy = sum(e - s for s, e in copies)
    if busy <= 0:
        return 0.0
    merged = union(computes)
    return sum(covered(s, e, merged) for s, e in copies) / busy


def children_of(spans):
    kids = [[] for _ in spans]
    for i, (_, parent, _, _) in enumerate(spans):
        if parent >= 0:
            kids[parent].append(i)
    return kids


def self_times(spans, kids=None):
    """Each span's duration minus the part its children cover."""
    kids = kids if kids is not None else children_of(spans)
    out = []
    for i, (_, _, start, end) in enumerate(spans):
        merged = union((spans[k][2], spans[k][3]) for k in kids[i])
        out.append((end - start) - covered(start, end, merged))
    return out


def subtree(root, kids):
    stack, out = [root], []
    while stack:
        i = stack.pop()
        out.append(i)
        stack.extend(kids[i])
    return out


def roots_named(spans, name):
    return [i for i, s in enumerate(spans) if s[1] < 0 and s[0] == name]


def per_root_sums(spans, roots, value, kids=None):
    """For each root, the sum of value(i) over the spans of its subtree."""
    kids = kids if kids is not None else children_of(spans)
    return [sum(value(i) for i in subtree(r, kids)) for r in roots]


def module_of(name):
    return name.split(".", 1)[0]


def self_by_module(spans, roots, kids=None):
    """Median over `roots` of each module's summed self time per root."""
    kids = kids if kids is not None else children_of(spans)
    selfs = self_times(spans, kids)
    out = {}
    for module in MODULES:
        sums = per_root_sums(
            spans, roots,
            lambda i: selfs[i] if module_of(spans[i][0]) == module else 0.0,
            kids)
        out[module] = median(sums)
    return out


def verdict(parent, change, bound, better):
    """Compare two sets of runs of one metric, paired by index.

    `parent` and `change` list one value per run, run i of each side being
    one alternating pair. Returns (verdict, details): "regression" when
    the change's median is worse than the parent's by more than `bound` (a
    share of the parent's median); "gain" when the change wins at least
    nine tenths of the pairs (ties count for neither) and the medians
    differ by more than the parent's quartile distance; otherwise
    "unresolved" when either side's spread exceeds `bound`, unless every
    change run beats every parent run, and "unchanged".
    """
    sign = 1.0 if better == "higher" else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = median(change)
    pairs = min(len(parent), len(change))
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    worse = -sign * (c_med - p_med) / p_med if p_med else 0.0
    details = {
        "parent_median": p_med, "change_median": c_med,
        "parent_q1": p_q1, "parent_q3": p_q3,
        "parent_spread": spread(parent), "change_spread": spread(change),
        "pairs": pairs, "change_wins": wins, "worse_by": worse,
        "bound": bound,
    }
    if worse > bound:
        return "regression", details
    if pairs and wins >= 0.9 * pairs and sign * (c_med - p_med) > p_q3 - p_q1:
        return "gain", details
    every_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if (max(details["parent_spread"], details["change_spread"]) > bound
            and not every_better):
        return "unresolved", details
    return "unchanged", details
