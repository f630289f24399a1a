#!/usr/bin/env python3
"""Self-test for bench_compare.py (invoked from ctest as bench_compare_selftest).

pytest-style test functions, but runnable standalone — `python3
tools/test_bench_compare.py` discovers and runs every `test_*` function
so the suite needs nothing beyond the standard library.
"""

import io
import json
import os
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_compare  # noqa: E402

TOOL = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    "bench_compare.py")


def run_tool(*args):
    return subprocess.run([sys.executable, TOOL, *args],
                          capture_output=True, text=True)


def write_doc(tmp, name, doc):
    path = os.path.join(tmp, name)
    with open(path, "w") as f:
        json.dump(doc, f)
    return path


def bench_doc(bench, key, metric, better, rows, cpus=4):
    return {"bench": bench, "cpus": cpus, "key": key, "metric": metric,
            "better": better, "rows": rows}


def kernels_doc(seconds, kernel="gemm", gflops=1.0):
    return bench_doc("kernels", ["kernel", "shape", "threads"], "seconds",
                     "lower",
                     [{"kernel": kernel, "shape": "256", "threads": 1,
                       "seconds": seconds, "gflops": gflops}])


def calibration_doc(error):
    return bench_doc("calibration", ["model"], "calibrated_error", "lower",
                     [{"model": "resnet50", "calibrated_error": error}])


def async_exec_doc(rows):
    return bench_doc("async_exec",
                     ["model", "policy", "copy_workers", "compute_workers"],
                     "vs_incore", "higher", rows)


def planner_cost_doc(sims_per_s):
    return bench_doc("planner_cost", ["model", "threads", "cache"],
                     "sims_per_s", "higher",
                     [{"model": "ResNet-50 (b640)", "threads": 4,
                       "cache": True, "wall_seconds": 3207 / sims_per_s,
                       "sims_per_s": sims_per_s}])


def expect_schema_error(base_doc, cand_doc, *needles):
    """The tool must exit 2 and name every needle on stderr."""
    with tempfile.TemporaryDirectory() as tmp:
        base = write_doc(tmp, "base.json", base_doc)
        cand = write_doc(tmp, "cand.json", cand_doc)
        r = run_tool(base, cand)
        assert r.returncode == 2, (r.returncode, r.stdout, r.stderr)
        for needle in needles:
            assert needle in r.stderr, (needle, r.stderr)


def test_higher_is_better_regression():
    # gflops dropping 50% regresses; rising never does.
    regs = bench_compare.compare(
        {("gemm",): {"gflops": 10.0}}, {("gemm",): {"gflops": 5.0}},
        "gflops", "higher", 0.10, out=io.StringIO())
    assert len(regs) == 1, regs
    regs = bench_compare.compare(
        {("gemm",): {"gflops": 10.0}}, {("gemm",): {"gflops": 20.0}},
        "gflops", "higher", 0.10, out=io.StringIO())
    assert regs == [], regs


def test_lower_is_better_regression():
    # calibrated_error rising >10% regresses; falling never does.
    regs = bench_compare.compare(
        {("resnet50",): {"calibrated_error": 0.05}},
        {("resnet50",): {"calibrated_error": 0.20}},
        "calibrated_error", "lower", 0.10, out=io.StringIO())
    assert len(regs) == 1, regs
    regs = bench_compare.compare(
        {("resnet50",): {"calibrated_error": 0.20}},
        {("resnet50",): {"calibrated_error": 0.05}},
        "calibrated_error", "lower", 0.10, out=io.StringIO())
    assert regs == [], regs


def test_kernels_gate_on_seconds():
    # A compute row keeps its gflops verdict: half the gflops is twice
    # the seconds for the same key. A memory-bound row (no FLOPs) is
    # gated too: 50% slower regresses, 5% slower passes.
    with tempfile.TemporaryDirectory() as tmp:
        base = write_doc(tmp, "base.json", kernels_doc(0.010, gflops=10.0))
        slower = write_doc(tmp, "slower.json", kernels_doc(0.020, gflops=5.0))
        r = run_tool(base, slower)
        assert r.returncode == 1, (r.returncode, r.stdout, r.stderr)
        assert "REGRESSION" in r.stdout, r.stdout

        bn = write_doc(tmp, "bn.json",
                       kernels_doc(0.0010, kernel="bn_fwd", gflops=0.0))
        bn_ok = write_doc(tmp, "bn_ok.json",
                          kernels_doc(0.00105, kernel="bn_fwd", gflops=0.0))
        bn_slow = write_doc(tmp, "bn_slow.json",
                            kernels_doc(0.0015, kernel="bn_fwd", gflops=0.0))
        r = run_tool(bn, bn_ok)
        assert r.returncode == 0, (r.returncode, r.stdout, r.stderr)
        assert "no regressions" in r.stdout, r.stdout
        r = run_tool(bn, bn_slow)
        assert r.returncode == 1, (r.returncode, r.stdout, r.stderr)
        assert "REGRESSION" in r.stdout, r.stdout


def test_rows_on_one_side_do_not_fail():
    regs = bench_compare.compare(
        {("a",): {"gflops": 1.0}}, {("b",): {"gflops": 1.0}},
        "gflops", "higher", 0.10, out=io.StringIO())
    assert regs == [], regs


def test_the_document_declares_its_gate():
    # The tool knows no bench: a name it has never seen gates on the key,
    # metric and direction its document declares.
    def doc(latency):
        return bench_doc("never_seen", ["op"], "latency", "lower",
                         [{"op": "x", "latency": latency}])

    with tempfile.TemporaryDirectory() as tmp:
        base = write_doc(tmp, "base.json", doc(1.0))
        same = write_doc(tmp, "same.json", doc(1.05))
        worse = write_doc(tmp, "worse.json", doc(2.0))
        r = run_tool(base, same)
        assert r.returncode == 0, (r.returncode, r.stdout, r.stderr)
        r = run_tool(base, worse)
        assert r.returncode == 1, (r.returncode, r.stdout, r.stderr)
        assert "REGRESSION" in r.stdout, r.stdout


def test_missing_envelope_field_is_schema_error():
    for field in bench_compare.ENVELOPE:
        bad = kernels_doc(1.0)
        del bad[field]
        expect_schema_error(bad, kernels_doc(1.0), "base.json",
                            f"no '{field}'")
        expect_schema_error(kernels_doc(1.0), bad, "cand.json",
                            f"no '{field}'")


def test_bare_list_is_schema_error():
    expect_schema_error(kernels_doc(1.0)["rows"], kernels_doc(1.0),
                        "base.json", "not a bench document")


def test_better_must_be_higher_or_lower():
    bad = kernels_doc(1.0)
    bad["better"] = "faster"
    expect_schema_error(bad, bad, "base.json", "'faster'")


def test_kind_mismatch_is_schema_error():
    expect_schema_error(kernels_doc(1.0), calibration_doc(0.1),
                        "'bench' mismatch")


def test_candidate_cannot_relax_its_gate():
    # The baseline is the trust anchor: a candidate that flips the
    # direction, swaps the metric or re-keys its rows is refused rather
    # than gated by its own rules.
    flipped = kernels_doc(1.0)
    flipped["better"] = "higher"
    expect_schema_error(kernels_doc(1.0), flipped, "'better' mismatch")
    other_metric = kernels_doc(1.0)
    other_metric["metric"] = "gflops"
    expect_schema_error(kernels_doc(1.0), other_metric, "'metric' mismatch")
    rekeyed = kernels_doc(1.0)
    rekeyed["key"] = ["kernel", "shape"]
    expect_schema_error(kernels_doc(1.0), rekeyed, "'key' mismatch")


def test_cpus_mismatch_is_schema_error():
    one_cpu = kernels_doc(1.0)
    one_cpu["cpus"] = 1
    expect_schema_error(kernels_doc(1.0), one_cpu, "'cpus' mismatch")


def test_row_without_key_field_names_file_and_row():
    # A row from before the compute_workers key existed is not defaulted.
    rows = [{"model": "alexnet", "policy": "swap-all", "copy_workers": 1,
             "compute_workers": 1, "vs_incore": 1.0},
            {"model": "alexnet", "policy": "swap-all", "copy_workers": 2,
             "vs_incore": 1.5}]
    good = async_exec_doc(rows[:1])
    expect_schema_error(async_exec_doc(rows), good, "base.json", "row 1",
                        "'compute_workers'")
    expect_schema_error(good, async_exec_doc(rows), "cand.json", "row 1",
                        "'compute_workers'")


def test_bad_rows_are_schema_errors():
    no_metric = kernels_doc(1.0)
    del no_metric["rows"][0]["seconds"]
    expect_schema_error(no_metric, kernels_doc(1.0), "row 0", "'seconds'")
    text_metric = kernels_doc(1.0)
    text_metric["rows"][0]["seconds"] = "fast"
    expect_schema_error(text_metric, kernels_doc(1.0), "row 0",
                        "not a number")
    twice = kernels_doc(1.0)
    twice["rows"].append(dict(twice["rows"][0]))
    expect_schema_error(twice, kernels_doc(1.0), "row 1", "repeats the key")


def test_async_exec_compute_worker_rows_are_distinct():
    # compute_workers is part of the key: a 4-worker row must not be
    # compared against (or shadow) the serial row.
    regs = bench_compare.compare(
        {("alexnet", "swap-all", 2, 1): {"vs_incore": 1.0}},
        {("alexnet", "swap-all", 2, 4): {"vs_incore": 0.1}},
        "vs_incore", "higher", 0.10, out=io.StringIO())
    assert regs == [], regs


def test_calibration_end_to_end():
    with tempfile.TemporaryDirectory() as tmp:
        base = write_doc(tmp, "base.json", calibration_doc(0.05))
        worse = write_doc(tmp, "worse.json", calibration_doc(0.50))
        same = write_doc(tmp, "same.json", calibration_doc(0.05))
        r = run_tool(base, worse)
        assert r.returncode == 1, (r.returncode, r.stdout, r.stderr)
        assert "REGRESSION" in r.stdout, r.stdout
        r = run_tool(base, same)
        assert r.returncode == 0, (r.returncode, r.stdout, r.stderr)


def test_planner_cost_end_to_end():
    # sims_per_s is higher-is-better and keyed on (model, threads, cache):
    # a faster planner passes, a slower one regresses.
    with tempfile.TemporaryDirectory() as tmp:
        base = write_doc(tmp, "base.json", planner_cost_doc(10000.0))
        faster = write_doc(tmp, "faster.json", planner_cost_doc(25000.0))
        slower = write_doc(tmp, "slower.json", planner_cost_doc(5000.0))
        r = run_tool(base, faster)
        assert r.returncode == 0, (r.returncode, r.stdout, r.stderr)
        assert "no regressions" in r.stdout, r.stdout
        r = run_tool(base, slower)
        assert r.returncode == 1, (r.returncode, r.stdout, r.stderr)
        assert "REGRESSION" in r.stdout, r.stdout


def test_planner_cost_cache_is_part_of_the_key():
    regs = bench_compare.compare(
        {("ResNet-50 (b640)", 1, False): {"sims_per_s": 9000.0}},
        {("ResNet-50 (b640)", 1, True): {"sims_per_s": 10.0}},
        "sims_per_s", "higher", 0.10, out=io.StringIO())
    assert regs == [], regs


def main():
    tests = sorted(name for name in globals()
                   if name.startswith("test_") and callable(globals()[name]))
    failed = []
    for name in tests:
        try:
            globals()[name]()
            print(f"PASS {name}")
        except AssertionError as e:
            print(f"FAIL {name}: {e}")
            failed.append(name)
    if failed:
        print(f"\n{len(failed)}/{len(tests)} test(s) failed",
              file=sys.stderr)
        return 1
    print(f"\nall {len(tests)} tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
