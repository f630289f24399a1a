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


def kernels_doc(gflops):
    return {"bench": "kernels",
            "rows": [{"kernel": "gemm", "shape": "256", "threads": 1,
                      "gflops": gflops}]}


def calibration_doc(error):
    return {"bench": "calibration",
            "rows": [{"model": "resnet50", "calibrated_error": error}]}


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


def test_rows_on_one_side_do_not_fail():
    regs = bench_compare.compare(
        {("a",): {"gflops": 1.0}}, {("b",): {"gflops": 1.0}},
        "gflops", "higher", 0.10, out=io.StringIO())
    assert regs == [], regs


def test_missing_bench_key_is_loud_error():
    with tempfile.TemporaryDirectory() as tmp:
        bad = write_doc(tmp, "bad.json", {"rows": []})
        good = write_doc(tmp, "good.json", kernels_doc(1.0))
        r = run_tool(bad, good)
        assert r.returncode != 0, r.stdout
        assert "no 'bench' key" in r.stderr, r.stderr


def test_unknown_bench_kind_is_loud_error():
    with tempfile.TemporaryDirectory() as tmp:
        bad = write_doc(tmp, "bad.json", {"bench": "nonsense", "rows": []})
        good = write_doc(tmp, "good.json", kernels_doc(1.0))
        r = run_tool(bad, good)
        assert r.returncode != 0, r.stdout
        assert "unknown bench kind" in r.stderr, r.stderr


def test_kind_mismatch_is_error():
    with tempfile.TemporaryDirectory() as tmp:
        a = write_doc(tmp, "a.json", kernels_doc(1.0))
        b = write_doc(tmp, "b.json", calibration_doc(0.1))
        r = run_tool(a, b)
        assert r.returncode != 0, r.stdout
        assert "mismatch" in r.stderr, r.stderr


def async_exec_doc(vs_incore, compute_workers=None):
    row = {"model": "alexnet", "policy": "swap-all", "copy_workers": 2,
           "vs_incore": vs_incore}
    if compute_workers is not None:
        row["compute_workers"] = compute_workers
    return {"bench": "async_exec", "rows": [row]}


def test_async_exec_compute_workers_defaults_to_one():
    # A baseline predating the multi-worker scheduler (no compute_workers
    # field) must compare against a candidate that spells out
    # compute_workers=1 — same key, regression still caught.
    with tempfile.TemporaryDirectory() as tmp:
        old = write_doc(tmp, "old.json", async_exec_doc(1.5))
        slower = write_doc(tmp, "slower.json",
                           async_exec_doc(0.5, compute_workers=1))
        same = write_doc(tmp, "same.json",
                         async_exec_doc(1.5, compute_workers=1))
        r = run_tool(old, slower)
        assert r.returncode == 1, (r.returncode, r.stdout, r.stderr)
        assert "REGRESSION" in r.stdout, r.stdout
        r = run_tool(old, same)
        assert r.returncode == 0, (r.returncode, r.stdout, r.stderr)


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
