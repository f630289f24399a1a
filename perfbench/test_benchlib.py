"""Tests of the benchmark's own statistics on small synthetic inputs.

    python3 perfbench/test_benchlib.py
"""

import statistics
import unittest

import benchlib as bl


class TailTest(unittest.TestCase):
    def test_ten_samples_beyond_the_tail(self):
        xs = [float(x) for x in range(25, 0, -1)]
        value, pct, n = bl.tail(xs)
        self.assertEqual((value, pct, n), (15.0, 60.0, 25))
        self.assertGreater(value, statistics.median(xs))
        self.assertEqual(sum(1 for x in xs if x > value), 10)

    def test_percentile_rises_with_sample_count(self):
        value, pct, n = bl.tail(list(range(100)))
        self.assertEqual((value, pct, n), (89, 90.0, 100))

    def test_too_few_samples(self):
        self.assertIsNone(bl.tail(list(range(10))))
        value, pct, _ = bl.tail(list(range(11)))
        self.assertEqual(value, 0)
        self.assertAlmostEqual(pct, 100.0 / 11)

    def test_quartiles_and_spread(self):
        xs = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
        q1, med, q3 = bl.quartiles(xs)
        self.assertEqual([q1, med, q3], statistics.quantiles(xs, n=4))
        self.assertAlmostEqual(bl.spread(xs), (q3 - q1) / med)
        self.assertEqual(bl.quartiles([2.0]), (2.0, 2.0, 2.0))


class OverlapTest(unittest.TestCase):
    def test_union_merges_overlaps_and_drops_empty(self):
        self.assertEqual(bl.union([(3, 5), (0, 2), (1, 3), (6, 6)]),
                         [[0, 5]])

    def test_copy_partly_hidden(self):
        computes = [(0.0, 2.0), (3.0, 5.0)]
        self.assertAlmostEqual(bl.overlap_share([(1.0, 4.0)], computes),
                               2.0 / 3.0)

    def test_overlapping_compute_counted_once(self):
        computes = [(0.0, 3.0), (1.0, 2.0)]
        self.assertAlmostEqual(bl.overlap_share([(1.0, 4.0)], computes),
                               2.0 / 3.0)

    def test_fully_exposed_and_fully_hidden(self):
        self.assertEqual(bl.overlap_share([(5.0, 6.0)], [(0.0, 5.0)]), 0.0)
        self.assertEqual(bl.overlap_share([(1.0, 2.0), (2.5, 3.0)],
                                          [(0.0, 5.0)]), 1.0)

    def test_no_copy_time(self):
        self.assertEqual(bl.overlap_share([], [(0.0, 1.0)]), 0.0)


class SelfTimeTest(unittest.TestCase):
    # 0 root [0, 10]: children 1 [1, 3] (child 2 [1.5, 2]), 3 [2, 5] and
    # 4 [7, 8]; 5 is a second root [20, 24] with child 6 [21, 22].
    SPANS = [("bench.setup", -1, 0.0, 10.0),
             ("pooch.plan", 0, 1.0, 3.0),
             ("sim.run", 1, 1.5, 2.0),
             ("exec.build", 0, 2.0, 5.0),
             ("exec.build", 0, 7.0, 8.0),
             ("bench.setup", -1, 20.0, 24.0),
             ("exec.build", 5, 21.0, 22.0)]

    def test_self_time_subtracts_covered_children(self):
        selfs = bl.self_times(self.SPANS)
        # Root: children cover [1, 5] and [7, 8], 5 s of 10.
        self.assertAlmostEqual(selfs[0], 5.0)
        self.assertAlmostEqual(selfs[1], 1.5)
        self.assertAlmostEqual(selfs[2], 0.5)
        self.assertAlmostEqual(selfs[5], 3.0)

    def test_child_outside_parent_is_clipped(self):
        spans = [("a.x", -1, 0.0, 10.0), ("b.y", 0, 9.0, 12.0)]
        self.assertAlmostEqual(bl.self_times(spans)[0], 9.0)

    def test_sums_per_root_and_module_medians(self):
        roots = bl.roots_named(self.SPANS, "bench.setup")
        self.assertEqual(roots, [0, 5])
        sums = bl.per_root_sums(
            self.SPANS, roots,
            lambda i: self.SPANS[i][3] - self.SPANS[i][2]
            if self.SPANS[i][0] == "exec.build" else 0.0)
        self.assertEqual(sums, [4.0, 1.0])
        by_module = bl.self_by_module(self.SPANS, roots)
        self.assertAlmostEqual(by_module["bench"], (5.0 + 3.0) / 2)
        self.assertAlmostEqual(by_module["exec"], (4.0 + 1.0) / 2)
        self.assertAlmostEqual(by_module["pooch"], 1.5 / 2)
        self.assertAlmostEqual(by_module["kernels"], 0.0)


class VerdictTest(unittest.TestCase):
    PARENT = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]

    def test_unchanged_within_bound(self):
        change = [x * 1.03 for x in self.PARENT]
        self.assertEqual(bl.verdict(self.PARENT, change, 0.1, "lower")[0],
                         "unchanged")

    def test_regression_beyond_bound(self):
        change = [x * 1.2 for x in self.PARENT]
        verdict, d = bl.verdict(self.PARENT, change, 0.1, "lower")
        self.assertEqual(verdict, "regression")
        self.assertAlmostEqual(d["worse_by"], 0.2)

    def test_higher_is_better_direction(self):
        change = [x * 0.8 for x in self.PARENT]
        self.assertEqual(bl.verdict(self.PARENT, change, 0.1, "higher")[0],
                         "regression")
        self.assertEqual(bl.verdict(change, self.PARENT, 0.1, "higher")[0],
                         "gain")

    def test_gain_needs_nine_tenths_of_pairs(self):
        change = [x * 0.9 for x in self.PARENT]
        self.assertEqual(bl.verdict(self.PARENT, change, 0.1, "lower")[0],
                         "gain")
        # Two of ten pairs lost: not a gain, and not worse either.
        change[0], change[1] = 1.5, 1.5
        self.assertEqual(bl.verdict(self.PARENT, change, 0.5, "lower")[0],
                         "unchanged")

    def test_wide_spread_is_unresolved_not_unchanged(self):
        noisy = [0.6, 1.4, 0.8, 1.2, 0.7, 1.3, 0.9, 1.1, 1.0, 1.0]
        self.assertEqual(bl.verdict(noisy, noisy, 0.1, "lower")[0],
                         "unresolved")

    def test_wide_spread_still_shows_a_clear_regression(self):
        noisy = [0.6, 1.4, 0.8, 1.2, 0.7, 1.3, 0.9, 1.1, 1.0, 1.0]
        slower = [2.0 * x for x in noisy]
        verdict, d = bl.verdict(noisy, slower, 0.1, "lower")
        self.assertEqual(verdict, "regression")
        self.assertAlmostEqual(d["worse_by"], 1.0)

    def test_gain_under_wide_spread_needs_the_same_test(self):
        noisy = [0.6, 1.4, 0.8, 1.2, 0.7, 1.3, 0.9, 1.1, 1.0, 1.0]
        # Every pair won, but the medians differ by less than the parent's
        # quartile distance: not a gain.
        slightly = [x - 0.05 for x in noisy]
        self.assertEqual(bl.verdict(noisy, slightly, 0.1, "lower")[0],
                         "unresolved")
        # Every pair won by more than the quartile distance: a gain.
        much = [x - 0.5 for x in noisy]
        self.assertEqual(bl.verdict(noisy, much, 0.1, "lower")[0], "gain")
        # Every change run beats every parent run, but by less than the
        # quartile distance (0.45): no gain, and not unresolved either.
        below = [0.56, 0.57, 0.58, 0.59, 0.58, 0.57, 0.58, 0.59, 0.58, 0.57]
        self.assertEqual(bl.verdict(noisy, below, 0.1, "lower")[0],
                         "unchanged")

if __name__ == "__main__":
    unittest.main()
