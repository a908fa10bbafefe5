"""Tests for benchstats: python3 perfbench/test_benchstats.py"""

import os
import random
import statistics
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import benchstats  # noqa: E402


class QuantileTest(unittest.TestCase):
    def test_exact_on_values_outside_any_preset_range(self):
        # Spans twelve orders of magnitude, negative values included: a
        # fixed-range histogram would clip all of these.
        samples = [-5e6, 1e-9, 3.0, 83590.7, 2e9]
        self.assertEqual(benchstats.quantile(samples, 0.0), -5e6)
        self.assertEqual(benchstats.quantile(samples, 0.5), 3.0)
        self.assertEqual(benchstats.quantile(samples, 1.0), 2e9)

    def test_median_matches_statistics(self):
        rng = random.Random(5)
        for n in (1, 2, 7, 100, 2941):
            samples = [rng.lognormvariate(10, 2) for _ in range(n)]
            median = statistics.median(samples)
            self.assertAlmostEqual(benchstats.quantile(samples, 0.5),
                                   median, delta=1e-12 * median)

    def test_monotone_and_bounded(self):
        rng = random.Random(9)
        samples = [rng.expovariate(1e-5) for _ in range(500)]
        prev = min(samples)
        for k in range(101):
            v = benchstats.quantile(samples, k / 100)
            self.assertGreaterEqual(v, prev)
            self.assertLessEqual(v, max(samples))
            prev = v

    def test_skewed_samples_do_not_collapse(self):
        # The histogram bug: p50 == p99 == max while the mean is half.
        samples = [30e3 + i for i in range(200)] + [84e3] * 20
        p50 = benchstats.quantile(samples, 0.5)
        p99 = benchstats.quantile(samples, 0.99)
        self.assertLess(p50, 31e3)
        self.assertEqual(p99, 84e3)

    def test_tail_has_ten_samples_beyond(self):
        samples = list(range(2941))
        pct, value, beyond = benchstats.tail(samples)
        self.assertEqual(pct, 99.5)
        self.assertGreaterEqual(beyond, 10)
        self.assertEqual(beyond, sum(1 for s in samples if s > value))
        pct, _, beyond = benchstats.tail(list(range(235)))
        self.assertEqual(pct, 95.0)
        self.assertGreaterEqual(beyond, 10)

    def test_rejects_bad_input(self):
        with self.assertRaises(ValueError):
            benchstats.quantile([], 0.5)
        with self.assertRaises(ValueError):
            benchstats.quantile([1.0], 1.5)


if __name__ == "__main__":
    unittest.main()
