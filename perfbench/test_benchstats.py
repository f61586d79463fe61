"""Unit tests for the benchmark's own statistics.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import unittest

import benchstats


class P50Test(unittest.TestCase):
    def test_odd_and_even_counts(self):
        self.assertEqual(benchstats.p50([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(benchstats.p50([4.0, 1.0, 3.0, 2.0]), 2.5)

    def test_order_does_not_matter(self):
        xs = [float(i % 7) for i in range(50)]
        self.assertEqual(benchstats.p50(xs), benchstats.p50(sorted(xs)))

    def test_empty_is_refused(self):
        with self.assertRaises(ValueError):
            benchstats.p50([])


class TailPercentileTest(unittest.TestCase):
    def test_nearest_rank_value(self):
        xs = [float(i) for i in range(1, 201)]  # 1..200
        # ceil(0.95 * 200) = 190th smallest; 10 samples lie beyond it.
        self.assertEqual(benchstats.tail_percentile(xs, 95.0), 190.0)

    def test_needs_ten_samples_beyond(self):
        xs = [float(i) for i in range(199)]  # ceil(0.95*199)=190, 9 beyond
        self.assertEqual(benchstats.samples_beyond(199, 95.0), 9)
        with self.assertRaises(ValueError):
            benchstats.tail_percentile(xs, 95.0)
        self.assertEqual(benchstats.samples_beyond(200, 95.0), 10)

    def test_unsorted_input(self):
        xs = [float((i * 37) % 200) for i in range(200)]
        self.assertEqual(benchstats.tail_percentile(xs, 95.0),
                         sorted(xs)[189])

    def test_percentile_range_is_checked(self):
        with self.assertRaises(ValueError):
            benchstats.tail_percentile([1.0] * 1000, 100.0)
        with self.assertRaises(ValueError):
            benchstats.tail_percentile([], 50.0)

    def test_highest_supported_tail(self):
        self.assertEqual(benchstats.highest_tail(10000), 99.9)
        self.assertEqual(benchstats.highest_tail(1000), 99.0)
        self.assertEqual(benchstats.highest_tail(200), 95.0)
        self.assertEqual(benchstats.highest_tail(100), 90.0)
        self.assertEqual(benchstats.highest_tail(20), 50.0)
        self.assertIsNone(benchstats.highest_tail(19))


class FailureRatioTest(unittest.TestCase):
    def test_ratio(self):
        self.assertEqual(benchstats.failure_ratio(0, 200), 0.0)
        self.assertEqual(benchstats.failure_ratio(5, 200), 0.025)

    def test_nothing_attempted_is_refused(self):
        with self.assertRaises(ValueError):
            benchstats.failure_ratio(0, 0)

    def test_more_failed_than_attempted_is_refused(self):
        with self.assertRaises(ValueError):
            benchstats.failure_ratio(3, 2)
        with self.assertRaises(ValueError):
            benchstats.failure_ratio(-1, 2)


class SpreadTest(unittest.TestCase):
    def test_interquartile_share_of_median(self):
        xs = [90.0, 95.0, 100.0, 105.0, 110.0]
        # statistics.quantiles (exclusive): q1 = 92.5, q3 = 107.5
        self.assertAlmostEqual(benchstats.spread(xs), 0.15)


class FingerprintTest(unittest.TestCase):
    BASE = {"nproc": 4, "cpu_model": "Xeon", "isa_flags": ["avx2", "fma"],
            "compiler": "g++ 12.2.0", "cxx_flags": "-O3 -DNDEBUG",
            "build_type": "Release", "dctrain_threads": "1",
            "ranks_x_gpus": "2x2"}

    def test_identical_hosts_compare(self):
        self.assertEqual(
            benchstats.fingerprint_mismatches(self.BASE, dict(self.BASE)), [])
        benchstats.require_same_host(self.BASE, dict(self.BASE))

    def test_each_key_difference_is_refused(self):
        for key in benchstats.FINGERPRINT_KEYS:
            other = dict(self.BASE)
            other[key] = "something else"
            self.assertEqual(
                benchstats.fingerprint_mismatches(self.BASE, other), [key])
            with self.assertRaises(benchstats.HostMismatch):
                benchstats.require_same_host(self.BASE, other)

    def test_missing_key_is_a_difference(self):
        other = dict(self.BASE)
        del other["nproc"]
        self.assertEqual(benchstats.fingerprint_mismatches(self.BASE, other),
                         ["nproc"])


if __name__ == "__main__":
    unittest.main()
