"""Tests of the benchmark's own statistics.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import os
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402


class TailPercentile(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        # p50 of 20 samples is the 10th; exactly 10 lie beyond it.
        self.assertEqual(stats.tail_percentile(20), 50.0)
        self.assertIsNone(stats.tail_percentile(19))
        self.assertIsNone(stats.tail_percentile(1))

    def test_highest_qualifying_rung(self):
        self.assertEqual(stats.tail_percentile(100), 90.0)
        self.assertEqual(stats.tail_percentile(999), 90.0)
        self.assertEqual(stats.tail_percentile(1000), 99.0)
        self.assertEqual(stats.tail_percentile(100_000), 99.0)

    def test_beyond_count_is_exact(self):
        for n in (20, 57, 100, 1000, 1234, 10_000):
            p = stats.tail_percentile(n)
            beyond = n - 1 - stats.rank(n, p)
            self.assertGreaterEqual(beyond, stats.MIN_BEYOND)
            higher = [q for q in stats.LADDER if q > p]
            for q in higher:
                self.assertLess(n - 1 - stats.rank(n, q), stats.MIN_BEYOND)

    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(stats.percentile(values, 50.0), 50)
        self.assertEqual(stats.percentile(values, 99.0), 99)
        self.assertEqual(stats.percentile(values, 100.0), 100)
        self.assertEqual(stats.percentile([7], 99.0), 7)


class FailedShare(unittest.TestCase):
    def test_share(self):
        self.assertEqual(stats.failed_share(10, 10), 0.0)
        self.assertEqual(stats.failed_share(8, 6), 0.25)
        self.assertEqual(stats.failed_share(3, 0), 1.0)

    def test_missing_replies_count_as_failed(self):
        # 20 sent, 17 matched, 2 mismatched, 1 never answered.
        self.assertEqual(stats.failed_share(20, 17), 3 / 20)

    def test_rejects_impossible_tallies(self):
        with self.assertRaises(ValueError):
            stats.failed_share(0, 0)
        with self.assertRaises(ValueError):
            stats.failed_share(5, 6)


class SelfTime(unittest.TestCase):
    def test_leaf_is_its_duration(self):
        self.assertEqual(stats.self_times({0: (-1, 10, 25)}), {0: 15})

    def test_nested(self):
        # request 0..100 with decode 10..30 and eval 30..80; eval has a
        # child render 40..50. Grandchildren do not count against the root.
        spans = {
            0: (-1, 0, 100),
            1: (0, 10, 30),
            2: (0, 30, 80),
            3: (2, 40, 50),
        }
        self.assertEqual(stats.self_times(spans), {0: 30, 1: 20, 2: 40, 3: 10})

    def test_overlapping_children_counted_once(self):
        spans = {0: (-1, 0, 100), 1: (0, 10, 60), 2: (0, 40, 70), 3: (0, 65, 90)}
        self.assertEqual(stats.self_times(spans)[0], 100 - 80)

    def test_children_clipped_to_parent(self):
        spans = {0: (-1, 10, 20), 1: (0, 5, 15), 2: (0, 18, 30)}
        self.assertEqual(stats.self_times(spans)[0], 3)

    def test_unknown_parent_is_a_root(self):
        self.assertEqual(stats.self_times({5: (4, 0, 9)}), {5: 9})


if __name__ == "__main__":
    unittest.main()
