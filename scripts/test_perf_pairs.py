#!/usr/bin/env python3
"""Unit tests for the summary math of scripts/perf_pairs.py: quartiles,
per-pair wins (ties count for neither side, direction from the metric)
and the gain rule (at least nine tenths of the pairs won, and medians
apart by more than the parent's interquartile range). Registered with
ctest as PerfPairs.PythonSuite."""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import perf_pairs  # noqa: E402


class QuartilesTest(unittest.TestCase):
    def test_odd_count(self):
        self.assertEqual(perf_pairs.quartiles([5, 1, 3, 2, 4]), (2, 3, 4))

    def test_even_count_interpolates(self):
        self.assertEqual(perf_pairs.quartiles([1, 2, 3, 4]),
                         (1.75, 2.5, 3.25))

    def test_single_run(self):
        self.assertEqual(perf_pairs.quartiles([7.5]), (7.5, 7.5, 7.5))


class SummarizeTest(unittest.TestCase):
    PARENT = [100, 102, 98, 101, 99, 100, 103, 97, 100, 101]

    def test_clear_gain_lower_is_better(self):
        change = [v - 15 for v in self.PARENT]
        s = perf_pairs.summarize(self.PARENT, change, "lower")
        self.assertEqual(s["wins"], 10)
        self.assertEqual(s["pairs"], 10)
        self.assertTrue(s["gain"])

    def test_ties_count_for_neither_side(self):
        s = perf_pairs.summarize([1, 2, 3], [1, 1, 4], "lower")
        self.assertEqual(s["wins"], 1)

    def test_direction_higher(self):
        s = perf_pairs.summarize([1, 2, 3], [2, 3, 4], "higher")
        self.assertEqual(s["wins"], 3)
        s = perf_pairs.summarize([1, 2, 3], [2, 3, 4], "lower")
        self.assertEqual(s["wins"], 0)
        self.assertFalse(s["gain"])

    def test_eight_of_ten_is_not_a_gain(self):
        change = [v - 15 for v in self.PARENT]
        change[0] = change[1] = 200
        s = perf_pairs.summarize(self.PARENT, change, "lower")
        self.assertEqual(s["wins"], 8)
        self.assertFalse(s["gain"])

    def test_median_inside_parent_spread_is_not_a_gain(self):
        # Every pair won, but the medians sit 1 apart and the parent's
        # interquartile range is 1.75 (99.25 .. 101).
        change = [v - 1 for v in self.PARENT]
        s = perf_pairs.summarize(self.PARENT, change, "lower")
        self.assertEqual(s["wins"], 10)
        self.assertEqual(s["parent"][2] - s["parent"][0], 1.75)
        self.assertFalse(s["gain"])

    def test_nine_of_ten_with_clear_medians_is_a_gain(self):
        change = [v - 15 for v in self.PARENT]
        change[3] = 150
        s = perf_pairs.summarize(self.PARENT, change, "lower")
        self.assertEqual(s["wins"], 9)
        self.assertTrue(s["gain"])


if __name__ == "__main__":
    unittest.main()
