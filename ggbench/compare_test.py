"""Unit tests of compare.verdict.

    python3 -B -m unittest compare_test     (from ggbench/)
"""
import unittest

from compare import verdict

LOWER = {"name": "op_p50_ms", "better": "lower", "bound": 0.1}


def pairs(base, new):
    return ({seed: value for seed, value in enumerate(base)},
            {seed: value for seed, value in enumerate(new)})


class VerdictTest(unittest.TestCase):
    def test_single_pair_is_unresolved(self):
        self.assertEqual(verdict(LOWER, *pairs([100.0], [50.0])), "unresolved")
        self.assertEqual(verdict(LOWER, *pairs([100.0], [200.0])), "unresolved")

    def test_nine_pairs_are_unresolved(self):
        base = [100.0 + i for i in range(9)]
        new = [50.0 + i for i in range(9)]
        self.assertEqual(verdict(LOWER, *pairs(base, new)), "unresolved")

    def test_ten_clear_wins_are_better(self):
        base = [100.0 + i for i in range(10)]
        new = [50.0 + i for i in range(10)]
        self.assertEqual(verdict(LOWER, *pairs(base, new)), "better")

    def test_wins_within_the_base_spread_are_not_better(self):
        base = [100.0 + i for i in range(10)]
        new = [value - 0.5 for value in base]
        self.assertEqual(verdict(LOWER, *pairs(base, new)), "no-worse")

    def test_regression_past_the_bound_is_worse(self):
        base = [100.0 + i for i in range(10)]
        new = [130.0 + i for i in range(10)]
        self.assertEqual(verdict(LOWER, *pairs(base, new)), "worse")

    def test_wide_base_spread_is_unresolved(self):
        base = [50.0, 150.0] * 5
        new = [60.0, 160.0] * 5
        self.assertEqual(verdict(LOWER, *pairs(base, new)), "unresolved")

    def test_higher_is_better(self):
        higher = dict(LOWER, better="higher")
        base = [100.0 + i for i in range(10)]
        new = [150.0 + i for i in range(10)]
        self.assertEqual(verdict(higher, *pairs(base, new)), "better")
        self.assertEqual(verdict(higher, *pairs(new, base)), "worse")


if __name__ == "__main__":
    unittest.main()
