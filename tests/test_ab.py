"""The verdicts of the A/B runner ``tools/ab.py``: pure functions of the
per-pair results."""

import importlib.util
import math
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "ab", Path(__file__).resolve().parent.parent / "tools" / "ab.py")
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)

PARENT = [100.0, 101.0, 102.0, 103.0, 104.0, 105.0, 106.0, 107.0, 108.0, 109.0]


class TestClaimVerdict:
    def test_nine_of_ten_wins_and_a_clear_gap_hold(self):
        change = [p + 20 for p in PARENT[:9]] + [PARENT[9] - 1]
        wins, holds, why = ab.claim_verdict(PARENT, change, higher_is_better=True)
        assert (wins, holds) == (9, True)
        assert "9/10 pairs won (need 9)" in why

    def test_eight_of_ten_wins_do_not_hold(self):
        change = [p + 20 for p in PARENT[:8]] + [p - 1 for p in PARENT[8:]]
        wins, holds, _ = ab.claim_verdict(PARENT, change, higher_is_better=True)
        assert (wins, holds) == (8, False)

    def test_a_tie_is_not_a_win(self):
        change = [p + 20 for p in PARENT[:9]] + [PARENT[9]]
        assert ab.claim_verdict(PARENT, change, True)[:2] == (9, True)
        change = [p + 20 for p in PARENT[:8]] + PARENT[8:]
        assert ab.claim_verdict(PARENT, change, True)[:2] == (8, False)
        assert ab.claim_verdict(PARENT, PARENT, True)[:2] == (0, False)

    def test_every_pair_won_by_less_than_the_parent_iqr_does_not_hold(self):
        # parent IQR is 4.5; a uniform +1 wins every pair but is inside it
        wins, holds, why = ab.claim_verdict(PARENT, [p + 1 for p in PARENT], True)
        assert (wins, holds) == (10, False)
        assert "median gap 1 vs parent IQR 4.5" in why

    def test_lower_is_better_flips_the_sign(self):
        change = [p - 20 for p in PARENT]
        assert ab.claim_verdict(PARENT, change, higher_is_better=False)[:2] == (10, True)
        assert ab.claim_verdict(PARENT, change, higher_is_better=True)[:2] == (0, False)

    def test_one_pair_needs_its_one_win(self):
        assert ab.claim_verdict([1.0], [2.0], True)[:2] == (1, True)
        assert ab.claim_verdict([1.0], [1.0], True)[:2] == (0, False)


class TestBoundVerdict:
    def test_within_the_bound_is_ok(self):
        change = [p * 0.9 for p in PARENT]
        rel, verdict = ab.bound_verdict(PARENT, change, higher_is_better=True, bound=0.25)
        assert verdict == "ok" and rel == pytest.approx(-0.1)

    def test_past_the_bound_is_worse(self):
        change = [p * 1.3 for p in PARENT]
        assert ab.bound_verdict(PARENT, change, False, 0.25)[1] == "WORSE"
        assert ab.bound_verdict(PARENT, change, True, 0.25)[1] == "ok"

    def test_a_parent_spread_wider_than_the_bound_is_unresolved(self):
        parent = [1.0, 1.0, 2.0, 3.0]  # IQR 1.25 around a median of 1.5
        assert ab.bound_verdict(parent, [9.0] * 4, False, 0.25)[1] == "unresolved"

    def test_identical_sides_are_ok(self):
        assert ab.bound_verdict([5458] * 3, [5458] * 3, False, 0.25) == (0.0, "ok")

    def test_a_zero_parent_median(self):
        assert ab.bound_verdict([0.0] * 3, [0.0] * 3, False, 0.25) == (0.0, "ok")
        rel, verdict = ab.bound_verdict([0.0] * 3, [1.0] * 3, False, 0.25)
        assert (rel, verdict) == (math.inf, "WORSE")
        assert ab.bound_verdict([0.0] * 3, [1.0] * 3, True, 0.25) == (math.inf, "ok")
        assert ab.bound_verdict([0.0] * 3, [-1.0] * 3, True, 0.25) == (-math.inf, "WORSE")
        # a spread around a zero median cannot be read relative to it
        assert ab.bound_verdict([-1.0, 0.0, 1.0], [0.0] * 3, True, 0.25)[1] == "unresolved"


class TestLayerLines:
    def test_only_differing_metrics_in_the_given_order(self):
        parent = {"a.calls": {"value": 11.0}, "b.self_s": {"value": 0.04},
                  "c.calls": {"value": 3.0}}
        change = {"a.calls": {"value": 11.0}, "b.self_s": {"value": 0.01},
                  "c.calls": {"value": 0.0}}
        lines = ab.layer_lines(["c.calls", "a.calls", "b.self_s"], parent, change)
        assert [line.split()[0] for line in lines] == ["c.calls", "b.self_s"]
        assert lines[0].split()[1:] == ["3", "->", "0", "(-100.0%)"]
        assert lines[1].split()[1:] == ["0.04", "->", "0.01", "(-75.0%)"]

    def test_zero_or_missing_values_have_no_relative_change(self):
        lines = ab.layer_lines(["x", "y"], {"x": {"value": 0.0}},
                               {"x": {"value": 2.0}, "y": {"value": 1.0}})
        assert [line.split()[1:] for line in lines] == [["0", "->", "2"],
                                                        ["-", "->", "1"]]
