"""Unit tests for the MaxMatch format-pair selection."""

import pytest

from repro.morph.diff import is_perfect_match
from repro.morph.maxmatch import max_match, score_pair
from repro.pbio.field import IOField
from repro.pbio.format import IOFormat


def fmt(name, field_names, version=None):
    return IOFormat(name, [IOField(n, "integer") for n in field_names],
                    version=version)


A = fmt("M", ["a", "b", "c"], version="a")
A_CLONE = fmt("M", ["a", "b", "c"], version="a")
NEAR = fmt("M", ["a", "b", "d"], version="near")      # 1 field renamed
FAR = fmt("M", ["x", "y", "z"], version="far")        # nothing shared
SUPERSET = fmt("M", ["a", "b", "c", "d"], version="sup")


class TestScorePair:
    def test_perfect(self):
        result = score_pair(A, A_CLONE)
        assert result.is_perfect
        assert result.sort_key() == (0.0, 0)

    def test_asymmetric(self):
        result = score_pair(A, SUPERSET)
        assert result.diff_forward == 0   # everything in A exists in SUPERSET
        assert result.diff_reverse == 1   # d is missing from A
        assert result.mismatch == pytest.approx(1 / 4)


class TestSelection:
    def test_perfect_match_wins(self):
        best = max_match(A, [FAR, NEAR, A_CLONE])
        assert best is not None and best.is_perfect
        assert best.f2 is A_CLONE

    def test_least_mismatch_wins(self):
        best = max_match(A, [FAR, NEAR], diff_threshold=10, mismatch_threshold=1.0)
        assert best is not None
        assert best.f2 is NEAR

    def test_none_when_thresholds_exclude_all(self):
        assert max_match(A, [FAR], diff_threshold=0, mismatch_threshold=0.0) is None

    def test_diff_threshold_zero_requires_forward_subset(self):
        # diff(A, SUPERSET) == 0, so it passes threshold 0 even though the
        # reverse direction differs
        best = max_match(A, [SUPERSET], diff_threshold=0, mismatch_threshold=1.0)
        assert best is not None and not best.is_perfect

    def test_both_zero_thresholds_mean_perfect_only(self):
        assert max_match(A, [SUPERSET], 0, 0.0) is None
        assert max_match(A, [A_CLONE], 0, 0.0) is not None

    def test_mismatch_threshold_filters(self):
        # Mr(A, NEAR) = 1/3
        assert max_match(A, [NEAR], 10, 0.3) is None
        assert max_match(A, [NEAR], 10, 0.34) is not None

    def test_diff_threshold_filters(self):
        # diff(A, NEAR) = 1
        assert max_match(A, [NEAR], 0, 1.0) is None
        assert max_match(A, [NEAR], 1, 1.0) is not None

    def test_multiple_candidates_cross_product(self):
        best = max_match([FAR, A], [NEAR, A_CLONE])
        assert best is not None
        assert best.f1 is A and best.f2 is A_CLONE

    def test_tie_breaks_on_enumeration_order(self):
        clone2 = fmt("M", ["a", "b", "c"], version="a")
        best = max_match(A, [A_CLONE, clone2])
        assert best.f2 is A_CLONE

    def test_least_diff_breaks_mr_ties(self):
        # craft two targets with equal Mr but different forward diff
        target1 = fmt("M", ["a", "b", "c", "d"], version="t1")  # Mr=1/4, diff=0
        target2 = fmt("M", ["a", "b", "e", "d"], version="t2")  # Mr=2/4, diff=1
        best = max_match(A, [target2, target1], 10, 1.0)
        assert best.f2 is target1

    def test_empty_target_set(self):
        assert max_match(A, []) is None

    def test_single_format_convenience(self):
        assert max_match(A, [A_CLONE]).is_perfect


class TestPerfectMatches:
    def test_enumeration(self):
        pairs = [(f1, f2) for f1 in (A, FAR) for f2 in (A_CLONE, NEAR)
                 if is_perfect_match(f1, f2)]
        assert pairs == [(A, A_CLONE)]
        best = max_match([A, FAR], [A_CLONE, NEAR], 0, 0.0)
        assert best.f1 is A and best.f2 is A_CLONE

    def test_empty(self):
        assert not is_perfect_match(A, FAR)
        assert max_match([A], [FAR], 0, 0.0) is None
