"""Unit tests of the shared threshold-pruned top-k execution layer."""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.topk import (
    DenseKernelTerm,
    PruningStats,
    columnar_dense,
    safety_slack,
    select_survivor_ordinals,
    threshold_of,
)
from repro.topk.kernels import _kth_largest


class TestThresholdOf:
    def test_matches_sorted_kth(self):
        values = [3.0, -1.0, 7.5, 7.5, 0.0]
        for k in range(1, len(values) + 1):
            assert threshold_of(values, k) == sorted(values, reverse=True)[k - 1]

    def test_short_input_has_no_threshold(self):
        assert threshold_of([1.0, 2.0], 3) == float("-inf")
        assert threshold_of([], 1) == float("-inf")
        assert threshold_of([1.0], 0) == float("-inf")

    def test_array_form_agrees(self):
        values = [3.0, -1.0, 7.5, 7.5, 0.0]
        for k in range(0, len(values) + 2):
            assert _kth_largest(np.array(values), k) == threshold_of(values, k)


class TestThetaEdgeCases:
    """Hypothesis properties of θ: ``threshold_of`` and the kernels' array form."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        scores=st.lists(
            st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.just(float("nan"))),
            max_size=30,
        ),
        k=st.integers(min_value=1, max_value=40),
    )
    def test_threshold_never_nan_and_stays_sound(self, scores, k):
        """NaN lower bounds cannot witness θ and must never poison it.

        A NaN θ would make every bound comparison false and silently
        discard all candidates, so ``threshold_of`` never returns NaN:
        on NaN-free input it is exactly the k-th largest score (or
        ``-inf`` when fewer than k exist, including the mid-traversal
        case of k exceeding the surviving pool); with NaNs present it is
        either the k-th largest comparable score or degrades to ``-inf``
        (pruning disabled — sound, never unsound).  The kernels' array
        form obeys the same rules.
        """
        comparable = sorted((s for s in scores if s == s), reverse=True)
        for threshold in (threshold_of(scores, k), _kth_largest(np.array(scores), k)):
            assert not math.isnan(threshold)
            if len(comparable) < k:
                assert threshold == float("-inf")
            elif len(comparable) == len(scores):
                assert threshold == comparable[k - 1]
            else:
                assert threshold in (float("-inf"), comparable[k - 1])
            # θ must always be witnessed by k real scores (sound lower bound).
            if threshold != float("-inf"):
                assert sum(1 for s in comparable if s >= threshold) >= k

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        scores=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=10),
        extra=st.integers(min_value=0, max_value=50),
    )
    def test_k_larger_than_pool_yields_no_threshold(self, scores, extra):
        """k beyond the candidate pool must never produce a live θ."""
        k = len(scores) + 1 + extra
        assert threshold_of(scores, k) == float("-inf")
        assert _kth_largest(np.array(scores, dtype=np.float64), k) == float("-inf")

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        a=st.floats(allow_nan=False, allow_infinity=False, width=32),
        b=st.floats(allow_nan=False, allow_infinity=False, width=32),
    )
    def test_safety_slack_monotone_in_magnitude(self, a, b):
        """``safety_slack`` grows with |θ|: a larger θ needs a larger guard."""
        lo, hi = sorted((abs(a), abs(b)))
        assert safety_slack(lo) <= safety_slack(hi)
        assert safety_slack(a) == safety_slack(-a)
        assert safety_slack(a) > 0.0


class TestSafetySlack:
    def test_positive_and_scales_with_magnitude(self):
        assert safety_slack(0.0) > 0.0
        assert safety_slack(-50.0) == safety_slack(50.0)
        assert safety_slack(1e6) > safety_slack(1.0)

    def test_far_above_rounding_error(self):
        score = 123.456
        assert safety_slack(score) > 1000 * abs(score - (score + 1e-16))


class TestSelectSurvivorOrdinals:
    def test_keeps_everything_within_budget(self):
        ordinals = np.array([0, 1])
        kept = select_survivor_ordinals(ordinals, np.array([2.0, 1.0]), 1, margin=1)
        assert kept.tolist() == [0, 1]

    def test_truncates_by_value_then_ordinal(self):
        values = np.array([float(i % 3) for i in range(10)])
        kept = select_survivor_ordinals(np.arange(10), values, 2, margin=1)
        expected = sorted(range(10), key=lambda i: (-values[i], i))[:3]
        assert kept.tolist() == expected


def _dense_term(key: str, contributions: list[float], floor: float, upper: float) -> DenseKernelTerm:
    """A kernel term whose ``contributions[i]`` belongs to the ``i``-th candidate."""
    return DenseKernelTerm(
        key=key, floor=floor, upper=upper, contributions=np.array(contributions, dtype=np.float64)
    )


class TestColumnarDense:
    def test_no_pruning_when_k_covers_all(self):
        entry = _dense_term("t", [float(i) for i in range(5)], 0.0, 4.0)
        stats = PruningStats()
        ordinals, partials = columnar_dense(np.arange(5), [entry], 10, stats)
        assert ordinals.tolist() == list(range(5))
        assert stats.candidates_pruned == 0

    def test_prunes_hopeless_candidates(self):
        # Term 1 separates candidates by 0..99; term 2 can only add 0.5,
        # so after term 1 everything far below the top-2 is hopeless.
        first = _dense_term("t1", [float(i) for i in range(100)], 0.0, 99.0)
        second = _dense_term("t2", [0.5] * 100, 0.0, 0.5)
        third = _dense_term("t3", [0.1] * 100, 0.0, 0.1)
        stats = PruningStats()
        ordinals, partials = columnar_dense(np.arange(100), [first, second, third], 2, stats)
        survivors = dict(zip(ordinals.tolist(), partials.tolist()))
        assert {99, 98} <= set(survivors)
        assert stats.candidates_pruned > 0
        # Survivor values are exact sums unless the traversal stopped early.
        if stats.terms_skipped == 0:
            assert survivors[99] == 99.0 + 0.5 + 0.1

    def test_skips_remaining_terms_once_set_is_small(self):
        entries = [
            _dense_term("t1", [5.0, 4.0, 3.0], 0.0, 5.0),
            _dense_term("t2", [1.0, 1.0, 1.0], 0.0, 1.0),
        ]
        stats = PruningStats()
        ordinals, _ = columnar_dense(np.arange(3), entries, 3, stats)
        assert ordinals.tolist() == [0, 1, 2]
        assert stats.terms_skipped == 2  # |candidates| <= k: nothing to do

    def test_contributions_follow_candidate_positions(self):
        # Sparse ordinals: position i of every column belongs to candidate i.
        candidates = np.array([3, 17, 40, 41, 90])
        first = _dense_term("t1", [0.0, 9.0, 1.0, 8.0, 2.0], 0.0, 9.0)
        second = _dense_term("t2", [0.5, 0.25, 0.0, 0.5, 0.0], 0.0, 0.5)
        ordinals, values = columnar_dense(candidates, [first, second], 2, PruningStats(), margin=0)
        survivors = dict(zip(ordinals.tolist(), values.tolist()))
        assert {17, 41} <= set(survivors)
        assert survivors[17] <= 9.25 and survivors[41] <= 8.5

    def test_empty_inputs(self):
        stats = PruningStats()
        empty = np.empty(0, dtype=np.int64)
        ordinals, partials = columnar_dense(empty, [_dense_term("t", [], 0.0, 1.0)], 5, stats)
        assert ordinals.size == 0 and partials.size == 0
        ordinals, partials = columnar_dense(np.array([0]), [], 5, stats)
        assert ordinals.tolist() == [0] and partials.tolist() == [0.0]

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        columns=st.lists(
            st.lists(st.floats(min_value=-10.0, max_value=0.0), min_size=40, max_size=40),
            min_size=1,
            max_size=4,
        ),
        top_k=st.integers(min_value=1, max_value=8),
    )
    def test_random_property_keeps_the_true_top_k(self, columns, top_k):
        """No true top-k candidate is ever evicted (the epilogue re-scores)."""
        entries = [
            _dense_term(f"t{i}", column, min(column), max(column))
            for i, column in enumerate(columns)
        ]
        totals = [sum(column[doc] for column in columns) for doc in range(40)]
        ordinals, _ = columnar_dense(np.arange(40), entries, top_k, PruningStats(), margin=0)
        kth = sorted(totals, reverse=True)[top_k - 1]
        true_top = {doc for doc in range(40) if totals[doc] > kth + 1e-9}
        assert true_top <= set(ordinals.tolist())
        assert ordinals.size >= top_k


class TestPruningStats:
    def test_counters_and_reset(self):
        stats = PruningStats()
        stats.queries += 2
        stats.groups_skipped += 3
        info = stats.as_dict()
        assert info["queries"] == 2
        assert info["groups_skipped"] == 3
        assert set(info) == set(PruningStats.__slots__)
        stats.reset()
        assert all(value == 0 for value in stats.as_dict().values())

    def test_repr_lists_counters(self):
        assert "queries=0" in repr(PruningStats())


class TestSlackGuardsBoundComparisons:
    def test_threshold_minus_slack_below_threshold(self):
        for value in (0.0, 1e-12, -37.5, 1e9):
            assert value - safety_slack(value) < value
            assert math.isfinite(value - safety_slack(value))
