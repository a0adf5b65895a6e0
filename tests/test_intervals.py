"""Unit and property tests for the interval algebra."""

from __future__ import annotations

import pytest
from hypothesis import example, given, strategies as st

from repro.energy.segments import timeline_of
from repro.exceptions import ValidationError
from repro.model.intervals import (
    TimeInterval,
    gaps_between,
    intervals_overlap,
    merge_intervals,
    total_length,
)
from repro.model.vm import VM, VMSpec


def interval_strategy(lo=0, hi=200):
    return st.tuples(st.integers(lo, hi), st.integers(0, 30)).map(
        lambda t: TimeInterval(t[0], t[0] + t[1]))


class TestTimeInterval:
    def test_length_is_inclusive(self):
        assert TimeInterval(3, 3).length == 1
        assert TimeInterval(3, 7).length == 5

    def test_rejects_reversed_endpoints(self):
        with pytest.raises(ValidationError):
            TimeInterval(5, 4)

    def test_rejects_non_integer_endpoints(self):
        with pytest.raises(ValidationError):
            TimeInterval(1.5, 3)  # type: ignore[arg-type]

    def test_contains_endpoints(self):
        iv = TimeInterval(2, 5)
        assert iv.contains(2)
        assert iv.contains(5)
        assert not iv.contains(1)
        assert not iv.contains(6)

    def test_overlaps_shared_unit(self):
        assert TimeInterval(1, 3).overlaps(TimeInterval(3, 5))

    def test_no_overlap_when_adjacent(self):
        a, b = TimeInterval(1, 3), TimeInterval(4, 6)
        assert not a.overlaps(b)
        assert a.adjacent(b)
        assert b.adjacent(a)

    def test_not_adjacent_with_gap(self):
        assert not TimeInterval(1, 3).adjacent(TimeInterval(5, 6))

    def test_intersection(self):
        assert TimeInterval(1, 5).intersection(TimeInterval(3, 9)) == \
            TimeInterval(3, 5)

    def test_intersection_disjoint_is_none(self):
        assert TimeInterval(1, 2).intersection(TimeInterval(4, 5)) is None

    def test_union_overlapping(self):
        assert TimeInterval(1, 4).union(TimeInterval(3, 8)) == \
            TimeInterval(1, 8)

    def test_union_adjacent(self):
        assert TimeInterval(1, 3).union(TimeInterval(4, 6)) == \
            TimeInterval(1, 6)

    def test_union_disjoint_raises(self):
        with pytest.raises(ValidationError):
            TimeInterval(1, 2).union(TimeInterval(5, 6))

    def test_shift(self):
        assert TimeInterval(2, 4).shift(3) == TimeInterval(5, 7)
        assert TimeInterval(2, 4).shift(-1) == TimeInterval(1, 3)

    def test_times_enumerates_units(self):
        assert list(TimeInterval(2, 5).times()) == [2, 3, 4, 5]

    def test_ordering_lexicographic(self):
        assert TimeInterval(1, 9) < TimeInterval(2, 3)
        assert TimeInterval(1, 2) < TimeInterval(1, 3)

    def test_hashable(self):
        assert len({TimeInterval(1, 2), TimeInterval(1, 2)}) == 1

    def test_str(self):
        assert str(TimeInterval(1, 5)) == "[1, 5]"


class TestMergeIntervals:
    def test_empty(self):
        assert merge_intervals([]) == []

    def test_single(self):
        assert merge_intervals([TimeInterval(1, 2)]) == [TimeInterval(1, 2)]

    def test_merges_overlap(self):
        assert merge_intervals([TimeInterval(1, 4), TimeInterval(3, 6)]) == \
            [TimeInterval(1, 6)]

    def test_merges_adjacent(self):
        assert merge_intervals([TimeInterval(1, 3), TimeInterval(4, 6)]) == \
            [TimeInterval(1, 6)]

    def test_keeps_gap_separated(self):
        assert merge_intervals([TimeInterval(1, 3), TimeInterval(5, 6)]) == \
            [TimeInterval(1, 3), TimeInterval(5, 6)]

    def test_unsorted_input(self):
        merged = merge_intervals(
            [TimeInterval(10, 12), TimeInterval(1, 2), TimeInterval(2, 9)])
        assert merged == [TimeInterval(1, 12)]

    def test_nested_intervals(self):
        assert merge_intervals([TimeInterval(1, 10), TimeInterval(3, 4)]) == \
            [TimeInterval(1, 10)]

    @given(st.lists(interval_strategy(), max_size=30))
    def test_result_is_sorted_and_disjoint_with_gaps(self, intervals):
        merged = merge_intervals(intervals)
        for a, b in zip(merged, merged[1:]):
            assert a.end + 1 < b.start  # disjoint AND non-adjacent

    @given(st.lists(interval_strategy(), max_size=30))
    def test_merge_preserves_covered_units(self, intervals):
        covered = set()
        for iv in intervals:
            covered.update(iv.times())
        merged_units = set()
        for iv in merge_intervals(intervals):
            merged_units.update(iv.times())
        assert merged_units == covered

    @given(st.lists(interval_strategy(), max_size=20))
    def test_merge_is_idempotent(self, intervals):
        once = merge_intervals(intervals)
        assert merge_intervals(once) == once


class TestGapsBetween:
    def test_no_gap_for_single(self):
        assert gaps_between([TimeInterval(1, 5)]) == []

    def test_simple_gap(self):
        assert gaps_between([TimeInterval(1, 3), TimeInterval(7, 9)]) == \
            [TimeInterval(4, 6)]

    def test_no_gap_when_adjacent(self):
        assert gaps_between([TimeInterval(1, 3), TimeInterval(4, 6)]) == []

    def test_empty(self):
        assert gaps_between([]) == []

    @given(st.lists(interval_strategy(), min_size=1, max_size=25))
    def test_gaps_partition_the_span(self, intervals):
        merged = merge_intervals(intervals)
        gaps = gaps_between(intervals)
        span = TimeInterval(merged[0].start, merged[-1].end)
        busy = sum(iv.length for iv in merged)
        idle = sum(g.length for g in gaps)
        assert busy + idle == span.length

    @given(st.lists(interval_strategy(), min_size=1, max_size=25))
    def test_gaps_disjoint_from_busy(self, intervals):
        busy_units = set()
        for iv in merge_intervals(intervals):
            busy_units.update(iv.times())
        for gap in gaps_between(intervals):
            assert busy_units.isdisjoint(gap.times())


class TestTotalLength:
    def test_counts_distinct_units(self):
        assert total_length([TimeInterval(1, 4), TimeInterval(3, 6)]) == 6

    def test_empty(self):
        assert total_length([]) == 0


class TestIntervalsOverlap:
    def test_detects_overlap(self):
        assert intervals_overlap([TimeInterval(1, 5), TimeInterval(5, 9)])

    def test_adjacent_is_not_overlap(self):
        assert not intervals_overlap([TimeInterval(1, 4), TimeInterval(5, 9)])

    def test_empty_and_single(self):
        assert not intervals_overlap([])
        assert not intervals_overlap([TimeInterval(1, 2)])


# -- the key sort is the dataclass order: merges, overlap checks and
# timelines agree with a reference that sorts through ``__lt__`` --------

def _reference_merge(intervals):
    ordered = sorted(intervals)  # TimeInterval.__lt__
    merged = []
    for iv in ordered:
        if merged and iv.start <= merged[-1].end + 1:
            merged[-1] = TimeInterval(merged[-1].start,
                                      max(merged[-1].end, iv.end))
        else:
            merged.append(iv)
    return merged


# a narrow range, so duplicates and adjacent intervals are common
_CROWDED = st.lists(interval_strategy(hi=20).map(
    lambda iv: TimeInterval(iv.start, iv.start + iv.length % 4)),
    max_size=12).flatmap(lambda ivs: st.permutations(ivs + ivs[:3]))


class TestKeySortIsTheDataclassOrder:
    @given(_CROWDED)
    @example([TimeInterval(1, 3), TimeInterval(4, 6), TimeInterval(1, 3),
              TimeInterval(1, 2), TimeInterval(8, 8), TimeInterval(7, 7)])
    def test_merge_and_overlap_match_the_reference(self, intervals):
        merged = merge_intervals(intervals)
        assert merged == _reference_merge(intervals)
        assert [iv.length for iv in merged] == \
            [iv.end - iv.start + 1 for iv in merged]
        ordered = sorted(intervals)
        assert intervals_overlap(intervals) == any(
            a.end >= b.start for a, b in zip(ordered, ordered[1:]))

    @given(_CROWDED)
    def test_timeline_merges_once_and_matches_the_reference(self, intervals):
        spec = VMSpec("t", cpu=1.0, memory=1.0)
        vms = [VM(i, spec, iv) for i, iv in enumerate(intervals)]
        busy = _reference_merge(intervals)
        timeline = timeline_of(vms)
        assert list(timeline.busy) == busy
        assert list(timeline.idle) == gaps_between(intervals) == [
            TimeInterval(a.end + 1, b.start - 1)
            for a, b in zip(busy, busy[1:])]
