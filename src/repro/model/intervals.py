"""Closed integer time intervals and interval algebra.

The paper models time in discrete units (minutes). A VM occupies its server
for the closed interval ``[t_s, t_e]`` — both endpoints inclusive — so an
interval's *length* is ``end - start + 1`` time units. Everything downstream
(busy/idle segments, the ILP time dimension, the discrete-event clock) builds
on the :class:`TimeInterval` type and the merge/gap helpers here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterable, Iterator, Sequence

from repro.exceptions import ValidationError

__all__ = [
    "TimeInterval",
    "merge_intervals",
    "gaps_between",
    "total_length",
    "intervals_overlap",
]


@dataclass(frozen=True, order=True, slots=True)
class TimeInterval:
    """A closed interval ``[start, end]`` of integer time units.

    Instances are immutable, hashable and ordered lexicographically by
    ``(start, end)``, which makes them directly sortable and usable as
    dictionary keys. ``length`` — the number of time units covered
    (closed interval: ``end - start + 1``) — is stored at construction.
    """

    start: int
    end: int
    length: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not isinstance(self.start, int) or not isinstance(self.end, int):
            raise ValidationError(
                f"interval endpoints must be integers, got "
                f"({self.start!r}, {self.end!r})"
            )
        if self.end < self.start:
            raise ValidationError(
                f"interval end {self.end} precedes start {self.start}"
            )
        _set_length(self, self.end - self.start + 1)

    def contains(self, t: int) -> bool:
        """Whether time unit ``t`` lies inside this interval."""
        return self.start <= t <= self.end

    def overlaps(self, other: "TimeInterval") -> bool:
        """Whether the two closed intervals share at least one time unit."""
        return self.start <= other.end and other.start <= self.end

    def adjacent(self, other: "TimeInterval") -> bool:
        """Whether the intervals touch without overlapping (no gap between)."""
        return self.end + 1 == other.start or other.end + 1 == self.start

    def intersection(self, other: "TimeInterval") -> "TimeInterval | None":
        """The overlapping sub-interval, or ``None`` when disjoint."""
        lo = max(self.start, other.start)
        hi = min(self.end, other.end)
        if lo > hi:
            return None
        return TimeInterval(lo, hi)

    def union(self, other: "TimeInterval") -> "TimeInterval":
        """Smallest interval covering both; they must overlap or touch."""
        if not (self.overlaps(other) or self.adjacent(other)):
            raise ValidationError(
                f"cannot union disjoint intervals {self} and {other}"
            )
        return TimeInterval(min(self.start, other.start),
                            max(self.end, other.end))

    def shift(self, delta: int) -> "TimeInterval":
        """A copy translated by ``delta`` time units."""
        return TimeInterval(self.start + delta, self.end + delta)

    def times(self) -> Iterator[int]:
        """Iterate the individual time units covered."""
        return iter(range(self.start, self.end + 1))

    def __str__(self) -> str:
        return f"[{self.start}, {self.end}]"


#: sets the stored ``length`` slot (the frozen class's __setattr__ refuses)
_set_length = TimeInterval.__dict__["length"].__set__


#: The sort key of the dataclass order, read without calling ``__lt__``.
_span = attrgetter("start", "end")


def merge_intervals(intervals: Iterable[TimeInterval]) -> list[TimeInterval]:
    """Merge intervals into maximal disjoint, sorted intervals.

    Overlapping *and adjacent* intervals coalesce: ``[1,3]`` and ``[4,6]``
    merge to ``[1,6]`` because no idle time unit separates them. This is
    exactly the busy-segment semantics of the paper's Fig. 1.
    """
    ordered = sorted(intervals, key=_span)
    if not ordered:
        return []
    merged = [ordered[0]]
    for iv in ordered[1:]:
        last = merged[-1]
        if iv.start <= last.end + 1:
            merged[-1] = TimeInterval(last.start, max(last.end, iv.end))
        else:
            merged.append(iv)
    return merged


def gaps_between(intervals: Sequence[TimeInterval]) -> list[TimeInterval]:
    """Idle gaps strictly between the merged spans of ``intervals``.

    The result excludes any time before the first or after the last busy
    segment (the paper assumes servers sleep outside ``[first, last]``).
    """
    merged = merge_intervals(intervals)
    gaps: list[TimeInterval] = []
    for prev, nxt in zip(merged, merged[1:]):
        gaps.append(TimeInterval(prev.end + 1, nxt.start - 1))
    return gaps


def total_length(intervals: Iterable[TimeInterval]) -> int:
    """Total number of distinct time units covered by ``intervals``."""
    return sum(iv.length for iv in merge_intervals(intervals))


def intervals_overlap(intervals: Sequence[TimeInterval]) -> bool:
    """Whether any two intervals in the sequence share a time unit."""
    ordered = sorted(intervals, key=_span)
    return any(a.end >= b.start for a, b in zip(ordered, ordered[1:]))
