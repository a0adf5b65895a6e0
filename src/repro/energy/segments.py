"""Busy/idle segment decomposition of a server's timeline (paper Fig. 1).

Given the VMs hosted on a server over the planning period, the server's
timeline decomposes into alternating *busy segments* — maximal runs of time
units during which at least one VM runs — and *idle segments*, the gaps
strictly between consecutive busy segments. Time before the first and after
the last busy segment is spent in the power-saving state by assumption
(``y_i,0 = y_i,T+1 = 0``), so it belongs to neither kind of segment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.model.intervals import TimeInterval, gaps_between, merge_intervals
from repro.model.vm import VM

__all__ = ["ServerTimeline", "busy_segments", "idle_segments",
           "timeline_of"]


def busy_segments(vms: Iterable[VM]) -> list[TimeInterval]:
    """Maximal intervals during which at least one of ``vms`` runs.

    Back-to-back VM intervals (one ends at ``t``, another starts at
    ``t + 1``) form a single busy segment: there is no idle time unit
    between them to sleep or idle through.
    """
    return merge_intervals(vm.interval for vm in vms)


def idle_segments(vms: Iterable[VM]) -> list[TimeInterval]:
    """Gaps strictly between the busy segments of ``vms``."""
    return gaps_between([vm.interval for vm in vms])


@dataclass(frozen=True)
class ServerTimeline:
    """One server's alternating busy/idle decomposition."""

    busy: tuple[TimeInterval, ...]
    idle: tuple[TimeInterval, ...]

    @property
    def busy_length(self) -> int:
        """Total time units inside busy segments."""
        return sum(seg.length for seg in self.busy)

    @property
    def idle_length(self) -> int:
        """Total time units inside idle gaps."""
        return sum(seg.length for seg in self.idle)

    @property
    def span(self) -> TimeInterval | None:
        """From first busy start to last busy end; ``None`` when unused."""
        if not self.busy:
            return None
        return TimeInterval(self.busy[0].start, self.busy[-1].end)

    def is_busy_at(self, t: int) -> bool:
        return any(seg.contains(t) for seg in self.busy)

    def is_idle_at(self, t: int) -> bool:
        return any(seg.contains(t) for seg in self.idle)


def timeline_of(vms: Sequence[VM]) -> ServerTimeline:
    """The busy/idle decomposition of a server hosting ``vms``."""
    busy = busy_segments(vms)
    idle = tuple(TimeInterval(prev.end + 1, nxt.start - 1)
                 for prev, nxt in zip(busy, busy[1:]))
    return ServerTimeline(busy=tuple(busy), idle=idle)
