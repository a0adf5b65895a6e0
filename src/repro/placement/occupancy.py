"""Per-server occupancy: how much CPU/memory is committed when.

:class:`SkylineOccupancy` answers the three queries every placement
decision needs — peak usage over a closed interval ``[start, end]``, the
first time unit where adding ``(cpu, mem)`` would violate capacity, and
incremental add/subtract as VMs are placed and removed. It is a sorted
change-point *skyline*: breakpoint ``xs[i]`` opens a segment
``[xs[i], xs[i+1])`` of constant committed ``(cpu, mem)``; usage is zero
before ``xs[0]`` and the last segment extends to infinity (its value is
zero once trailing demand is coalesced away). Updates and probes cost
O(log k + s) for k breakpoints and s overlapped segments — independent
of the simulated horizon, so a long-running daemon's memory tracks its
live load, not time.

Bit-exact with the paper's per-time-unit rule (Eqs. 7–14), not
approximate: for any time unit the skyline applies the same IEEE-754
``+=``/``-=`` sequence to the same running value a per-unit timeline
would (splitting a segment copies the value's bits), and peaks take a
max over the identical multiset of values. The property tests in
``tests/test_placement_properties.py`` hold it ``==`` to such a
timeline, on floats, not ``pytest.approx``.
"""

from __future__ import annotations

import bisect
import math

__all__ = ["SkylineOccupancy", "make_occupancy"]


class SkylineOccupancy:
    """Sparse change-point skyline of committed (cpu, mem) over time."""

    __slots__ = ("_xs", "_cpu", "_mem", "_refused")

    def __init__(self) -> None:
        #: sorted breakpoints; segment i is [xs[i], xs[i+1]) at constant
        #: (_cpu[i], _mem[i]); zero before xs[0]; last segment open-ended.
        self._xs: list[int] = []
        self._cpu: list[float] = []
        self._mem: list[float] = []
        #: ``(x, next x, *values)`` of the segment that last refused a
        #: piece in :meth:`admits_piece`; every mutator forgets it
        self._refused: tuple | None = None

    def __len__(self) -> int:
        """Number of tracked change points (the index's memory footprint)."""
        return len(self._xs)

    # -- updates -----------------------------------------------------------

    def _cut(self, t: int) -> int:
        """Ensure a breakpoint exists exactly at ``t``; return its index."""
        xs = self._xs
        i = bisect.bisect_right(xs, t) - 1
        if i >= 0 and xs[i] == t:
            return i
        # Split segment i (or the implicit zero region before xs[0]),
        # copying its value so usage at every time unit is unchanged.
        xs.insert(i + 1, t)
        self._cpu.insert(i + 1, self._cpu[i] if i >= 0 else 0.0)
        self._mem.insert(i + 1, self._mem[i] if i >= 0 else 0.0)
        return i + 1

    def _apply(self, start: int, end: int, cpu: float, mem: float) -> None:
        self._refused = None
        lo = self._cut(start)
        hi = self._cut(end + 1)
        for k in range(lo, hi):
            self._cpu[k] += cpu
            self._mem[k] += mem
        self._coalesce(lo, hi)

    def add(self, start: int, end: int, cpu: float, mem: float) -> None:
        """Commit ``(cpu, mem)`` over the closed interval ``[start, end]``."""
        self._apply(start, end, cpu, mem)

    def subtract(self, start: int, end: int, cpu: float, mem: float) -> None:
        """Withdraw ``(cpu, mem)`` over the closed interval ``[start, end]``."""
        self._apply(start, end, -cpu, -mem)

    def _coalesce(self, lo: int, hi: int) -> None:
        """Merge equal-valued neighbours around the touched window and drop
        leading zero segments (the region before ``xs[0]`` is implicitly
        zero, so a zero-valued first segment carries no information)."""
        xs, cpu, mem = self._xs, self._cpu, self._mem
        k = min(hi + 1, len(xs) - 1)
        floor = max(lo, 1)
        while k >= floor:
            if cpu[k] == cpu[k - 1] and mem[k] == mem[k - 1]:
                del xs[k], cpu[k], mem[k]
            k -= 1
        while xs and cpu[0] == 0.0 and mem[0] == 0.0:
            del xs[0], cpu[0], mem[0]

    def compact(self, before: int) -> None:
        """Forget change points strictly before time ``before``.

        Only the latest breakpoint at or before ``before`` is kept (it
        carries the value in force at ``before``); queries over
        ``[before, inf)`` are unaffected. Used by the online service to
        retire finished VMs so memory tracks *live* load, not elapsed time.
        """
        self._refused = None
        i = bisect.bisect_right(self._xs, before) - 1
        if i > 0:
            del self._xs[:i], self._cpu[:i], self._mem[:i]
        while self._xs and self._cpu[0] == 0.0 and self._mem[0] == 0.0:
            del self._xs[0], self._cpu[0], self._mem[0]

    # -- queries -----------------------------------------------------------

    def peak(self, start: int, end: int) -> tuple[float, float]:
        """Max committed (cpu, mem) over the closed interval ``[start, end]``."""
        xs = self._xs
        peak_cpu = peak_mem = 0.0
        i = bisect.bisect_right(xs, start) - 1
        if i < 0:
            i = 0
        for k in range(i, len(xs)):
            if xs[k] > end:
                break
            if self._cpu[k] > peak_cpu:
                peak_cpu = self._cpu[k]
            if self._mem[k] > peak_mem:
                peak_mem = self._mem[k]
        return peak_cpu, peak_mem

    def probe_piece(self, start: int, end: int, cpu: float, mem: float,
                    cpu_cap: float, mem_cap: float, tol: float
                    ) -> tuple[str | None, float, float]:
        """Feasibility of adding ``(cpu, mem)`` over ``[start, end]``.

        Returns ``(reason, peak_cpu, peak_mem)`` where ``reason`` is
        ``None`` when the piece fits, else ``"cpu:overlap@t"`` /
        ``"mem:overlap@t"`` naming the first violating time unit. CPU is
        checked before memory, matching the historical ``fits`` order.
        """
        xs = self._xs
        peak_cpu = peak_mem = 0.0
        t_cpu: int | None = None
        t_mem: int | None = None
        i = bisect.bisect_right(xs, start) - 1
        if i < 0:
            i = 0
        for k in range(i, len(xs)):
            x = xs[k]
            if x > end:
                break
            c = self._cpu[k]
            m = self._mem[k]
            if c > peak_cpu:
                peak_cpu = c
            if m > peak_mem:
                peak_mem = m
            if t_cpu is None and c + cpu > cpu_cap + tol:
                t_cpu = x if x > start else start
            if t_mem is None and m + mem > mem_cap + tol:
                t_mem = x if x > start else start
        if t_cpu is not None:
            return f"cpu:overlap@{t_cpu}", peak_cpu, peak_mem
        if t_mem is not None:
            return f"mem:overlap@{t_mem}", peak_cpu, peak_mem
        return None, peak_cpu, peak_mem

    def admits_piece(self, start: int, end: int, cpu: float, mem: float,
                     cpu_cap: float, mem_cap: float, tol: float) -> bool:
        """Whether :meth:`probe_piece` would find no violation — the same
        comparisons over the same segments, stopping at the first
        overloaded one and building neither peaks nor a reason.

        That segment is remembered until the next mutation; a piece it
        refuses (:meth:`refuses`) is refused with no search.
        """
        cpu_limit, mem_limit = cpu_cap + tol, mem_cap + tol
        if self._refused is not None and self.refuses(
                ((start, end, cpu, mem, 0.0, 0.0),), cpu_limit, mem_limit):
            return False
        xs, seg_cpu, seg_mem = self._xs, self._cpu, self._mem
        for k in range(max(bisect.bisect_right(xs, start) - 1, 0), len(xs)):
            if xs[k] > end:
                break
            if seg_cpu[k] + cpu > cpu_limit or seg_mem[k] + mem > mem_limit:
                self._refused = (xs[k], xs[k + 1] if k + 1 < len(xs)
                                 else math.inf, seg_cpu[k], seg_mem[k])
                return False
        return True

    def refuses(self, pieces: list[tuple], cpu_limit: float,
                mem_limit: float) -> bool:
        """Whether the segment that last refused a piece here overlaps
        one of ``pieces`` (``(start, end, cpu, mem, cpu_radius,
        mem_radius)``; radii for a Γ-robust book) and fails the search's
        own comparison there against ``capacity + tol``: ``True`` is
        :meth:`admits_piece`'s answer bit for bit, ``False`` none."""
        seg = self._refused
        if seg is None:
            return False
        lo, hi, seg_cpu, seg_mem = seg
        for start, end, cpu, mem, _, _ in pieces:
            if start < hi and end >= lo and (
                    seg_cpu + cpu > cpu_limit or seg_mem + mem > mem_limit):
                return True
        return False

    def refusal(self) -> tuple | None:
        """The remembered refusal as a *fact* ``(lo, hi, cpu, mem)``:
        the segment ``[lo, hi)`` and what it holds at radius 0 — no
        larger than any charge ``refuses`` compares — or ``None``. True
        of the rows until the next mutation, which forgets it."""
        return self._refused

    def tail(self) -> int | None:
        """The first time from which nothing is committed for good —
        the last breakpoint: updates never touch the open-ended last
        segment, so it stays empty — or ``None`` for an empty skyline."""
        return self._xs[-1] if self._xs else None

    def points(self) -> list[int]:
        """The current change points (introspection / memory regression)."""
        return list(self._xs)

    def export_rows(self) -> tuple[list[int], list[float], list[float]]:
        """The raw ``(xs, cpu, mem)`` change-point rows, by reference.

        The fleet-probe kernel (:mod:`repro.placement.kernels`) copies
        these into its structure-of-arrays mirror; callers must treat
        the returned lists as read-only.
        """
        return self._xs, self._cpu, self._mem

    def rows(self) -> dict[str, list]:
        """Every row the skyline keeps, by name and by reference — what
        a snapshot writes verbatim and :meth:`load_rows` reads back (a
        cut leaves subtraction residue no re-add would reproduce)."""
        return {"xs": self._xs, "cpu": self._cpu, "mem": self._mem}

    def load_rows(self, rows: dict[str, list]) -> None:
        """Take :meth:`rows` back; the lists are adopted, not copied."""
        self._xs, self._cpu, self._mem = rows["xs"], rows["cpu"], rows["mem"]
        self._refused = None


def make_occupancy(robustness=None):
    """Build a book's occupancy index.

    With an *active* :class:`~repro.robust.config.RobustnessConfig` it is
    the :class:`~repro.robust.skyline.RobustSkyline` (per-segment radius
    multisets next to the nominal values); an inactive or absent config
    keeps the plain skyline, so nominal probing is the identical code
    path, not a zero-budget special case.
    """
    if robustness is not None and robustness.active:
        from repro.robust.skyline import RobustSkyline
        return RobustSkyline(robustness)
    return SkylineOccupancy()
