"""The robust skyline: committed demand plus per-segment radius multisets.

:class:`RobustSkyline` extends
:class:`~repro.placement.occupancy.SkylineOccupancy` so every change-point
segment carries, next to the nominal committed ``(cpu, mem)``, the demand
*radii* of the VMs overlapping it — sorted descending, one multiset per
resource. From those multisets it caches, per segment, exactly the two
numbers the Γ-robust probe formula needs (see
:meth:`repro.robust.config.RobustnessConfig.accumulate`):

* ``drop`` — the worst-case excess already charged regardless of the
  probed VM (the Γ−1 largest resident radii in gamma mode; every radius
  in box mode);
* ``threshold`` — the radius the probed VM must beat to join the
  worst-case set (the Γ-th largest resident radius; 0.0 in box mode or
  when fewer than Γ residents overlap).

Every probe path — the scalar :meth:`probe_piece_robust`, its yes/no
:meth:`admits_piece_robust` and the vectorized kernel mirror fed by
:meth:`export_robust_rows` — evaluates the identical IEEE-754
expression ``value = nominal + (drop + max(r, threshold))`` and
compares ``value + piece_demand > capacity + tol``, so kernel-driven
and scalar robust scans choose the same server bit for bit, exactly
like the nominal engine.

The nominal arithmetic is untouched: radius bookkeeping only *adds*
breakpoints (cutting a segment copies its value bits) and the coalesce
rule is tightened to require equal radius multisets, neither of which
changes any nominal sum or peak.
"""

from __future__ import annotations

import bisect
import math

from repro.placement.occupancy import SkylineOccupancy
from repro.robust.config import RobustnessConfig

__all__ = ["RobustSkyline"]


class RobustSkyline(SkylineOccupancy):
    """Skyline occupancy with per-segment resident radius multisets."""

    __slots__ = ("robustness", "_rc", "_rm", "_dc", "_tc", "_dm", "_tm")

    def __init__(self, robustness: RobustnessConfig) -> None:
        super().__init__()
        self.robustness = robustness
        #: per-segment radii, sorted descending (zero radii not stored)
        self._rc: list[tuple[float, ...]] = []
        self._rm: list[tuple[float, ...]] = []
        #: cached (drop, threshold) accumulators per segment
        self._dc: list[float] = []
        self._tc: list[float] = []
        self._dm: list[float] = []
        self._tm: list[float] = []

    # -- structure maintenance ---------------------------------------------

    def _cut(self, t: int) -> int:
        """Split a segment at ``t``, duplicating its radii and caches."""
        xs = self._xs
        i = bisect.bisect_right(xs, t) - 1
        if i >= 0 and xs[i] == t:
            return i
        xs.insert(i + 1, t)
        self._cpu.insert(i + 1, self._cpu[i] if i >= 0 else 0.0)
        self._mem.insert(i + 1, self._mem[i] if i >= 0 else 0.0)
        self._rc.insert(i + 1, self._rc[i] if i >= 0 else ())
        self._rm.insert(i + 1, self._rm[i] if i >= 0 else ())
        self._dc.insert(i + 1, self._dc[i] if i >= 0 else 0.0)
        self._tc.insert(i + 1, self._tc[i] if i >= 0 else 0.0)
        self._dm.insert(i + 1, self._dm[i] if i >= 0 else 0.0)
        self._tm.insert(i + 1, self._tm[i] if i >= 0 else 0.0)
        return i + 1

    def _coalesce(self, lo: int, hi: int) -> None:
        """Merge neighbours equal in value *and* radii; drop leading
        all-zero segments (same rule as the nominal skyline, extended
        so segments differing only in radii stay distinct)."""
        xs, cpu, mem = self._xs, self._cpu, self._mem
        rc, rm = self._rc, self._rm
        k = min(hi + 1, len(xs) - 1)
        floor = max(lo, 1)
        while k >= floor:
            if cpu[k] == cpu[k - 1] and mem[k] == mem[k - 1] \
                    and rc[k] == rc[k - 1] and rm[k] == rm[k - 1]:
                self._delete(k)
            k -= 1
        while xs and cpu[0] == 0.0 and mem[0] == 0.0 \
                and not rc[0] and not rm[0]:
            self._delete(0)

    def _delete(self, k: int) -> None:
        del self._xs[k], self._cpu[k], self._mem[k]
        del self._rc[k], self._rm[k]
        del self._dc[k], self._tc[k], self._dm[k], self._tm[k]

    def compact(self, before: int) -> None:
        self._refused = None
        i = bisect.bisect_right(self._xs, before) - 1
        if i > 0:
            del self._xs[:i], self._cpu[:i], self._mem[:i]
            del self._rc[:i], self._rm[:i]
            del self._dc[:i], self._tc[:i], self._dm[:i], self._tm[:i]
        while self._xs and self._cpu[0] == 0.0 and self._mem[0] == 0.0 \
                and not self._rc[0] and not self._rm[0]:
            self._delete(0)

    # -- radius bookkeeping -------------------------------------------------

    def add_radius(self, start: int, end: int,
                   cpu_radius: float, mem_radius: float) -> None:
        """Register a resident's radii over the closed ``[start, end]``.

        Called once per placed VM (radii are spec-level, constant over
        the whole interval even for phased demand). Zero radii are not
        stored — they can never enter a worst-case set.
        """
        if cpu_radius == 0.0 and mem_radius == 0.0:
            return
        self._refused = None
        lo = self._cut(start)
        hi = self._cut(end + 1)
        for k in range(lo, hi):
            if cpu_radius != 0.0:
                self._rc[k] = _insert(self._rc[k], cpu_radius)
            if mem_radius != 0.0:
                self._rm[k] = _insert(self._rm[k], mem_radius)
            self._refresh(k)
        self._coalesce(lo, hi)

    def subtract_radius(self, start: int, end: int,
                        cpu_radius: float, mem_radius: float) -> None:
        """Withdraw a resident's radii (migration / removal)."""
        if cpu_radius == 0.0 and mem_radius == 0.0:
            return
        self._refused = None
        lo = self._cut(start)
        hi = self._cut(end + 1)
        for k in range(lo, hi):
            if cpu_radius != 0.0:
                self._rc[k] = _discard(self._rc[k], cpu_radius)
            if mem_radius != 0.0:
                self._rm[k] = _discard(self._rm[k], mem_radius)
            self._refresh(k)
        self._coalesce(lo, hi)

    def _refresh(self, k: int) -> None:
        """Recompute segment ``k``'s cached (drop, threshold) pairs."""
        self._dc[k], self._tc[k] = self.robustness.accumulate(self._rc[k])
        self._dm[k], self._tm[k] = self.robustness.accumulate(self._rm[k])

    # -- robust probing ------------------------------------------------------

    def probe_piece_robust(self, start: int, end: int, cpu: float,
                           mem: float, cpu_radius: float, mem_radius: float,
                           cpu_cap: float, mem_cap: float, tol: float
                           ) -> tuple[str | None, float, float]:
        """Γ-robust feasibility of one demand piece.

        Same contract as the nominal
        :meth:`~repro.placement.occupancy.SkylineOccupancy.probe_piece`,
        but every segment is charged its robust excess: the committed
        value plus ``drop + max(radius, threshold)`` must leave room
        for the piece. Reported peaks are the *robust* committed usage
        (nominal plus ``drop + threshold`` — the excess without the
        probed VM), so headroom-driven scores see the reserved margin.
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
            # The kernel path evaluates these exact expressions on the
            # mirrored drop/threshold arrays — one shared op order.
            base_c = self._dc[k] + self._tc[k]
            p_c = self._cpu[k] + base_c
            exc_c = self._dc[k] + (cpu_radius if cpu_radius > self._tc[k]
                                   else self._tc[k])
            v_c = self._cpu[k] + exc_c
            base_m = self._dm[k] + self._tm[k]
            p_m = self._mem[k] + base_m
            exc_m = self._dm[k] + (mem_radius if mem_radius > self._tm[k]
                                   else self._tm[k])
            v_m = self._mem[k] + exc_m
            if p_c > peak_cpu:
                peak_cpu = p_c
            if p_m > peak_mem:
                peak_mem = p_m
            if t_cpu is None and v_c + cpu > cpu_cap + tol:
                t_cpu = x if x > start else start
            if t_mem is None and v_m + mem > mem_cap + tol:
                t_mem = x if x > start else start
        if t_cpu is not None:
            return f"cpu:overlap@{t_cpu}", peak_cpu, peak_mem
        if t_mem is not None:
            return f"mem:overlap@{t_mem}", peak_cpu, peak_mem
        return None, peak_cpu, peak_mem

    def admits_piece_robust(self, start: int, end: int, cpu: float,
                            mem: float, cpu_radius: float, mem_radius: float,
                            cpu_cap: float, mem_cap: float, tol: float
                            ) -> bool:
        """Whether :meth:`probe_piece_robust` would find no violation —
        its comparisons, each operand built in the same operation order,
        over the same segments, stopping at the first overloaded one and
        building neither peaks nor a reason. That segment is remembered
        as in the nominal ``admits_piece``, with its accumulators."""
        cpu_limit, mem_limit = cpu_cap + tol, mem_cap + tol
        if self._refused is not None and self.refuses(
                ((start, end, cpu, mem, cpu_radius, mem_radius),),
                cpu_limit, mem_limit):
            return False
        xs, seg_cpu, seg_mem = self._xs, self._cpu, self._mem
        dc, tc, dm, tm = self._dc, self._tc, self._dm, self._tm
        for k in range(max(bisect.bisect_right(xs, start) - 1, 0), len(xs)):
            if xs[k] > end:
                break
            if seg_cpu[k] + (dc[k] + (cpu_radius if cpu_radius > tc[k]
                                      else tc[k])) + cpu > cpu_limit \
                    or seg_mem[k] + (dm[k] + (mem_radius if mem_radius
                                              > tm[k] else tm[k])) \
                    + mem > mem_limit:
                self._refused = (xs[k], xs[k + 1] if k + 1 < len(xs)
                                 else math.inf, seg_cpu[k], dc[k], tc[k],
                                 seg_mem[k], dm[k], tm[k])
                return False
        return True

    def refuses(self, pieces: list[tuple], cpu_limit: float,
                mem_limit: float) -> bool:
        """The nominal ``refuses`` by :meth:`admits_piece_robust`'s
        comparison: the remembered segment's excess charged at each
        piece's radii."""
        seg = self._refused
        if seg is None:
            return False
        lo, hi, seg_cpu, dc, tc, seg_mem, dm, tm = seg
        for start, end, cpu, mem, cpu_radius, mem_radius in pieces:
            if start < hi and end >= lo and (
                    seg_cpu + (dc + (cpu_radius if cpu_radius > tc else tc))
                    + cpu > cpu_limit
                    or seg_mem + (dm + (mem_radius if mem_radius > tm
                                        else tm)) + mem > mem_limit):
                return True
        return False

    def refusal(self) -> tuple | None:
        """The nominal ``refusal`` with each resource charged its
        radius-0 excess, ``value + (drop + threshold)``: a radius only
        raises the charge ``refuses`` compares."""
        seg = self._refused
        if seg is None:
            return None
        lo, hi, seg_cpu, dc, tc, seg_mem, dm, tm = seg
        return lo, hi, seg_cpu + (dc + tc), seg_mem + (dm + tm)

    def export_robust_rows(self) -> tuple[
            list[int], list[float], list[float], list[float], list[float],
            list[float], list[float]]:
        """``(xs, cpu, mem, drop_c, thr_c, drop_m, thr_m)`` by reference.

        The fleet kernel mirrors all seven rows; callers must treat
        them as read-only (same contract as ``export_rows``).
        """
        return (self._xs, self._cpu, self._mem,
                self._dc, self._tc, self._dm, self._tm)

    def rows(self) -> dict[str, list]:
        """The nominal rows, the radius multisets and their cached
        accumulators — written as kept, never re-derived."""
        return {**super().rows(), "rc": self._rc, "rm": self._rm,
                "dc": self._dc, "tc": self._tc, "dm": self._dm,
                "tm": self._tm}

    def load_rows(self, rows: dict[str, list]) -> None:
        super().load_rows(rows)
        self._rc, self._rm = rows["rc"], rows["rm"]
        self._dc, self._tc = rows["dc"], rows["tc"]
        self._dm, self._tm = rows["dm"], rows["tm"]


def _insert(radii: tuple[float, ...], r: float) -> tuple[float, ...]:
    """``radii`` with ``r`` inserted, keeping descending order."""
    for i, existing in enumerate(radii):
        if r > existing:
            return radii[:i] + (r,) + radii[i:]
    return radii + (r,)


def _discard(radii: tuple[float, ...], r: float) -> tuple[float, ...]:
    """``radii`` with one occurrence of ``r`` removed."""
    for i, existing in enumerate(radii):
        if existing == r:
            return radii[:i] + radii[i + 1:]
    raise ValueError(f"radius {r!r} not present in segment multiset")
