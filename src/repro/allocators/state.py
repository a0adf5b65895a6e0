"""Mutable per-server state used while an allocator builds a plan.

:class:`ServerState` tracks, for one server, the CPU and memory already
committed over time (behind a pluggable occupancy index, sparse by
default — see :mod:`repro.placement`), the merged busy segments, and the
running Eq.-17 energy cost. It supports the two queries every allocator
needs:

* :meth:`probe` — can this VM run here for its whole interval without
  exceeding capacity at any time unit (constraints 9-10), and if not, why?
  The verdict also carries the peak committed usage over the interval, so
  one probe serves explain-traces and bin-packing scores alike;
  :meth:`admits` is its yes/no, for a walk that reads nothing else.
* :meth:`incremental_cost` — by how much would this server's energy rise if
  the VM were placed here (the paper's heuristic selection criterion)?

The incremental cost is computed *locally*: adding one interval only
perturbs the busy segments it overlaps or touches, so the delta is derived
from the affected neighbourhood rather than a full timeline recomputation.
A from-scratch recomputation is kept in the tests as the oracle.

The pre-probe ``fits`` / ``fit_reason`` / ``peak_usage`` trio has been
removed after its deprecation cycle; ``docs/api.md`` records the
replacements.
"""

from __future__ import annotations

import bisect
import weakref

from repro.energy.cost import (
    SleepPolicy,
    _gap_length_cost,
    server_cost,
    wake_delta,
)
from repro.energy.power import run_energy
from repro.energy.segments import ServerTimeline
from repro.exceptions import CapacityError
from repro.model.intervals import TimeInterval, merge_intervals
from repro.model.phases import demand_profile
from repro.model.server import Server
from repro.model.vm import VM
from repro.obs.explain import CostTerms
from repro.placement.config import EngineConfig
from repro.placement.feasibility import TOL, Feasibility, static_demand
from repro.placement.occupancy import make_occupancy

__all__ = ["ServerState"]


class ServerState:
    """Usage, busy segments, and running cost for one server."""

    def __init__(self, server: Server, *,
                 policy: SleepPolicy = SleepPolicy.OPTIMAL,
                 engine: EngineConfig | str | None = None) -> None:
        self.server = server
        self.policy = policy
        # ServerState is internal plumbing, so both forms are accepted
        # silently here; the public constructors (allocators, the
        # service store) own the legacy-string deprecation.
        config = EngineConfig.coerce(engine, warn=False)
        self.engine_config = config
        #: the active robustness config, or None for nominal probing
        self.robustness = config.active_robustness
        self.vms: list[VM] = []
        #: merged, sorted busy segments as parallel start/end lists
        self._busy_starts: list[int] = []
        self._busy_ends: list[int] = []
        self._occ = make_occupancy(self.robustness)
        #: running Eq.-17 total (run + busy idle + gaps + initial wake)
        self.cost: float = 0.0
        #: weakly-held observers notified after every mutation (the
        #: fleet-probe kernel and the incremental candidate index).
        self._watchers: list[weakref.ref] = []

    # -- change notification -------------------------------------------------

    def add_watcher(self, watcher: object) -> None:
        """Register ``watcher`` for mutation notifications.

        Watchers implement ``server_state_changed(state)`` and are held
        weakly: a replaced index/kernel (fleet rebuilds re-run
        ``prepare``) is dropped on the next notification or the next
        registration, whichever comes first — a book that never changes
        again must not keep one dead reference per rebuild.
        """
        self._watchers = [ref for ref in self._watchers
                          if ref() is not None]
        self._watchers.append(weakref.ref(watcher))

    def _notify(self) -> None:
        watchers = self._watchers
        if not watchers:
            return
        dead = False
        for ref in watchers:
            watcher = ref()
            if watcher is None:
                dead = True
            else:
                watcher.server_state_changed(self)
        if dead:
            self._watchers = [ref for ref in watchers
                              if ref() is not None]

    # -- capacity ----------------------------------------------------------

    def probe(self, vm: VM) -> Feasibility:
        """Feasibility verdict for ``vm`` on this server (Eqs. 9-10).

        Phase-aware: a :class:`~repro.model.phases.PhasedVM` is checked
        piece by piece against the committed usage. One pass yields the
        feasible flag, the failing constraint (``"cpu:capacity"``,
        ``"mem:capacity"``, ``"cpu:overlap@t"`` / ``"mem:overlap@t"``
        naming the first overloaded time unit), and the peak committed
        (cpu, mem) over the VM's interval with the matching headroom.

        With an active :class:`~repro.robust.config.RobustnessConfig`
        the verdict is Γ-robust: every overlapped segment is charged
        the nominal committed demand plus the Γ largest radii among
        the VMs overlapping it (the probed VM included), and the
        reported peaks/headroom reflect that robust reservation.
        """
        if self.robustness is not None:
            return self._probe_robust(vm)
        spec = self.server.spec
        if vm.cpu > spec.cpu_capacity:
            return Feasibility(False, "cpu:capacity", 0.0, 0.0,
                               spec.cpu_capacity, spec.memory_capacity)
        if vm.memory > spec.memory_capacity:
            return Feasibility(False, "mem:capacity", 0.0, 0.0,
                               spec.cpu_capacity, spec.memory_capacity)
        peak_cpu = peak_mem = 0.0
        for piece, cpu, memory in demand_profile(vm):
            reason, piece_cpu, piece_mem = self._occ.probe_piece(
                piece.start, piece.end, cpu, memory,
                spec.cpu_capacity, spec.memory_capacity, TOL)
            if piece_cpu > peak_cpu:
                peak_cpu = piece_cpu
            if piece_mem > peak_mem:
                peak_mem = piece_mem
            if reason is not None:
                return Feasibility(False, reason, peak_cpu, peak_mem,
                                   spec.cpu_capacity - peak_cpu,
                                   spec.memory_capacity - peak_mem)
        return Feasibility(True, None, peak_cpu, peak_mem,
                           spec.cpu_capacity - peak_cpu,
                           spec.memory_capacity - peak_mem)

    def admits(self, vm: VM) -> bool:
        """``probe(vm).feasible`` for a caller that only asks yes or no
        (equal to it on every engine spec: the contract the property in
        ``tests/test_placement_properties.py`` holds). The skyline, plain
        or Γ-robust, stops at the first overloaded segment and builds no
        verdict."""
        spec = self.server.spec
        cpu_cap, mem_cap = spec.cpu_capacity, spec.memory_capacity
        if self.robustness is not None:
            cpu_need, mem_need = static_demand(vm, robust=True)
            if cpu_need > cpu_cap or mem_need > mem_cap:
                return False
            admits_robust = self._occ.admits_piece_robust
            cpu_radius, mem_radius = vm.cpu_radius, vm.mem_radius
            for piece, cpu, memory in demand_profile(vm):
                if not admits_robust(piece.start, piece.end, cpu, memory,
                                     cpu_radius, mem_radius, cpu_cap,
                                     mem_cap, TOL):
                    return False
            return True
        if vm.cpu > cpu_cap or vm.memory > mem_cap:
            return False
        admits_piece = self._occ.admits_piece
        for piece, cpu, memory in demand_profile(vm):
            if not admits_piece(piece.start, piece.end, cpu, memory,
                                cpu_cap, mem_cap, TOL):
                return False
        return True

    def _probe_robust(self, vm: VM) -> Feasibility:
        """:meth:`probe` under the active Γ-robust constraint.

        The static admission check charges the VM its own radius (with
        Γ >= 1 a lone VM's radius is always in the worst-case set), and
        each demand piece goes through the robust skyline's
        ``probe_piece_robust`` — the same closed-form excess the fleet
        kernel evaluates on its mirrored accumulator arrays.
        """
        spec = self.server.spec
        cpu_need, mem_need = static_demand(vm, robust=True)
        if cpu_need > spec.cpu_capacity:
            return Feasibility(False, "cpu:capacity", 0.0, 0.0,
                               spec.cpu_capacity, spec.memory_capacity)
        if mem_need > spec.memory_capacity:
            return Feasibility(False, "mem:capacity", 0.0, 0.0,
                               spec.cpu_capacity, spec.memory_capacity)
        peak_cpu = peak_mem = 0.0
        for piece, cpu, memory in demand_profile(vm):
            reason, piece_cpu, piece_mem = self._occ.probe_piece_robust(
                piece.start, piece.end, cpu, memory,
                vm.cpu_radius, vm.mem_radius,
                spec.cpu_capacity, spec.memory_capacity, TOL)
            if piece_cpu > peak_cpu:
                peak_cpu = piece_cpu
            if piece_mem > peak_mem:
                peak_mem = piece_mem
            if reason is not None:
                return Feasibility(False, reason, peak_cpu, peak_mem,
                                   spec.cpu_capacity - peak_cpu,
                                   spec.memory_capacity - peak_mem)
        return Feasibility(True, None, peak_cpu, peak_mem,
                           spec.cpu_capacity - peak_cpu,
                           spec.memory_capacity - peak_mem)

    # -- busy-segment bookkeeping -------------------------------------------

    def _affected_range(self, iv: TimeInterval) -> tuple[int, int]:
        """Index range [lo, hi) of busy segments merging with ``iv``.

        A segment merges when it overlaps or is adjacent to ``iv``, i.e.
        when ``seg.end >= iv.start - 1`` and ``seg.start <= iv.end + 1``.
        """
        lo = bisect.bisect_left(self._busy_ends, iv.start - 1)
        hi = bisect.bisect_right(self._busy_starts, iv.end + 1)
        return lo, hi

    def idle_delta(self, iv: TimeInterval) -> float:
        """Eq.-17 delta of busying ``iv`` here, excluding run cost.

        The non-run share of :meth:`incremental_cost` (extra busy
        idle-power, gap-cost changes, wake-ups); public so min-energy's
        walk can cache the run term per server type.
        """
        spec, policy = self.server.spec, self.policy
        if not self._busy_starts:
            return wake_delta(spec, iv.length)  # the first wake-up
        lo, hi = self._affected_range(iv)
        if lo >= hi:
            # iv touches no existing segment: one new busy segment appears.
            delta = spec.p_idle * iv.length
            # A surrounding gap (when interior) is replaced by up to two
            # smaller gaps. Extending the span outwards creates only one
            # new gap and moves — not duplicates — the initial wake-up.
            prev_end = self._busy_ends[lo - 1] if lo > 0 else None
            next_start = (self._busy_starts[lo]
                          if lo < len(self._busy_starts) else None)
            delta -= _gap_cost(spec, prev_end, next_start, policy)
            delta += _gap_cost(spec, prev_end, iv.start, policy)
            delta += _gap_cost(spec, iv.end, next_start, policy)
            return delta
        if hi - lo == 1:
            starts, ends = self._busy_starts, self._busy_ends
            # iv merges with exactly one segment (every fold of a dense
            # walk): the general case below, same float operations in
            # the same order, without its sum, loop and min / max calls.
            # An open side's two gap costs are both 0.0, and adding
            # their difference changes nothing (delta is never -0.0).
            seg_start, seg_end = starts[lo], ends[lo]
            merged_start = iv.start if iv.start < seg_start else seg_start
            merged_end = iv.end if iv.end > seg_end else seg_end
            delta = spec.p_idle * ((merged_end - merged_start + 1)
                                   - (seg_end - seg_start + 1))
            if lo > 0:
                prev_end = ends[lo - 1]
                delta += (_gap_cost(spec, prev_end, merged_start, policy)
                          - _gap_cost(spec, prev_end, seg_start, policy))
            if hi < len(starts):
                next_start = starts[hi]
                delta += (_gap_cost(spec, merged_end, next_start, policy)
                          - _gap_cost(spec, seg_end, next_start, policy))
            return delta
        # iv merges segments [lo, hi) into one.
        merged_start = min(iv.start, self._busy_starts[lo])
        merged_end = max(iv.end, self._busy_ends[hi - 1])
        old_busy = sum(self._busy_ends[k] - self._busy_starts[k] + 1
                       for k in range(lo, hi))
        delta = spec.p_idle * ((merged_end - merged_start + 1) - old_busy)
        # Interior gaps between merged segments disappear.
        for k in range(lo, hi - 1):
            delta -= _gap_cost(spec, self._busy_ends[k],
                               self._busy_starts[k + 1], policy)
        # Boundary gaps shrink (or vanish) as the merged segment extends.
        prev_end = self._busy_ends[lo - 1] if lo > 0 else None
        next_start = (self._busy_starts[hi]
                      if hi < len(self._busy_starts) else None)
        delta += (_gap_cost(spec, prev_end, merged_start, policy)
                  - _gap_cost(spec, prev_end, self._busy_starts[lo], policy))
        delta += (_gap_cost(spec, merged_end, next_start, policy)
                  - _gap_cost(spec, self._busy_ends[hi - 1], next_start,
                              policy))
        return delta

    # -- queries -------------------------------------------------------------

    def incremental_cost(self, vm: VM) -> float:
        """Energy increase if ``vm`` were placed on this server (Eq. 17).

        Includes the VM's run cost ``W_ij``, the extra busy idle-power, the
        change in idle-gap costs, and any additional wake-up transitions.
        """
        return run_energy(self.server.spec, vm) + \
            self.idle_delta(vm.interval)

    def cost_terms(self, vm: VM) -> CostTerms:
        """The :meth:`incremental_cost` split into its explainable parts.

        ``wake`` is the transition energy ``alpha_i`` charged only when
        the server currently hosts nothing (a first wake-up); merges and
        extensions of existing busy segments move the wake-up rather
        than duplicate it, so their entire delta lands in ``idle_gap``.
        """
        return self.priced(vm)[0]

    def priced(self, vm: VM) -> tuple[CostTerms, float]:
        """:meth:`cost_terms` and :meth:`incremental_cost` from one
        :meth:`idle_delta` — what an explain record reads per candidate.
        The cost is the run plus that delta, bit-equal to
        :meth:`incremental_cost` (re-adding the terms would round
        differently)."""
        spec = self.server.spec
        run = run_energy(spec, vm)
        delta = self.idle_delta(vm.interval)
        wake = spec.transition_cost if not self._busy_starts else 0.0
        return (CostTerms(run=run, idle_gap=delta - wake, wake=wake),
                run + delta)

    def incremental_cost_swapped(self, vm: VM, *, without: VM,
                                 time: int) -> float:
        """:meth:`incremental_cost` of ``vm`` if resident ``without``
        stopped at tick ``time - 1`` — what :meth:`cut`,
        ``incremental_cost(vm)`` and restoring would report, with no
        mutation: the busy segments reaching ``time`` are merged on
        the side. The consolidation planner prices "stay put" this way
        (the remainder against a source shrunk to the head).
        """
        k, starts, ends = self._cut_tail(without, time)
        saved = self._busy_starts, self._busy_ends
        self._busy_starts = saved[0][:k] + starts
        self._busy_ends = saved[1][:k] + ends
        try:
            return self.incremental_cost(vm)
        finally:
            self._busy_starts, self._busy_ends = saved

    # -- mutation --------------------------------------------------------------

    def place(self, vm: VM, cost: float | None = None) -> float:
        """Commit ``vm`` to this server; returns the cost increase.

        Raises :class:`CapacityError` when the VM does not fit (callers are
        expected to have checked :meth:`admits`). A ``cost`` is booked
        as is: the :meth:`incremental_cost` a walk priced on this book.
        """
        if not self.admits(vm):
            raise CapacityError(
                f"{vm} does not fit on {self.server}",
                server_id=self.server.server_id)
        return self.place_trusted(vm, cost)

    def place_trusted(self, vm: VM, cost: float | None = None) -> float:
        """:meth:`place` without the feasibility probe.

        For booking what is known to fit — the offline walk's decision,
        a migration's remainder on the target its planner probed, test
        books built from a known-good log: re-validating is pure
        overhead. The cost arithmetic is identical to :meth:`place`.
        """
        delta = self.incremental_cost(vm) if cost is None else cost
        for piece, cpu, memory in demand_profile(vm):
            self._occ.add(piece.start, piece.end, cpu, memory)
        if self.robustness is not None:
            # Radii are spec-level: constant over the whole interval
            # even when the per-piece demand varies by phase.
            self._occ.add_radius(vm.start, vm.end,
                                 vm.cpu_radius, vm.mem_radius)
        self._merge_in(vm.interval)
        self.vms.append(vm)
        self.cost += delta
        self._notify()
        return delta

    def _occupy(self, vm: VM, since: int, *,
                withdraw: bool = False) -> None:
        """Add (or withdraw) ``vm``'s demand and radii over
        ``[max(start, since), end]`` — whole when ``since <= start``."""
        occ = self._occ
        change = occ.subtract if withdraw else occ.add
        for piece, cpu, memory in demand_profile(vm):
            if piece.end >= since:
                change(max(piece.start, since), piece.end, cpu, memory)
        if self.robustness is not None and vm.end >= since:
            change = occ.subtract_radius if withdraw else occ.add_radius
            change(max(vm.start, since), vm.end,
                   vm.cpu_radius, vm.mem_radius)

    def remove(self, vm: VM) -> float:
        """Withdraw a placed VM whole; returns the cost decrease.

        Busy segments and the running cost are rebuilt from the
        remaining VM set, so this is exact on an *uncompacted* book
        only (the offline failure replay's) — one that has
        :meth:`retire`-d anything has forgotten what the rebuild
        needs. A live book is :meth:`cut` instead.
        """
        try:
            self.vms.remove(vm)
        except ValueError:
            raise CapacityError(
                f"{vm} is not placed on {self.server}",
                server_id=self.server.server_id) from None
        self._occupy(vm, vm.start, withdraw=True)
        old_cost = self.cost
        self._rebuild()
        self._notify()
        return old_cost - self.cost

    def cut(self, vm: VM, time: int, head: VM | None = None) -> float:
        """Resident ``vm`` stops at tick ``time - 1`` (a migration or a
        failure at ``time <= vm.end``); returns the Eq.-17 decrease.

        ``head`` — the part that already ran, ``None`` when the VM had
        not started — stays booked and takes the VM's place at the end
        of ``vms``; demand and radii leave over ``[max(start, time),
        end]`` only; the busy segments reaching ``time`` are re-merged
        from the residents still running then. Nothing before ``time -
        1`` is read, so unlike :meth:`remove` the cut is exact on a
        compacted book, for the cost of this server's live residents.
        """
        k, starts, ends = self._cut_tail(vm, time)
        self.vms.remove(vm)
        if head is not None:
            self.vms.append(head)
        self._occupy(vm, time, withdraw=True)
        self._busy_starts[k:] = starts
        self._busy_ends[k:] = ends
        # Eq. 17 is a function of the set booked: what left is what
        # booking it again would add (the wake too, if nothing is left).
        spec = self.server.spec
        decrease = run_energy(spec, vm) + self.idle_delta(
            TimeInterval(max(vm.start, time), vm.end))
        if head is not None:
            decrease -= run_energy(spec, head)
        self.cost = self.cost - decrease if self._busy_starts else 0.0
        self._notify()
        return decrease

    def _cut_tail(self, vm: VM, time: int
                  ) -> tuple[int, list[int], list[int]]:
        """``(k, starts, ends)``: busy segments ``k..`` as they would be
        with resident ``vm`` stopped at ``time - 1`` — what the segment
        reaching ``time - 1`` covers before ``time``, then a merge of
        the other residents from ``time`` on. Segments before ``k`` end
        earlier and stay as they are."""
        try:
            drop = self.vms.index(vm)
        except ValueError:
            raise CapacityError(
                f"{vm} is not placed on {self.server}",
                server_id=self.server.server_id) from None
        k = bisect.bisect_left(self._busy_ends, time - 1)
        spans = [TimeInterval(start, time - 1)
                 for start in self._busy_starts[k:k + 1] if start < time]
        spans += [TimeInterval(max(other.start, time), other.end)
                  for i, other in enumerate(self.vms)
                  if i != drop and other.end >= time]
        merged = merge_intervals(spans)
        return (k, [seg.start for seg in merged],
                [seg.end for seg in merged])

    def live_copy(self, time: int) -> "ServerState":
        """An O(live) twin that answers like this book from ``time``
        on: the residents still running, the busy segments from the
        last fully-past one, the cost, and the occupancy re-added from
        those residents in book order — per value the same ``+=``
        sequence as here, so probes are bit-equal, without what a
        :meth:`cut` subtracted and with nothing before ``time``."""
        twin = ServerState(self.server, policy=self.policy,
                           engine=self.engine_config)
        twin.vms = [vm for vm in self.vms if vm.end >= time]
        twin._busy_starts = list(self._busy_starts)
        twin._busy_ends = list(self._busy_ends)
        twin.compact(time)      # the anchor rule lives there
        twin.cost = self.cost
        for vm in twin.vms:
            twin._occupy(vm, time)
        return twin

    def book(self) -> tuple[list[int], list[int], dict[str, list]]:
        """The busy-segment starts and ends and the occupancy rows, by
        reference: with :attr:`vms` and :attr:`cost`, all this book
        holds (a snapshot writes it; :meth:`restored` reads it back)."""
        return self._busy_starts, self._busy_ends, self._occ.rows()

    @classmethod
    def restored(cls, server: Server, *, policy: SleepPolicy,
                 engine: EngineConfig, vms: list[VM],
                 busy_starts: list[int], busy_ends: list[int],
                 cost: float, rows: dict[str, list]) -> "ServerState":
        """The book whose :attr:`vms`, :attr:`cost` and :meth:`book`
        are these, verbatim: it probes and prices bit for bit as the
        one they were read off, with nothing recomputed."""
        state = cls(server, policy=policy, engine=engine)
        state.vms = vms
        state._busy_starts, state._busy_ends = busy_starts, busy_ends
        state.cost = cost
        state._occ.load_rows(rows)
        return state

    def retire(self, vm: VM, *, before: int | None = None) -> None:
        """Forget a *finished* VM without undoing its energy accounting.

        Unlike :meth:`remove` (a migration: the demand is withdrawn and the
        cost rebuilt), retirement acknowledges that the VM ran to
        completion: its energy stays in :attr:`cost` and its demand stays
        in effect, but the live ``vms`` list shrinks and — when ``before``
        is given — occupancy change points and busy segments strictly in
        the past are compacted away, so the daemon's memory tracks live
        load instead of elapsed time. Probes and cost deltas for intervals
        at or after ``before`` are unaffected (the most recent past busy
        segment is kept as the wake/gap anchor).
        """
        try:
            self.vms.remove(vm)
        except ValueError:
            raise CapacityError(
                f"{vm} is not placed on {self.server}",
                server_id=self.server.server_id) from None
        if before is not None:
            self.compact(before)
        else:
            self._notify()

    def compact(self, before: int) -> None:
        """Drop occupancy/segment detail strictly before time ``before``.

        Keeps the latest fully-past busy segment: its end anchors the gap
        and wake-up arithmetic for future placements, so decisions after
        compaction match what the uncompacted state would have decided.
        """
        self._occ.compact(before)
        # Segments with end < before are fully past; keep the last one.
        past = bisect.bisect_left(self._busy_ends, before)
        if past > 1:
            del self._busy_starts[: past - 1]
            del self._busy_ends[: past - 1]
        self._notify()

    def _rebuild(self) -> None:
        """Recompute busy segments and cost from the current VM set."""
        merged = merge_intervals(vm.interval for vm in self.vms)
        self._busy_starts = [seg.start for seg in merged]
        self._busy_ends = [seg.end for seg in merged]
        self.cost = server_cost(self.server.spec, self.vms,
                                policy=self.policy).total

    def _merge_in(self, iv: TimeInterval) -> None:
        lo, hi = self._affected_range(iv)
        if lo >= hi:
            self._busy_starts.insert(lo, iv.start)
            self._busy_ends.insert(lo, iv.end)
            return
        merged_start = min(iv.start, self._busy_starts[lo])
        merged_end = max(iv.end, self._busy_ends[hi - 1])
        self._busy_starts[lo:hi] = [merged_start]
        self._busy_ends[lo:hi] = [merged_end]

    # -- introspection -----------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not self.vms

    @property
    def is_pristine(self) -> bool:
        """Never hosted anything that is still on the book: no live
        VMs, no busy history and no committed demand
        (:attr:`quiet_after` is ``None``).

        Pristine servers of the same spec are interchangeable for
        placement — identical probe verdicts and identical incremental
        cost — and so is a server idle long enough (:attr:`quiet_after`).
        """
        return self.quiet_after is None

    @property
    def quiet_after(self) -> int | None:
        """The last tick this server is busy or holds committed demand
        (``None`` when pristine): its book is empty from the next tick
        on. The occupancy counts as well as the busy segments because a
        cut can leave subtraction residue past the last busy tick — or,
        where every resident was cut before it started, with no busy
        segment left at all.

        A VM starting at least ``saturating_gap`` ticks later probes and
        prices here exactly as on a pristine twin: the candidate index
        queues such *dormant* servers with the pristine ones, as one
        clone class per type (``tests/test_placement_properties.py::
        TestAnIdleServerIsAClone`` and ``TestAnIdleServerScoresLikeAClone``
        hold the claim), which min-energy admits and prices by type.
        """
        tail = self._occ.tail()
        if not self._busy_ends:
            return None if tail is None else tail - 1
        end = self._busy_ends[-1]
        return end if tail is None or tail <= end + 1 else tail - 1

    def occupancy_points(self) -> int:
        """Number of change points the index tracks now."""
        return len(self._occ)

    def busy_segments(self) -> list[TimeInterval]:
        return [TimeInterval(s, e)
                for s, e in zip(self._busy_starts, self._busy_ends)]

    def timeline(self) -> ServerTimeline:
        busy = self.busy_segments()
        idle = [TimeInterval(a.end + 1, b.start - 1)
                for a, b in zip(busy, busy[1:])]
        return ServerTimeline(busy=tuple(busy), idle=tuple(idle))

    def __repr__(self) -> str:
        return (f"ServerState({self.server}, vms={len(self.vms)}, "
                f"cost={self.cost:.1f})")


def _gap_cost(spec, prev_end: int | None, next_start: int | None,
              policy: SleepPolicy) -> float:
    """Eq.-16 cost of the idle gap between a segment ending at
    ``prev_end`` and one starting at ``next_start``; 0.0 when either
    side is open or the segments touch."""
    if prev_end is None or next_start is None \
            or next_start - prev_end <= 1:
        return 0.0
    return _gap_length_cost(spec, next_start - prev_end - 1, policy)
