"""Fleet-level candidate index: skip servers that cannot possibly win.

Fleets are built from a handful of server *types* (Table II has six), so a
per-type admission check answers "can this VM ever run on that server?"
once per type instead of once per server. :class:`CandidateIndex` groups a
``prepare``-time fleet by spec identity and lets allocators

* fetch the statically-admissible candidate list in fleet order
  (:meth:`candidates`) — order-preserving, so first-fit semantics and
  deterministic tie-breaking are untouched;
* look up per-spec admission (:meth:`spec_admits`) for allocators with
  their own scan order (ffps, round-robin, power-aware);
* walk, per admissible type, the position queues of its *warm*,
  *dormant* and *pristine* servers (:meth:`groups_for`) — sorted by
  fleet position and updated in place on every commit / retire / cut
  through the ``ServerState`` watcher protocol. A type's Eq.-2/3 run
  cost lower-bounds every candidate in its queues, so a scan drops them
  whole. Pristine servers (never hosted anything) of one spec are
  interchangeable, and so is a server idle for at least the type's
  ``saturating_gap`` before the VM starts (*dormant* for it): together
  they are the type's *clone class*, which best-fit and worst-fit score
  and min-energy prices by type, at its first member's position
  (:meth:`SpecGroup.representative`), without probing any of hundreds
  of identical idle machines;
* keep, per type, a :class:`RefusalTable` of what its busy servers'
  skylines were last seen refusing, which min-energy's prefetch reads
  and the watcher hook prunes on every change to a book.

Static admission charges what the probes charge
(:func:`~repro.placement.feasibility.static_demand`: the VM's radii too
on a Γ-robust fleet), so a type the probe would refuse on capacity alone
is never walked.

The index builds the :class:`~repro.placement.kernels.FleetKernel`
that batch-probes candidates, and the position arrays
:meth:`candidate_positions` hands it, on the first read of
:attr:`CandidateIndex.kernel` — the first batch long enough to be worth
it (``Allocator._probe_batch``). Until then no kernel watches the books
and numpy is not imported. A kernel starts with every row dirty, so one
built late syncs at its first probe what one built here would, and
answers and counts alike.

The index is bound to the exact ``states`` list it was built from
(:meth:`covers` is an identity check); callers fall back to a plain scan
for any other fleet, so ad-hoc uses (failure recovery builds throwaway
state lists) stay correct without rebuilding.
"""

from __future__ import annotations

import bisect
import heapq
import math
from typing import TYPE_CHECKING, Sequence

from repro.energy.cost import saturating_gap
from repro.placement.feasibility import static_demand

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    import numpy as np

    from repro.allocators.state import ServerState
    from repro.model.vm import VM
    from repro.placement.kernels import FleetKernel

__all__ = ["CandidateIndex", "RefusalTable", "SpecGroup"]


class RefusalTable:
    """What one type's busy servers were last seen refusing: per fleet
    position a *fact* ``(lo, hi, cpu, mem)`` — a segment ``[lo, hi)`` of
    that server's skyline and the charge it holds at radius 0
    (``SkylineOccupancy.refusal``) — kept sorted by the cpu charge.

    A fact is recorded off a book's remembered refusal, which only a
    search of the current rows sets, and forgotten on the book's next
    mutation notify (:meth:`CandidateIndex.server_state_changed`), so
    every fact held is true of its book. The table need not be
    complete: a position with no fact is asked.

    Two heaps, ``(hi, pos)`` and ``(-lo, pos)``, find the facts a VM's
    interval misses (:meth:`evict_outside`); an entry whose fact was
    forgotten or replaced goes stale, and both heaps are rebuilt from
    the facts before they hold twice as many entries.
    """

    __slots__ = ("facts", "_keys", "_positions", "_his", "_los")

    def __init__(self) -> None:
        #: position -> its fact
        self.facts: dict[int, tuple] = {}
        #: the facts' cpu charges, ascending, and their positions
        self._keys: list[float] = []
        self._positions: list[int] = []
        self._his: list[tuple] = []
        self._los: list[tuple] = []

    def record(self, pos: int, fact: tuple) -> None:
        """Hold ``fact`` (true of ``pos``'s book now) for ``pos``."""
        old = self.facts.get(pos)
        if fact == old:
            return
        if old is not None:
            self._unsort(pos, old)
        self.facts[pos] = fact
        lo, hi, cpu, _ = fact
        i = bisect.bisect_right(self._keys, cpu)
        self._keys.insert(i, cpu)
        self._positions.insert(i, pos)
        heapq.heappush(self._his, (hi, pos))
        heapq.heappush(self._los, (-lo, pos))
        self._compact()

    def forget(self, pos: int) -> None:
        """Drop ``pos``'s fact: its book changed."""
        fact = self.facts.pop(pos, None)
        if fact is not None:
            self._unsort(pos, fact)
            self._compact()

    def _unsort(self, pos: int, fact: tuple) -> None:
        i = self._positions.index(pos, bisect.bisect_left(self._keys,
                                                          fact[2]))
        del self._keys[i], self._positions[i]

    def _compact(self) -> None:
        """Rebuild both heaps once stale entries outnumber the facts;
        every change to the facts ends here."""
        bound = 2 * len(self.facts) + 1
        if len(self._his) > bound or len(self._los) > bound:
            self._his = [(fact[1], pos) for pos, fact in self.facts.items()]
            self._los = [(-fact[0], pos) for pos, fact in self.facts.items()]
            heapq.heapify(self._his)
            heapq.heapify(self._los)

    def evict_outside(self, start: int, end: int) -> None:
        """Forget every fact whose segment misses ``[start, end]``
        (``hi <= start`` or ``lo > end``): what is left overlaps it."""
        facts = self.facts
        # ticks are integers: -lo <= -end - 1 is lo > end
        for heap, bound in ((self._his, start), (self._los, -end - 1)):
            while heap and heap[0][0] <= bound:
                pos = heapq.heappop(heap)[1]
                fact = facts.get(pos)
                if fact is not None and (fact[1] <= start or fact[0] > end):
                    del facts[pos]
                    self._unsort(pos, fact)
        self._compact()

    def refusing(self, cpu: float, cpu_limit: float) -> list[int]:
        """The positions whose fact's cpu charge plus ``cpu`` passes
        ``cpu_limit``, by the search's own comparison — a suffix of the
        charges, since a float sum rises with either addend: a bisect
        near ``cpu_limit - cpu``, stepped to the edge of that suffix."""
        keys = self._keys
        i = bisect.bisect_right(keys, cpu_limit - cpu)
        while i and keys[i - 1] + cpu > cpu_limit:
            i = bisect.bisect_left(keys, keys[i - 1])
        while i < len(keys) and not keys[i] + cpu > cpu_limit:
            i = bisect.bisect_right(keys, keys[i])
        return self._positions[i:]


class SpecGroup:
    """One server type's candidate queues, in fleet-position order.

    ``warm``, ``dormant`` and ``pristine`` partition the type's fleet
    positions by the last tick each server is busy or holds demand
    (``ServerState.quiet_after``; ``None`` = pristine), cut at
    :attr:`horizon`: a dormant server has been quiet since at or before
    it. :meth:`settle` moves the cut for a VM (to its ``start - 1 -
    gap`` where that changes who is dormant), after which ``dormant``
    holds exactly the servers that probe and price that VM like a
    pristine one. Warm servers must each be probed; the run cost of a
    VM on ``spec`` lower-bounds its incremental cost on any of them, so
    the min-energy walk prunes whole queues with it.

    Finding the servers that went quiet reads a heap of ``(quiet,
    position)`` over the warm ones (built by the first :meth:`settle`),
    so a type whose earliest warm server is still busy at the cut costs
    one comparison per VM. A commit that moves a warm server's last
    tick pushes a fresh entry and leaves the old one stale, as does a
    server leaving ``warm``; the heap is rebuilt from ``warm`` before it
    holds twice as many entries as that.
    """

    __slots__ = ("spec", "gap", "warm", "dormant", "pristine", "horizon",
                 "refusals", "_ends", "_quiet")

    def __init__(self, spec: object, gap: int | None,
                 quiet: list[int | None]) -> None:
        self.spec = spec
        #: the type's ``saturating_gap`` (``None``: nothing goes dormant)
        self.gap = gap
        self.warm: list[int] = []
        self.dormant: list[int] = []
        self.pristine: list[int] = []
        #: what the busy servers were last seen refusing (min-energy's
        #: prefetch records and reads it)
        self.refusals = RefusalTable()
        #: the tick ``dormant`` is cut at
        self.horizon: float = -math.inf
        #: the warm heap; built by the first :meth:`settle` — only the
        #: min-energy walk cuts the queues, and nothing else pays for it
        self._ends: list[tuple[int, int]] | None = None
        #: the index's position -> quiet tick list, shared
        self._quiet = quiet

    @property
    def busy(self) -> list[int]:
        """Every position that has hosted something, warm or dormant."""
        return list(heapq.merge(self.warm, self.dormant))

    def representative(self) -> int | None:
        """The clone class's first member in fleet order — the one of
        ``dormant`` and ``pristine`` a scan rates for all of them — or
        ``None`` when the type has no clone."""
        dormant, pristine = self.dormant, self.pristine
        if dormant and (not pristine or dormant[0] < pristine[0]):
            return dormant[0]
        return pristine[0] if pristine else None

    def fits(self, cpu: float, mem: float) -> bool:
        """Whether static demand ``(cpu, mem)`` fits the type at all."""
        spec = self.spec
        return not (cpu > spec.cpu_capacity or mem > spec.memory_capacity)

    def _queue(self, quiet: int | None) -> list[int]:
        if quiet is None:
            return self.pristine
        return self.dormant if quiet <= self.horizon else self.warm

    def _watch(self, pos: int) -> None:
        """Put warm ``pos`` on the (built) heap at its quiet tick."""
        ends = self._ends
        heapq.heappush(ends, (self._quiet[pos], pos))
        self._compact()

    def _compact(self) -> None:
        """Rebuild the heap once stale entries outnumber the warm ones;
        every change to the heap or to ``warm`` ends here."""
        if len(self._ends) > 2 * len(self.warm) + 1:
            self._rebuild_heap()

    def _rebuild_heap(self) -> None:
        self._ends = [(self._quiet[pos], pos) for pos in self.warm]
        heapq.heapify(self._ends)

    def file(self, pos: int) -> None:
        """File a new position (the index files them in fleet order)."""
        self._queue(self._quiet[pos]).append(pos)

    def requeue(self, pos: int, old: int | None, new: int | None) -> None:
        """Re-file ``pos``, whose quiet tick went from ``old`` to ``new``."""
        source, target = self._queue(old), self._queue(new)
        if source is not target:
            del source[bisect.bisect_left(source, pos)]
            bisect.insort(target, pos)
        if self._ends is not None:
            if target is self.warm:
                self._watch(pos)
            elif source is self.warm:
                self._compact()

    def settle(self, start: int) -> None:
        """Make ``dormant`` exactly the servers quiet since ``start - 1 -
        gap`` or earlier, for a VM starting at ``start``. The cut moves
        only when it must: on to there when the heap says some warm
        server went quiet by then, back when the VM starts before the
        cut — the servers quiet in between go back to ``warm``."""
        if self.gap is None:
            return
        if self._ends is None:
            self._rebuild_heap()
        horizon = start - 1 - self.gap
        if horizon < self.horizon:
            self._rewind(horizon)
            return
        ends = self._ends
        if not ends or ends[0][0] > horizon:
            return  # no warm server is quiet by then: dormant is exact
        self.horizon = horizon
        warm, quiet = self.warm, self._quiet
        while ends and ends[0][0] <= horizon:
            end, pos = heapq.heappop(ends)
            if quiet[pos] != end:
                continue  # stale: the server's quiet tick has moved
            i = bisect.bisect_left(warm, pos)
            if i < len(warm) and warm[i] == pos:
                del warm[i]
                bisect.insort(self.dormant, pos)
        self._compact()

    def _rewind(self, horizon: int) -> None:
        """Lower the cut to ``horizon``: the dormant servers quiet after
        it are warm again."""
        quiet = self._quiet
        back = [pos for pos in self.dormant if quiet[pos] > horizon]
        if back:
            self.dormant = [pos for pos in self.dormant
                            if quiet[pos] <= horizon]
            self.warm = list(heapq.merge(self.warm, back))
            for pos in back:
                self._watch(pos)
        self.horizon = horizon


class CandidateIndex:
    """Spec-grouped view of one fleet's ``ServerState`` list."""

    __slots__ = ("_states", "_spec_ids", "_pos", "_kernel",
                 "_groups", "_quiet", "_robust", "_spec_positions",
                 "_all_positions", "__weakref__")

    def __init__(self, states: Sequence["ServerState"]) -> None:
        # Bound by identity: `covers` compares with `is`, not `==`.
        self._states = states
        self._spec_ids = [id(st.server.spec) for st in states]
        self._pos = {id(st): i for i, st in enumerate(states)}
        #: position -> the server's ``quiet_after`` as last filed
        self._quiet: list[int | None] = [None] * len(states)
        #: whether static admission charges the VM's radii too
        self._robust = bool(states) and states[0].robustness is not None
        #: distinct specs by identity, insertion-ordered
        self._groups: dict[int, SpecGroup] = {}
        for i, st in enumerate(states):
            key = self._spec_ids[i]
            group = self._groups.get(key)
            if group is None:
                group = self._groups[key] = SpecGroup(
                    st.server.spec, saturating_gap(st.server.spec, st.policy),
                    self._quiet)
            self._quiet[i] = st.quiet_after
            group.file(i)
            st.add_watcher(self)
        self._kernel: "FleetKernel | None" = None

    @property
    def kernel(self) -> "FleetKernel":
        """The batch-probe kernel, built on this first read (with the
        position arrays it is handed). Read it only to probe: the read
        imports numpy and puts a watcher on every row."""
        if self._kernel is None:
            import numpy as np

            from repro.placement.kernels import FleetKernel

            self._spec_positions = {
                key: np.fromiter(
                    (i for i, k in enumerate(self._spec_ids) if k == key),
                    dtype=np.intp)
                for key in self._groups}
            self._all_positions = np.arange(len(self._states),
                                            dtype=np.intp)
            self._kernel = FleetKernel(self._states)
        return self._kernel

    def covers(self, states: Sequence["ServerState"]) -> bool:
        """Whether this index was built from exactly this ``states`` list."""
        return states is self._states

    # -- incremental maintenance -------------------------------------------

    def server_state_changed(self, state: "ServerState") -> None:
        """Watcher hook: forget what the server was seen refusing, and
        re-file it if its quiet tick moved.

        Every ``ServerState`` mutation ends in a notify, so a fact left
        in a refusal table is true of its book. A commit past the cut
        makes a server warm (from pristine or dormant); a cut or an
        uncompacted remove can make it dormant or pristine again. The
        queues stay position-sorted via bisect, so scans keep walking
        candidates in fleet order. (The kernel registers its own
        watcher for occupancy rows; this hook only owns the queues.)
        """
        pos = self._pos.get(id(state))
        if pos is None:
            return
        group = self._groups[self._spec_ids[pos]]
        if pos in group.refusals.facts:  # most books hold none: no call
            group.refusals.forget(pos)
        quiet = state.quiet_after
        old = self._quiet[pos]
        if quiet == old:
            return
        self._quiet[pos] = quiet
        group.requeue(pos, old, quiet)

    # -- static admission ---------------------------------------------------

    def spec_admits(self, vm: "VM") -> dict[int, bool]:
        """``id(spec) -> can this server type ever host vm`` (static caps)."""
        cpu, mem = static_demand(vm, self._robust)
        return {key: group.fits(cpu, mem)
                for key, group in self._groups.items()}

    def candidates(self, vm: "VM") -> Sequence["ServerState"]:
        """Statically-admissible servers in fleet order.

        Returns the original list object unchanged when every type admits
        the VM (the common case — no copy, no allocation).
        """
        admits = self.spec_admits(vm)
        if all(admits.values()):
            return self._states
        return [st for st, key in zip(self._states, self._spec_ids)
                if admits[key]]

    def candidate_positions(self, vm: "VM") -> np.ndarray:
        """Fleet positions of the admissible candidates, in fleet order.

        Read once :attr:`kernel` is built. The all-admitted case returns
        a cached ``arange`` — no per-VM allocation.
        """
        import numpy as np

        admits = self.spec_admits(vm)
        if all(admits.values()):
            return self._all_positions
        keep = [self._spec_positions[key]
                for key, ok in admits.items() if ok]
        if not keep:
            return np.empty(0, dtype=np.intp)
        return np.sort(np.concatenate(keep))

    def groups_for(self, vm: "VM") -> list[SpecGroup]:
        """The admissible types' candidate queues, each settled for
        ``vm``: its ``dormant`` queue is that type's servers a VM
        starting then finds as good as pristine."""
        cpu, mem = static_demand(vm, self._robust)
        groups = [group for group in self._groups.values()
                  if group.fits(cpu, mem)]
        for group in groups:
            group.settle(vm.start)
        return groups
