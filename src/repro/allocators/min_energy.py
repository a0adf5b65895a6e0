"""The paper's heuristic: minimum incremental energy cost (Sec. III).

VMs are allocated in increasing order of their starting time. For each VM,
among the servers with sufficient spare CPU and memory throughout the VM's
interval, the one whose Eq.-17 energy cost would increase the *least* is
selected. The incremental cost captures all three effects the paper argues
for: energy-efficient servers are preferred (small ``W_ij``), consolidation
onto already-busy small servers is preferred (no new idle power), and when
a wake-up is unavoidable, servers with low transition cost win.

Ties are broken by server id, making the algorithm fully deterministic.

Read literally that is collect-then-:meth:`~MinIncrementalEnergy.choose`,
the route foreign fleets take and the oracle the tests compare against.
On a fleet the candidate index covers the selection is one walk over
the candidate index's per-type queues in fleet order, which provably
cannot change the answer, only skip losers:

* the run cost ``W_ij = P^1_i * cpu_time`` depends only on the server
  *type*, so it is computed once per type (unchecked: ``groups_for``
  applied the static fit), not once per server;
* under the OPTIMAL and NEVER_SLEEP policies the non-run delta is
  non-negative (busying an interval never lowers idle/gap energy), so
  ``W_ij`` lower-bounds the incremental cost and a type whose run cost
  already matches-or-exceeds the incumbent (within the 1e-12 tie-break
  band) is dropped, queues and all, without probing. ALWAYS_SLEEP lacks
  the bound (filling a gap can remove a forced wake-up) and is never
  pruned;
* a type's *clone class* — its pristine servers (no busy history) and
  its *dormant* ones, quiet since at least ``saturating_gap`` ticks
  before the VM starts, so that their last gap already costs the full
  wake-up ``alpha`` (Eq. 16) — is as good as a server that never ran
  (``TestAnIdleServerIsAClone``): it fits iff its type's static fit
  does, which the index has applied (``TestAFreshBookAdmitsByItsType``),
  at ``W_ij + P_idle * |I_j| + alpha``
  (:func:`~repro.energy.cost.wake_delta`). So the walk asks none of
  them: it prices the first in fleet order by that closed form and
  counts the rest as asked and admitted, up to where an incumbent drops
  the type. Only busy servers are probed or refuse. With placement
  constraints, which are per server, each dormant server is asked as a
  busy one.

On a dense stream the cheap types' busy servers are mostly full and
refuse the VM one by one before the bound can prune, mostly where they
refused the last VM: a walk refused ``_BATCH_AFTER`` times drops from
what is left of its busy queues every server known to refuse the VM and
asks the rest one at a time, so the walk never builds a batch. What is
known lives in each type's *refusal table* (``SpecGroup.refusals``): per
busy server a fact ``(lo, hi, cpu, mem)``, a segment of its skyline and
the charge it holds there at radius 0, sorted by the cpu charge. The
table is derived from the books' remembered refusals
(``SkylineOccupancy.refusal``): the prefetch records one when it asks a
server it holds no fact for and the skyline refuses
(``SkylineOccupancy.refuses``), and the index forgets it on the book's
next mutation notify, so every fact held is true of its book. The facts
the VM's interval misses are evicted first; of the rest, those whose cpu
charge plus the VM's smallest piece passes capacity are a suffix of the
table, dropped without touching a server, and the others are held to
the search's comparison on the fact. Dropping a server on a true fact
gives the walk's own answer, and keeping one is always safe — the walk
asks it — so the table need be sound, not complete.
"""

from __future__ import annotations

import bisect
import heapq
import math
from typing import Sequence

from repro.allocators.base import Allocator
from repro.allocators.state import ServerState
from repro.energy.cost import SleepPolicy, wake_delta
from repro.model.phases import demand_profile
from repro.model.vm import VM
from repro.placement.feasibility import TOL

__all__ = ["MinIncrementalEnergy"]

#: Tie-break band: an incumbent is only displaced by a strictly better
#: candidate, "better" meaning an improvement beyond this tolerance.
_TIE_TOL = 1e-12

#: Refusals after which the walk prefetches what is left of it. At 5000
#: dense VMs / 3000 servers 4 / 8 / 16 are within noise (24 / 28 / 35
#: ``admits`` a VM), 32 ~10 % slower, never prefetching 2-3x (230); 8 is
#: ~5-9 % ahead at 600 / 120 and 2000 / 300. 16 never fires on sparse 10k.
_BATCH_AFTER = 16

#: Queue kinds of the walk: a type's busy servers, and its idle ones —
#: the clone class's first member, or under constraints its pristine
#: servers in fleet order.
_BUSY, _IDLE = range(2)


class MinIncrementalEnergy(Allocator):
    """Greedy allocation by least incremental Eq.-17 energy cost."""

    name = "min-energy"

    def candidate_score(self, vm: VM, state: ServerState,
                        cost: float | None = None) -> float | None:
        """Explain-trace score: the incremental Eq.-17 cost itself."""
        return state.incremental_cost(vm) if cost is None else cost

    def _select(self, vm: VM,
                states: Sequence[ServerState]) -> ServerState | None:
        """The walk over the index's per-type candidate queues; on a
        fleet the index does not cover, collect-then-:meth:`choose`. Both
        leave the winner's delta in ``chosen_cost``, for the commit to book.

        A k-way merge walks the admissible types' warm queues and their
        clone classes in ascending fleet position — the order a scan of
        the whole fleet visits them in — and applies the module
        docstring's skips to whole queues: a type whose run cost reaches
        the incumbent's delta is dropped queue and all the moment it
        surfaces (the bound is monotone, so it can never re-qualify).

        A busy server is asked through :meth:`_examine` one
        winner-candidate at a time; at the ``_BATCH_AFTER``-th refusal
        :meth:`_prefetch` drops from the busy queues the servers known
        to refuse the VM. An idle entry is admitted by
        its type and priced by :func:`~repro.energy.cost.wake_delta`;
        only constraints can refuse it. The counters stay those of the
        walk that asks every server one position at a time: it would
        have asked a dropped server, or a clone class, until an
        incumbent's delta dropped the type — that is up to that
        incumbent's position, else all of it (:meth:`_count_clones`).
        """
        index = self._index
        if index is None or not index.covers(states):
            return super()._select(vm, states)
        prune = self._policy in (SleepPolicy.OPTIMAL,
                                 SleepPolicy.NEVER_SLEEP)
        interval, cpu_time = vm.interval, vm.cpu_time
        constraints, placed = self._constraints, self._placed_ids
        best: ServerState | None = None
        best_delta = math.inf
        # Heap of queue cursors: (fleet position, queue kind, cursor,
        # group, queue). Positions are unique across all queues, so
        # entries never tie and nothing past the position is compared.
        heap: list = []
        runs: dict[int, float] = {}
        refused = 0
        #: type -> what a prefetch filtered and kept (``_dropped``)
        frontier: dict = {}
        #: the types whose clone class was admitted
        cloned: list = []
        for group in index.groups_for(vm):
            runs[id(group)] = group.spec.power_per_cpu_unit * cpu_time
            warm, dormant, pristine = group.warm, group.dormant, group.pristine
            if warm:
                heap.append((warm[0], _BUSY, 0, group, warm))
            if constraints is None:
                # The clone class: its first member is its queue.
                rep = group.representative()
                if rep is not None:
                    heap.append((rep, _IDLE, 0, group, (rep,)))
                continue
            if dormant:
                heap.append((dormant[0], _BUSY, 0, group, dormant))
            if pristine:
                heap.append((pristine[0], _IDLE, 0, group, pristine))
        heapq.heapify(heap)
        while heap:
            pos, kind, cursor, group, queue = heapq.heappop(heap)
            run = runs[id(group)]
            if prune and run >= best_delta - _TIE_TOL:
                continue  # drop this queue; the type's other ones follow
            state = states[pos]
            if kind == _BUSY:
                fits = self._examine(vm, state)
            else:  # fits by type (groups_for)
                fits = constraints is None or constraints.allows(
                    vm.vm_id, state.server.server_id, placed)
                self.candidates_evaluated += 1
                if fits:
                    self.candidates_feasible += 1
            # a busy queue goes on past every server, an idle one only
            # past a refused one: the rest are its clones
            if (kind != _IDLE or not fits) and cursor + 1 < len(queue):
                heapq.heappush(heap, (queue[cursor + 1], kind, cursor + 1,
                                      group, queue))
            if not fits:
                refused += 1
                if refused == _BATCH_AFTER:
                    frontier = self._prefetch(
                        vm, states, heap, runs,
                        best_delta - _TIE_TOL if prune else math.inf)
                continue
            if kind == _BUSY:
                delta = run + state.idle_delta(interval)
            else:
                delta = run + wake_delta(group.spec, interval.length)
                if constraints is None:
                    cloned.append(group)
            if delta < best_delta - _TIE_TOL:
                best = state
                best_delta = delta
                if prune:  # types this incumbent drops were asked to here
                    for dropped in [g for g in frontier
                                    if runs[id(g)] >= delta - _TIE_TOL]:
                        self.candidates_evaluated += _dropped(
                            *frontier.pop(dropped), pos)
                    for dropped in [g for g in cloned
                                    if runs[id(g)] >= delta - _TIE_TOL]:
                        cloned.remove(dropped)
                        self._count_clones(dropped, pos)
        for entry in frontier.values():
            self.candidates_evaluated += _dropped(*entry)
        for group in cloned:
            self._count_clones(group)
        self.chosen_cost = None if best is None else best_delta
        return best

    def _count_clones(self, group, upto: int | None = None) -> None:
        """Count the clones behind an admitted clone class's first
        member that the one-at-a-time walk would have asked up to
        position ``upto`` (all, when ``None``), each admitted: the
        type's dormant servers and its first pristine one (that walk
        never asks past an admitted pristine server)."""
        dormant, pristine = group.dormant, group.pristine
        if upto is None:
            asked = len(dormant) + (1 if pristine else 0)
        else:
            asked = bisect.bisect_right(dormant, upto) \
                + (1 if pristine and pristine[0] <= upto else 0)
        self.candidates_evaluated += asked - 1  # less the first
        self.candidates_feasible += asked - 1

    def _prefetch(self, vm: VM, states: Sequence[ServerState], heap: list,
                  runs: dict[int, float], bound: float) -> dict:
        """Drop from what is left of the walk's busy queues every server
        known to refuse ``vm``: by the fact its type's refusal table
        holds for it, or, holding none, by the refusal its skyline
        remembers (``refuses``: what asking it would answer).

        Each type's busy positions from the cursors on (warm, and
        dormant under constraints) are filtered unless its run cost has
        reached ``bound``. The table first forgets the facts ``vm``'s
        interval misses, so every fact left overlaps a piece of it, and
        a charge that overloads the smallest piece overloads that one:
        the facts whose cpu charge does are a suffix of the table,
        dropped unasked, and those whose memory charge does are dropped
        next. For a one-piece VM without radii nothing else is left of
        the comparison, so the rest of the facts are kept; otherwise
        (another piece may be larger, a radius may raise a Γ book's
        charge) their skylines are asked. So is every server with no
        fact, and a skyline that refuses it is recorded.
        The kept positions are the type's busy queue in ``heap``, the
        busy cursors of dropped types go, the idle ones stay. Returns
        type -> ``(parts, kept)``, the ``(queue, cursor)`` pairs filtered
        and the positions kept: the dropped ones are the rest
        (:func:`_dropped`).
        """
        queues: dict = {}
        for _, kind, cursor, group, queue in heap:
            if kind == _BUSY and runs[id(group)] < bound:
                queues.setdefault(group, []).append((queue, cursor))
        heap[:] = [entry for entry in heap if entry[1] != _BUSY]
        pieces = [(piece.start, piece.end, cpu, mem, vm.cpu_radius,
                   vm.mem_radius) for piece, cpu, mem in demand_profile(vm)]
        least_cpu = min(piece[2] for piece in pieces)
        least_mem = min(piece[3] for piece in pieces)
        # a fact below the suffix settles a one-piece VM without radii:
        # what is left of the rule is the memory comparison
        settled = len(pieces) == 1 and not (vm.cpu_radius or vm.mem_radius)
        frontier: dict = {}
        for group, parts in queues.items():
            spec = group.spec
            cpu_limit = spec.cpu_capacity + TOL
            mem_limit = spec.memory_capacity + TOL
            table = group.refusals
            table.evict_outside(vm.start, vm.end)
            facts = table.facts
            rest: set[int] = set()
            for queue, cursor in parts:
                rest.update(queue[cursor:])
            rest.difference_update(table.refusing(least_cpu, cpu_limit))
            kept: list[int] = []
            for pos in sorted(rest):
                fact = facts.get(pos)
                if fact is not None:
                    if fact[3] + least_mem > mem_limit:
                        continue
                    if settled:
                        kept.append(pos)
                        continue
                occ = states[pos]._occ
                if not occ.refuses(pieces, cpu_limit, mem_limit):
                    kept.append(pos)
                elif fact is None:
                    table.record(pos, occ.refusal())
            if kept:
                heap.append((kept[0], _BUSY, 0, group, kept))
            if _dropped(parts, kept):
                frontier[group] = (parts, kept)
        heapq.heapify(heap)
        return frontier

    def choose(self, vm: VM, feasible: Sequence[ServerState]) -> ServerState:
        best = feasible[0]
        best_delta = best.incremental_cost(vm)
        for state in feasible[1:]:
            delta = state.incremental_cost(vm)
            if delta < best_delta - _TIE_TOL:
                best = state
                best_delta = delta
        self.chosen_cost = best_delta
        return best


def _dropped(parts: list[tuple[list[int], int]], kept: list[int],
             upto: int | None = None) -> int:
    """How many positions a prefetch that filtered ``parts`` (``(queue,
    cursor)`` pairs) and kept ``kept`` dropped — up to position ``upto``,
    or all of them when ``None``."""
    if upto is None:
        return sum(len(queue) - cursor for queue, cursor in parts) \
            - len(kept)
    return sum(max(bisect.bisect_right(queue, upto), cursor) - cursor
               for queue, cursor in parts) - bisect.bisect_right(kept, upto)
