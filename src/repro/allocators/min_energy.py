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
the route ``dense`` and foreign fleets take and the oracle the tests
compare against. With the indexed engine the selection is one walk over
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
refuse the VM one by one before the bound can prune; a walk refused
``_BATCH_AFTER`` times asks the kernel a yes or no for what is left of
its busy queues in one ``FleetKernel.admits_fleet`` and carries on over
the rows that fit. ``kernel=off`` builds no kernel, so that walk probes
scalar to the end — same decisions, same counters.
"""

from __future__ import annotations

import bisect
import heapq
import math
from typing import Sequence

from repro.allocators.base import Allocator
from repro.allocators.state import ServerState
from repro.energy.cost import SleepPolicy, wake_delta
from repro.model.vm import VM

__all__ = ["MinIncrementalEnergy"]

#: Tie-break band: an incumbent is only displaced by a strictly better
#: candidate, "better" meaning an improvement beyond this tolerance.
_TIE_TOL = 1e-12

#: Refusals after which the queued walk batches what is left of it.
#: Tuned at 5000 dense VMs / 3000 servers while a refusal cost ~3.5 us
#: and one ``probe_fleet`` over the ~330 rows left ~235 us with its
#: sync: 8 / 16 / 32 within noise of each other, 1.5-2x never batching.
#: A refusal is ~1.2 us since ``ServerState.admits`` and the batch
#: (``admits_fleet`` over ~300 rows, sync included) ~110 us: 4 / 8 / 16
#: / 32 still within noise, ~2x never batching. 8 still fires on the
#: sparse 10k stream, 16 never does — refusals, unlike probes, are rare
#: there.
#: It counts refusals, not what is left: on small dense fleets the
#: prefetch still loses to walking on (kernel=on 1.4x off's time at 300
#: VMs / 18 servers, 1.0-1.2x at 600 / 120, 0.65x at 2000 / 300; see
#: ROADMAP).
_BATCH_AFTER = 16

#: Queue kinds of the walk: a type's busy servers, the busy ones a
#: prefetch found feasible, and its idle ones — the clone class's first
#: member, or under constraints its pristine servers in fleet order.
_BUSY, _PREFETCHED, _IDLE = range(3)


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
        winner-candidate at a time — until the ``_BATCH_AFTER``-th
        refusal, when :meth:`_prefetch` (given a kernel) swaps the busy
        queues for their rows that fit. An idle entry is admitted by its
        type and priced by :func:`~repro.energy.cost.wake_delta`; only
        constraints can refuse it. The counters stay those of the walk
        that asks every server one position at a time: it would have
        asked a prefetched queue, or a clone class, until an incumbent's
        delta dropped the type — that is up to that incumbent's
        position, else all of it (:meth:`_count_clones`).
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
        #: type -> the busy positions a prefetch probed for it
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
            else:  # fits by the kernel's yes, or by type (groups_for)
                fits = constraints is None or constraints.allows(
                    vm.vm_id, state.server.server_id, placed)
                if kind == _IDLE:
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
                if refused == _BATCH_AFTER and index.batched:
                    frontier = self._prefetch(
                        vm, heap, runs,
                        best_delta - _TIE_TOL if prune else math.inf)
                continue
            if kind != _IDLE:
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
                        self.candidates_evaluated += int(
                            frontier.pop(dropped).searchsorted(
                                pos, side="right"))
                    for dropped in [g for g in cloned
                                    if runs[id(g)] >= delta - _TIE_TOL]:
                        cloned.remove(dropped)
                        self._count_clones(dropped, pos)
        self.candidates_evaluated += sum(
            rows.size for rows in frontier.values())
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

    def _prefetch(self, vm: VM, heap: list, runs: dict[int, float],
                  bound: float) -> dict:
        """Ask what is left of the walk's busy queues in one
        ``admits_fleet`` and point ``heap`` at the rows that fit.

        Each type's *frontier* — its busy positions from the cursors on
        (warm, and dormant under constraints) — is probed, unless its
        run cost has reached ``bound``; its cursor restarts on the
        feasible rows (kind ``_PREFETCHED``: no second probe), the idle
        cursors stay (admitted by type), the busy cursors of dropped
        types go.
        Returns type -> frontier. The first prefetch of the allocator's
        life builds the kernel (:attr:`CandidateIndex.kernel`) and
        imports numpy.
        """
        import numpy as np

        frontier: dict = {}
        for _, kind, cursor, group, queue in heap:
            if kind == _BUSY and runs[id(group)] < bound:
                rows = np.array(queue[cursor:], dtype=np.intp)
                if group in frontier:  # its warm and its dormant queue
                    rows = np.sort(np.concatenate((frontier[group], rows)))
                frontier[group] = rows
        heap[:] = [entry for entry in heap if entry[1] != _BUSY]
        if frontier:
            fits = self._index.kernel.admits_fleet(
                vm, np.concatenate(list(frontier.values())))
            start = 0
            for group, rows in frontier.items():
                fitting = rows[fits[start:start + rows.size]].tolist()
                if fitting:
                    heap.append((fitting[0], _PREFETCHED, 0, group, fitting))
                start += rows.size
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

