"""The paper's heuristic: minimum incremental energy cost (Sec. III).

VMs are allocated in increasing order of their starting time. For each VM,
among the servers with sufficient spare CPU and memory throughout the VM's
interval, the one whose Eq.-17 energy cost would increase the *least* is
selected. The incremental cost captures all three effects the paper argues
for: energy-efficient servers are preferred (small ``W_ij``), consolidation
onto already-busy small servers is preferred (no new idle power), and when
a wake-up is unavoidable, servers with low transition cost win.

Ties are broken by server id, making the algorithm fully deterministic.

With the indexed engine the selection is a fused scan that provably cannot
change the answer, only skip losers:

* the run cost ``W_ij`` depends only on the server *type*, so it is
  computed once per type, not once per server;
* under the OPTIMAL and NEVER_SLEEP policies the non-run delta is
  non-negative (busying an interval never lowers idle/gap energy), so
  ``W_ij`` lower-bounds the incremental cost and any server whose type's
  run cost already matches-or-exceeds the incumbent (within the 1e-12
  tie-break band) is skipped without probing. ALWAYS_SLEEP lacks the
  bound (filling a gap can remove a forced wake-up) and is never pruned;
* *pristine* servers (no busy history) of one type all yield the same
  verdict and the same cost, so only the first admissible one per type is
  probed — a strictly-better candidate can never hide among its clones.

On a dense stream the cheap types' busy servers are mostly full and
refuse the VM one by one before the bound can prune; a walk refused
``_BATCH_AFTER`` times probes the rest of its busy queues in one
``FleetKernel.probe_fleet`` — a prefetch of verdicts, not another scan.
"""

from __future__ import annotations

import heapq
import math
from typing import Sequence

import numpy as np

from repro.allocators.base import Allocator
from repro.allocators.state import ServerState
from repro.energy.cost import SleepPolicy
from repro.energy.power import run_energy
from repro.model.vm import VM

__all__ = ["MinIncrementalEnergy"]

#: Tie-break band: an incumbent is only displaced by a strictly better
#: candidate, "better" meaning an improvement beyond this tolerance.
_TIE_TOL = 1e-12

#: Refusals after which the queued walk batches what is left of it.
#: Measured at 5000 dense VMs / 3000 servers: a refusal costs ~3.5 us,
#: one ``probe_fleet`` over the ~330 rows left ~235 us with its sync
#: (~1200 us probed one by one). 8 / 16 / 32 run within noise of each
#: other there (1.5-2x never batching); 8 still fires on the sparse 10k
#: stream, 16 never does — refusals, unlike probes, are rare there.
_BATCH_AFTER = 16


class MinIncrementalEnergy(Allocator):
    """Greedy allocation by least incremental Eq.-17 energy cost."""

    name = "min-energy"

    def candidate_score(self, vm: VM, state: ServerState) -> float | None:
        """Explain-trace score: the incremental Eq.-17 cost itself."""
        return state.incremental_cost(vm)

    def _select(self, vm: VM,
                states: Sequence[ServerState]) -> ServerState | None:
        index = self._index
        if index is None or not index.covers(states):
            return super()._select(vm, states)
        groups = index.groups_for(vm)
        if groups is not None:
            return self._select_queued(vm, states, groups)
        # Fused fleet-order scan (see module docstring): same winner and
        # same 1e-12 tie-breaking as probing every server, fewer probes.
        prune = self._policy in (SleepPolicy.OPTIMAL,
                                 SleepPolicy.NEVER_SLEEP)
        interval = vm.interval
        run_of: dict[int, float] = {}
        probed_pristine: set[int] = set()
        best: ServerState | None = None
        best_delta = math.inf
        for state in index.candidates(vm):
            spec = state.server.spec
            key = id(spec)
            run = run_of.get(key)
            if run is None:
                run = run_energy(spec, vm)
                run_of[key] = run
            if prune and run >= best_delta - _TIE_TOL:
                continue
            pristine = state.is_pristine
            if pristine and key in probed_pristine:
                continue
            if self._examine(vm, state) is None:
                continue
            if pristine:
                probed_pristine.add(key)
            delta = run + state.idle_delta(interval)
            if delta < best_delta - _TIE_TOL:
                best = state
                best_delta = delta
        return best

    def _select_queued(self, vm: VM, states: Sequence[ServerState],
                       groups) -> ServerState | None:
        """The fused scan over the index's per-type candidate queues.

        A k-way merge walks the admissible types' busy and pristine
        position queues in ascending fleet position — i.e. exactly the
        fleet-order walk of the fused scan, minus the candidates that
        scan would have skipped without probing. The skips never enter
        the merge at all:

        * a type whose cached run cost reaches the incumbent's delta
          (within the tie band) is dropped queue and all the moment it
          surfaces — the lower bound is monotone, so it can never
          re-qualify;
        * once a type's pristine representative has been probed
          admissible, the rest of its pristine queue is dropped in one
          step (the clones are interchangeable).

        Probes go through :meth:`_examine` one winner-candidate at a
        time — until the ``_BATCH_AFTER``-th refusal hands what is left
        to :meth:`_finish_batched` — so the evaluated/feasible counters
        equal the fused scan's to the probe, and the per-VM cost is
        proportional to the handful of probes, not to the fleet size.
        """
        prune = self._policy in (SleepPolicy.OPTIMAL,
                                 SleepPolicy.NEVER_SLEEP)
        interval = vm.interval
        best: ServerState | None = None
        best_delta = math.inf
        # Heap of queue cursors: (fleet position, queue kind, cursor,
        # group). Positions are unique across all queues, so entries
        # never tie and the group object is never compared.
        heap: list = []
        runs: dict[int, float] = {}
        probed_pristine: set[int] = set()
        refused = 0
        for group in groups:
            runs[id(group)] = run_energy(group.spec, vm)
            if group.busy:
                heap.append((group.busy[0], 0, 0, group))
            if group.pristine:
                heap.append((group.pristine[0], 1, 0, group))
        heapq.heapify(heap)
        while heap:
            pos, kind, cursor, group = heapq.heappop(heap)
            run = runs[id(group)]
            if prune and run >= best_delta - _TIE_TOL:
                # Drop this queue; the group's other queue is dropped
                # the same way when it surfaces (best_delta only ever
                # decreases, so the bound stays violated).
                continue
            if kind == 1 and id(group) in probed_pristine:
                continue  # interchangeable clones: drop the whole queue
            queue = group.busy if kind == 0 else group.pristine
            if cursor + 1 < len(queue):
                heapq.heappush(
                    heap, (queue[cursor + 1], kind, cursor + 1, group))
            state = states[pos]
            if self._examine(vm, state) is None:
                refused += 1
                if refused == _BATCH_AFTER:
                    return self._finish_batched(
                        vm, states, heap, runs, probed_pristine, prune,
                        best, best_delta)
                continue
            if kind == 1:
                probed_pristine.add(id(group))
            delta = run + state.idle_delta(interval)
            if delta < best_delta - _TIE_TOL:
                best = state
                best_delta = delta
        return best

    def _finish_batched(self, vm: VM, states: Sequence[ServerState],
                        cursors: list, runs: dict[int, float],
                        probed_pristine: set[int], prune: bool,
                        best: ServerState | None, best_delta: float
                        ) -> ServerState | None:
        """Finish a much-refused walk with one ``probe_fleet``.

        ``cursors`` is the walk's heap. Each live type's *frontier* —
        its busy positions from the cursor on — is probed in one batch,
        and the walk resumes over the feasible rows only, merged by
        position with the pristine queues (still scalar: one
        representative per type) under the same prune / clone /
        tie-break rules. The counters stay the walk's: one position at
        a time it would have probed a frontier until an incumbent's
        delta dropped the type — the bound is monotone, so that is the
        frontier up to that incumbent's position, else all of it.
        """
        constraints, placed = self._constraints, self._placed_ids
        heap = [entry for entry in cursors if entry[1] == 1]
        frontier = {
            group: np.array(group.busy[cursor:], dtype=np.intp)
            for _, kind, cursor, group in cursors if kind == 0 and not (
                prune and runs[id(group)] >= best_delta - _TIE_TOL)}
        if frontier:
            fits = self._index.kernel.probe_fleet(
                vm, np.concatenate(list(frontier.values()))).feasible
            start = 0
            for group, rows in frontier.items():
                heap += [(pos, 0, 0, group) for pos in
                         rows[fits[start:start + rows.size]].tolist()]
                start += rows.size
        heapq.heapify(heap)
        while heap:
            pos, kind, cursor, group = heapq.heappop(heap)
            run = runs[id(group)]
            if prune and run >= best_delta - _TIE_TOL:
                continue
            state = states[pos]
            if kind == 1:
                if id(group) in probed_pristine:
                    continue
                if cursor + 1 < len(group.pristine):
                    heapq.heappush(heap, (group.pristine[cursor + 1], 1,
                                          cursor + 1, group))
                if self._examine(vm, state) is None:
                    continue
                probed_pristine.add(id(group))
            elif constraints is not None and not constraints.allows(
                    vm.vm_id, state.server.server_id, placed):
                continue
            else:
                self.candidates_feasible += 1
            delta = run + state.idle_delta(vm.interval)
            if delta < best_delta - _TIE_TOL:
                best, best_delta = state, delta
                # Types this incumbent drops were probed up to here.
                for dropped in [g for g in frontier if prune
                                and runs[id(g)] >= delta - _TIE_TOL]:
                    self.candidates_evaluated += int(np.searchsorted(
                        frontier.pop(dropped), pos, side="right"))
        self.candidates_evaluated += sum(
            rows.size for rows in frontier.values())
        return best

    def choose(self, vm: VM, feasible: Sequence[ServerState]) -> ServerState:
        best = feasible[0]
        best_delta = best.incremental_cost(vm)
        for state in feasible[1:]:
            delta = state.incremental_cost(vm)
            if delta < best_delta - _TIE_TOL:
                best = state
                best_delta = delta
        return best
