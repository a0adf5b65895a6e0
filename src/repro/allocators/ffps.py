"""First Fit Power Saving — the paper's baseline (Sec. IV-A).

VMs are allocated in increasing order of their starting time; the servers
are put in one **random order** at the start of the run, and each VM goes to
the first server in that order with sufficient spare CPU and memory
throughout the VM's time duration. After all VMs are placed, servers sleep
through idle segments whenever the transition cost is below the idle power
cost — the same Eq.-17 accounting applied to every algorithm.
"""

from __future__ import annotations

from typing import Sequence

from repro.allocators.base import Allocator
from repro.allocators.state import ServerState
from repro.model.vm import VM

__all__ = ["FirstFitPowerSaving"]


class FirstFitPowerSaving(Allocator):
    """The paper's FFPS baseline: first fit over randomly ordered servers."""

    name = "ffps"

    def on_prepare(self, states: Sequence[ServerState]) -> None:
        #: the shuffled scan order, as fleet positions
        self._order = self._rng.permutation(len(states)).tolist()
        self._rank = {id(states[pos]): i
                      for i, pos in enumerate(self._order)}

    def candidate_score(self, vm: VM, state: ServerState) -> float | None:
        """Explain-trace score: position in the shuffled scan order."""
        return float(self._rank[id(state)])

    def _select(self, vm: VM,
                states: Sequence[ServerState]) -> ServerState | None:
        pos = self._first_admissible(vm, states, self._order)
        return None if pos is None else states[pos]

    def choose(self, vm: VM, feasible: Sequence[ServerState]) -> ServerState:
        return min(feasible, key=lambda st: self._rank[id(st)])
