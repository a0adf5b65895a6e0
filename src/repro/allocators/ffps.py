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

__all__ = ["FirstFitPowerSaving"]


class FirstFitPowerSaving(Allocator):
    """The paper's FFPS baseline: first fit over randomly ordered servers."""

    name = "ffps"

    def on_prepare(self, states: Sequence[ServerState]) -> None:
        #: state -> its place in this run's one shuffled scan order
        self._rank = {
            id(states[pos]): i for i, pos in
            enumerate(self._rng.permutation(len(states)).tolist())}

    def scan_key(self, state: ServerState) -> float:
        """Position in the shuffled scan order."""
        return self._rank[id(state)]
