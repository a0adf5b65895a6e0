"""Static energy-efficiency ordering (ablation of the paper's heuristic).

Scans servers in ascending watts-per-compute-unit at peak load and places
each VM on the first feasible one. This captures *only* the "prefer
efficient servers" effect of the paper's rule — no incremental Eq.-17
evaluation, so it cannot weigh consolidation against wake-up costs. The gap
between this allocator and :class:`MinIncrementalEnergy` measures the value
of the incremental-cost computation itself (DESIGN.md ablation 1).
"""

from __future__ import annotations

from typing import Sequence

from repro.allocators.base import Allocator
from repro.allocators.state import ServerState
from repro.model.vm import VM

__all__ = ["PowerAwareFirstFit"]


def _efficiency(state: ServerState) -> tuple[float, int]:
    """Scan key: peak watts per compute unit, ties by server id."""
    server = state.server
    return server.p_peak / server.cpu_capacity, server.server_id


class PowerAwareFirstFit(Allocator):
    """First fit over servers sorted by peak watts per compute unit."""

    name = "power-aware"

    def on_prepare(self, states: Sequence[ServerState]) -> None:
        #: the efficiency-sorted scan order, as fleet positions
        self._order = sorted(range(len(states)),
                             key=lambda i: _efficiency(states[i]))

    def candidate_score(self, vm: VM, state: ServerState) -> float | None:
        """Explain-trace score: peak watts per compute unit."""
        return _efficiency(state)[0]

    def _select(self, vm: VM,
                states: Sequence[ServerState]) -> ServerState | None:
        pos = self._first_admissible(vm, states, self._order)
        return None if pos is None else states[pos]

    def choose(self, vm: VM, feasible: Sequence[ServerState]) -> ServerState:
        return min(feasible, key=_efficiency)
