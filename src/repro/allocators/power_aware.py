"""Static energy-efficiency ordering (ablation of the paper's heuristic).

Scans servers in ascending watts-per-compute-unit at peak load and places
each VM on the first feasible one. This captures *only* the "prefer
efficient servers" effect of the paper's rule — no incremental Eq.-17
evaluation, so it cannot weigh consolidation against wake-up costs. The gap
between this allocator and :class:`MinIncrementalEnergy` measures the value
of the incremental-cost computation itself (DESIGN.md ablation 1).
"""

from __future__ import annotations

from repro.allocators.base import Allocator
from repro.allocators.state import ServerState

__all__ = ["PowerAwareFirstFit"]


class PowerAwareFirstFit(Allocator):
    """First fit over servers sorted by peak watts per compute unit."""

    name = "power-aware"

    def scan_key(self, state: ServerState) -> float:
        """Peak watts per compute unit (equally efficient servers in
        id order)."""
        return state.server.p_peak / state.server.cpu_capacity
