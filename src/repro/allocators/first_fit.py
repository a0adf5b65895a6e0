"""Deterministic first fit (ablation of FFPS without the random shuffle).

Identical to FFPS except that servers are scanned in fleet id order. Useful
to separate how much of FFPS's behaviour comes from the random ordering
versus the first-fit rule itself.
"""

from __future__ import annotations

from typing import Sequence

from repro.allocators.base import Allocator
from repro.allocators.state import ServerState
from repro.model.vm import VM

__all__ = ["FirstFit"]


class FirstFit(Allocator):
    """First fit over servers in id order."""

    name = "first-fit"

    def candidate_score(self, vm: VM, state: ServerState) -> float | None:
        """Explain-trace score: the scan position (fleet id order)."""
        return float(state.server.server_id)

    def _select(self, vm: VM,
                states: Sequence[ServerState]) -> ServerState | None:
        pos = self._first_admissible(vm, states)
        return None if pos is None else states[pos]

    def choose(self, vm: VM, feasible: Sequence[ServerState]) -> ServerState:
        return feasible[0]
