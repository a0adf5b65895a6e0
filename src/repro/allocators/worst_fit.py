"""Worst fit: loosest residual capacity during the VM's interval.

The load-balancing mirror of best fit — each VM goes to the feasible server
with the *most* normalized spare capacity left at the interval's peak. It
spreads load across many servers, which is typically the worst strategy for
energy (many half-idle active servers), so it anchors the high end of the
algorithm comparison.
"""

from __future__ import annotations

from typing import Sequence

from repro.allocators.base import Allocator
from repro.allocators.best_fit import _residual, _residuals, residual_score
from repro.allocators.state import ServerState
from repro.model.vm import VM

__all__ = ["WorstFit"]


class WorstFit(Allocator):
    """Pick the feasible server with the most remaining capacity."""

    name = "worst-fit"

    def candidate_score(self, vm: VM, state: ServerState) -> float | None:
        """Explain-trace score: negated residual (lower = more spare)."""
        return -residual_score(state, vm)

    def _select(self, vm: VM,
                states: Sequence[ServerState]) -> ServerState | None:
        # Lower wins in the base walk, so rank by the negated residual.
        return self._best_scored(
            vm, states,
            lambda spec, verdict, vm: -_residual(spec, verdict, vm),
            lambda batch, vm: -_residuals(batch, vm))

    def choose(self, vm: VM, feasible: Sequence[ServerState]) -> ServerState:
        return max(feasible, key=lambda st: residual_score(st, vm))
