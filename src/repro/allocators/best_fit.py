"""Best fit: tightest residual capacity during the VM's interval.

A classic bin-packing comparator adapted to the interval setting: the score
of a candidate server is the normalized spare capacity that would remain at
the *most loaded* time unit of the VM's interval after placement, summed
over CPU and memory. Best fit picks the smallest score (tightest packing),
consolidating load without looking at power parameters — a useful contrast
against the paper's energy-aware rule.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.allocators.base import Allocator
from repro.allocators.state import ServerState
from repro.model.vm import VM
from repro.placement.feasibility import Feasibility
from repro.placement.kernels import FeasibilityBatch

__all__ = ["BestFit", "residual_score"]


def _residual(spec, verdict: Feasibility, vm: VM) -> float:
    spare_cpu = (spec.cpu_capacity - verdict.peak_cpu - vm.cpu) \
        / spec.cpu_capacity
    spare_mem = (spec.memory_capacity - verdict.peak_mem - vm.memory) \
        / spec.memory_capacity
    return spare_cpu + spare_mem


def _residuals(batch: FeasibilityBatch, vm: VM) -> np.ndarray:
    """Vectorized :func:`_residual` over a probe batch.

    ``headroom = cap - peak`` in the batch, so ``(headroom - vm) / cap``
    applies the identical left-associated float64 operations the scalar
    expression does — bit-identical scores.
    """
    return (batch.headroom_cpu - vm.cpu) / batch.cpu_cap \
        + (batch.headroom_mem - vm.memory) / batch.mem_cap


def residual_score(state: ServerState, vm: VM) -> float:
    """Normalized spare (cpu + memory) left at the interval's peak load."""
    return _residual(state.server.spec, state.probe(vm), vm)


class BestFit(Allocator):
    """Pick the feasible server where the VM fits most tightly."""

    name = "best-fit"

    def candidate_score(self, vm: VM, state: ServerState) -> float | None:
        """Explain-trace score: residual spare capacity (lower = tighter)."""
        return residual_score(state, vm)

    def _select(self, vm: VM,
                states: Sequence[ServerState]) -> ServerState | None:
        return self._best_scored(vm, states, _residual, _residuals)

    def choose(self, vm: VM, feasible: Sequence[ServerState]) -> ServerState:
        return min(feasible, key=lambda st: residual_score(st, vm))
