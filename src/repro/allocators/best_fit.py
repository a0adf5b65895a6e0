"""Best fit: tightest residual capacity during the VM's interval.

A classic bin-packing comparator adapted to the interval setting: the score
of a candidate server is the normalized spare capacity that would remain at
the *most loaded* time unit of the VM's interval after placement, summed
over CPU and memory. Best fit picks the smallest score (tightest packing),
consolidating load without looking at power parameters — a useful contrast
against the paper's energy-aware rule.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.allocators.base import Allocator
from repro.model.vm import VM

if TYPE_CHECKING:
    import numpy as np

    from repro.placement.kernels import FeasibilityBatch

__all__ = ["BestFit", "residual"]


def residual(vm: VM, batch: FeasibilityBatch) -> np.ndarray:
    """Normalized spare (cpu + memory) each candidate would keep at the
    interval's peak load: ``headroom = cap - peak``, so this is
    ``(cap - peak - vm) / cap`` summed over the two resources."""
    return (batch.headroom_cpu - vm.cpu) / batch.cpu_cap \
        + (batch.headroom_mem - vm.memory) / batch.mem_cap


class BestFit(Allocator):
    """Pick the feasible server where the VM fits most tightly."""

    name = "best-fit"

    def score(self, vm: VM, batch: FeasibilityBatch) -> np.ndarray:
        """The residual: lower = tighter."""
        return residual(vm, batch)
