"""Worst fit: loosest residual capacity during the VM's interval.

The load-balancing mirror of best fit — each VM goes to the feasible server
with the *most* normalized spare capacity left at the interval's peak. It
spreads load across many servers, which is typically the worst strategy for
energy (many half-idle active servers), so it anchors the high end of the
algorithm comparison.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.allocators.base import Allocator
from repro.allocators.best_fit import residual
from repro.model.vm import VM

if TYPE_CHECKING:
    import numpy as np

    from repro.placement.kernels import FeasibilityBatch

__all__ = ["WorstFit"]


class WorstFit(Allocator):
    """Pick the feasible server with the most remaining capacity."""

    name = "worst-fit"

    def score(self, vm: VM, batch: FeasibilityBatch) -> np.ndarray:
        """The negated residual: lower = more spare."""
        return -residual(vm, batch)
