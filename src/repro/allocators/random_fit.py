"""Random fit: a uniformly random feasible server per VM.

The weakest sensible baseline — it satisfies the constraints but exercises
no preference at all, giving a floor against which even FFPS's implicit
consolidation (reusing early servers in its fixed order) is visible.
"""

from __future__ import annotations

from typing import Sequence

from repro.allocators.base import Allocator
from repro.allocators.state import ServerState
from repro.model.vm import VM

__all__ = ["RandomFit"]


class RandomFit(Allocator):
    """Place each VM on a feasible server chosen uniformly at random."""

    name = "random-fit"

    def choose(self, vm: VM, feasible: Sequence[ServerState]) -> ServerState:
        index = int(self._rng.integers(len(feasible)))
        return feasible[index]
