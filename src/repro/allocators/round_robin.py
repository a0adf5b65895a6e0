"""Round robin: rotate through the fleet, skipping infeasible servers.

Deliberately spreads consecutive VMs across distinct servers — the
archetypal load-balancing placement that ignores energy entirely. Included
for the algorithm-comparison example and the ablation benches.
"""

from __future__ import annotations

from itertools import chain
from typing import Sequence

from repro.allocators.base import Allocator
from repro.allocators.state import ServerState
from repro.model.vm import VM

__all__ = ["RoundRobin"]


class RoundRobin(Allocator):
    """Cycle through servers, placing each VM on the next feasible one."""

    name = "round-robin"

    def on_prepare(self, states: Sequence[ServerState]) -> None:
        self._next = 0
        #: state -> fleet position: what the rotation walks (a position
        #: is not a server id once a server has failed)
        self._position = {id(state): pos for pos, state in enumerate(states)}

    def candidate_score(self, vm: VM, state: ServerState,
                        cost: float | None = None) -> float | None:
        """Explain-trace score: positions ahead of the rotation's cursor."""
        return float((self._position[id(state)] - self._next)
                     % len(self._position))

    def _select(self, vm: VM,
                states: Sequence[ServerState]) -> ServerState | None:
        n = len(states)
        first = self._next % max(1, n)
        pos = self._first_admissible(
            vm, states, chain(range(first, n), range(first)))
        if pos is None:
            return None
        # Advance past the chosen slot; statically-skipped servers keep
        # their place in the rotation, exactly as if probed.
        self._next = (pos + 1) % n
        return states[pos]

    def replayed(self, vm: VM, state: ServerState) -> None:
        """A recorded decision moves the rotation as :meth:`_select`'s
        own would: past the server it chose."""
        self._next = (self._position[id(state)] + 1) % len(self._position)

    def choose(self, vm: VM, feasible: Sequence[ServerState]) -> ServerState:
        return feasible[0]
