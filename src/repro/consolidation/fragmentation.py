"""Fragmentation: how far the live fleet sits from a packed lower bound.

The paper's objective keeps few servers busy, but a long-running
daemon fragments as VMs retire: the *active* server count stays high
while the resident demand would fit on far fewer machines. The monitor
reads the live machine book (power states and resident demand) off a
:class:`~repro.service.state.ClusterStateStore` and compares the
active count against a packed lower bound — the minimum number of
servers the current resident CPU and memory demand could possibly
occupy, given the largest per-server capacities in the cluster. The
gap, normalised to ``[0, 1)``, is the fragmentation score the daemon's
``--frag-threshold`` trigger fires on.

The bound is deliberately optimistic (it ignores item sizes, like the
classic bin-packing volume bound), so ``fragmentation`` over-estimates
what consolidation can recover; the planner's per-move energy gate is
what keeps actual episodes honest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.service.state import ClusterStateStore

__all__ = ["FragmentationMonitor", "FragmentationReading"]


@dataclass(frozen=True)
class FragmentationReading:
    """One fragmentation sample of the live fleet.

    ``active_servers`` counts machines currently powered on;
    ``packed_lower_bound`` is the fewest servers the resident demand
    could occupy under the cluster's largest capacities.
    """

    time: int
    active_servers: int
    packed_lower_bound: int
    resident_cpu: float
    resident_mem: float

    @property
    def fragmentation(self) -> float:
        """Fraction of active servers a perfect re-pack could free.

        ``0.0`` when the fleet is idle or already packed; approaches
        ``1.0`` as active servers idle far above the demand bound.
        """
        if self.active_servers == 0:
            return 0.0
        spare = 1.0 - self.packed_lower_bound / self.active_servers
        return max(0.0, spare)


class FragmentationMonitor:
    """Samples a :class:`FragmentationReading` from a live store."""

    def __init__(self) -> None:
        # Largest per-server capacities, cached per cluster identity —
        # the cluster is immutable, so one scan amortises over every
        # reading the monitor ever takes from it.
        self._caps_for: tuple[int, float, float] | None = None

    def _max_capacities(self, store: "ClusterStateStore"
                        ) -> tuple[float, float]:
        cached = self._caps_for
        if cached is not None and cached[0] == id(store.cluster):
            return cached[1], cached[2]
        max_cpu = max((server.cpu_capacity
                       for server in store.cluster), default=0.0)
        max_mem = max((server.memory_capacity
                       for server in store.cluster), default=0.0)
        self._caps_for = (id(store.cluster), max_cpu, max_mem)
        return max_cpu, max_mem

    def reading(self, store: "ClusterStateStore") -> FragmentationReading:
        resident_cpu = store.fleet.resident_cpu
        resident_mem = store.fleet.resident_mem
        max_cpu, max_mem = self._max_capacities(store)
        bound = 0
        if resident_cpu > 0 and max_cpu > 0:
            bound = max(bound, math.ceil(resident_cpu / max_cpu - 1e-9))
        if resident_mem > 0 and max_mem > 0:
            bound = max(bound, math.ceil(resident_mem / max_mem - 1e-9))
        return FragmentationReading(
            time=store.clock, active_servers=store.fleet.active,
            packed_lower_bound=bound, resident_cpu=resident_cpu,
            resident_mem=resident_mem)
