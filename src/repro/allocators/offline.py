"""Offline (clairvoyant) variants of the paper's heuristic.

The paper's setting is online in arrival order: VMs are placed in
increasing start time because that is the order requests reach the data
center. An *offline* planner that knows the whole workload in advance can
process VMs in any order — and bin-packing folklore says placing the
biggest items first helps. These variants quantify the value of that
clairvoyance: they use exactly the paper's minimum-incremental-energy
selection rule, changing only the processing order.

``OfflineMinEnergy`` orders by decreasing ``cpu * duration`` (the VM's run
energy footprint, up to the per-server constant); ``LongestFirstMinEnergy``
orders by decreasing duration. Both fall back to start-time order to break
ties, keeping them deterministic.
"""

from __future__ import annotations

from repro.allocators.min_energy import MinIncrementalEnergy
from repro.model.vm import VM

__all__ = ["OfflineMinEnergy", "LongestFirstMinEnergy"]


class OfflineMinEnergy(MinIncrementalEnergy):
    """Min incremental energy, biggest CPU-time footprint first."""

    name = "min-energy-offline"

    def order_vms(self, vms: list[VM]) -> list[VM]:
        return sorted(vms, key=lambda v: (-v.cpu_time, v.start, v.vm_id))


class LongestFirstMinEnergy(MinIncrementalEnergy):
    """Min incremental energy, longest duration first."""

    name = "min-energy-longest"

    def order_vms(self, vms: list[VM]) -> list[VM]:
        return sorted(vms, key=lambda v: (-v.duration, v.start, v.vm_id))
