"""Domain model: time intervals, VMs, servers, catalogs, clusters,
allocations."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

# This block is the export declaration: repro._lazy reads it at import.
if TYPE_CHECKING:
    from repro.model.allocation import Allocation as Allocation
    from repro.model.catalog import (
        ALL_SERVER_TYPES as ALL_SERVER_TYPES,
        ALL_VM_TYPES as ALL_VM_TYPES,
        CPU_INTENSIVE_VM_TYPES as CPU_INTENSIVE_VM_TYPES,
        MEMORY_INTENSIVE_VM_TYPES as MEMORY_INTENSIVE_VM_TYPES,
        SERVER_TYPES as SERVER_TYPES,
        SMALL_SERVER_TYPES as SMALL_SERVER_TYPES,
        STANDARD_VM_TYPES as STANDARD_VM_TYPES,
        VM_TYPES as VM_TYPES,
        server_type as server_type,
        vm_type as vm_type,
    )
    from repro.model.cluster import Cluster as Cluster
    from repro.model.constraints import (
        PlacementConstraints as PlacementConstraints,
    )
    from repro.model.intervals import (
        TimeInterval as TimeInterval,
        gaps_between as gaps_between,
        intervals_overlap as intervals_overlap,
        merge_intervals as merge_intervals,
        total_length as total_length,
    )
    from repro.model.phases import (
        DemandPhase as DemandPhase,
        PhasedVM as PhasedVM,
        demand_at as demand_at,
        demand_profile as demand_profile,
        split_vm as split_vm,
    )
    from repro.model.server import Server as Server, ServerSpec as ServerSpec
    from repro.model.vm import VM as VM, VMSpec as VMSpec

__getattr__, __dir__, __all__ = lazy_exports(globals())
