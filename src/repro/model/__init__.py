"""Domain model: time intervals, VMs, servers, catalogs, clusters,
allocations."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

# The names as static imports, for type checkers and linters; at run time
# they resolve through ``__getattr__`` below. tests/test_layering.py
# keeps this block, ``_EXPORTS`` and ``__all__`` naming the same homes.
if TYPE_CHECKING:
    from repro.model.allocation import Allocation
    from repro.model.catalog import (
        ALL_SERVER_TYPES,
        ALL_VM_TYPES,
        CPU_INTENSIVE_VM_TYPES,
        MEMORY_INTENSIVE_VM_TYPES,
        SERVER_TYPES,
        SMALL_SERVER_TYPES,
        STANDARD_VM_TYPES,
        VM_TYPES,
        server_type,
        vm_type,
    )
    from repro.model.cluster import Cluster
    from repro.model.constraints import PlacementConstraints
    from repro.model.intervals import (
        TimeInterval,
        gaps_between,
        intervals_overlap,
        merge_intervals,
        total_length,
    )
    from repro.model.phases import (
        DemandPhase,
        PhasedVM,
        demand_at,
        demand_profile,
        split_vm,
    )
    from repro.model.server import Server, ServerSpec
    from repro.model.vm import VM, VMSpec

#: Home module of every name, imported on first access.
_EXPORTS: dict[str, tuple[str, ...]] = {
    "repro.model.allocation": ("Allocation",),
    "repro.model.catalog": (
        "ALL_SERVER_TYPES", "ALL_VM_TYPES", "CPU_INTENSIVE_VM_TYPES",
        "MEMORY_INTENSIVE_VM_TYPES", "SERVER_TYPES", "SMALL_SERVER_TYPES",
        "STANDARD_VM_TYPES", "VM_TYPES", "server_type", "vm_type",
    ),
    "repro.model.cluster": ("Cluster",),
    "repro.model.constraints": ("PlacementConstraints",),
    "repro.model.intervals": (
        "TimeInterval", "gaps_between", "intervals_overlap", "merge_intervals",
        "total_length",
    ),
    "repro.model.phases": (
        "DemandPhase", "PhasedVM", "demand_at", "demand_profile", "split_vm",
    ),
    "repro.model.server": ("Server", "ServerSpec"),
    "repro.model.vm": ("VM", "VMSpec"),
}

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

__all__ = [
    "Allocation",
    "ALL_SERVER_TYPES",
    "ALL_VM_TYPES",
    "CPU_INTENSIVE_VM_TYPES",
    "MEMORY_INTENSIVE_VM_TYPES",
    "SERVER_TYPES",
    "SMALL_SERVER_TYPES",
    "STANDARD_VM_TYPES",
    "VM_TYPES",
    "server_type",
    "vm_type",
    "Cluster",
    "PlacementConstraints",
    "TimeInterval",
    "gaps_between",
    "intervals_overlap",
    "merge_intervals",
    "total_length",
    "DemandPhase",
    "PhasedVM",
    "demand_at",
    "demand_profile",
    "split_vm",
    "Server",
    "ServerSpec",
    "VM",
    "VMSpec",
]
