"""Workload substrate: the paper's Poisson generator, extended traffic
families, and trace persistence."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

# This block is the export declaration: repro._lazy reads it at import.
if TYPE_CHECKING:
    from repro.workload.generator import (
        PoissonWorkload as PoissonWorkload,
        generate_vms as generate_vms,
    )
    from repro.workload.patterns import (
        BurstyWorkload as BurstyWorkload,
        DiurnalWorkload as DiurnalWorkload,
        HeavyTailWorkload as HeavyTailWorkload,
    )
    from repro.workload.characterize import (
        WorkloadStats as WorkloadStats,
        characterize as characterize,
        synthetic_twin as synthetic_twin,
    )
    from repro.workload.phased import PhasedWorkload as PhasedWorkload
    from repro.workload.trace import Trace as Trace
    from repro.workload.transforms import (
        merge_traces as merge_traces,
        scale_load as scale_load,
        scale_time as scale_time,
        shift as shift,
        slice_window as slice_window,
    )

__getattr__, __dir__, __all__ = lazy_exports(globals())
