"""Workload substrate: the paper's Poisson generator, extended traffic
families, and trace persistence."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

# The names as static imports, for type checkers and linters; at run time
# they resolve through ``__getattr__`` below. tests/test_layering.py
# keeps this block, ``_EXPORTS`` and ``__all__`` naming the same homes.
if TYPE_CHECKING:
    from repro.workload.generator import PoissonWorkload, generate_vms
    from repro.workload.patterns import (
        BurstyWorkload,
        DiurnalWorkload,
        HeavyTailWorkload,
    )
    from repro.workload.characterize import (
        WorkloadStats,
        characterize,
        synthetic_twin,
    )
    from repro.workload.phased import PhasedWorkload
    from repro.workload.trace import Trace
    from repro.workload.transforms import (
        merge_traces,
        scale_load,
        scale_time,
        shift,
        slice_window,
    )

#: Home module of every name, imported on first access.
_EXPORTS: dict[str, tuple[str, ...]] = {
    "repro.workload.generator": ("PoissonWorkload", "generate_vms"),
    "repro.workload.patterns": (
        "BurstyWorkload", "DiurnalWorkload", "HeavyTailWorkload",
    ),
    "repro.workload.characterize": (
        "WorkloadStats", "characterize", "synthetic_twin",
    ),
    "repro.workload.phased": ("PhasedWorkload",),
    "repro.workload.trace": ("Trace",),
    "repro.workload.transforms": (
        "merge_traces", "scale_load", "scale_time", "shift", "slice_window",
    ),
}

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

__all__ = [
    "PoissonWorkload",
    "generate_vms",
    "BurstyWorkload",
    "DiurnalWorkload",
    "HeavyTailWorkload",
    "WorkloadStats",
    "characterize",
    "synthetic_twin",
    "PhasedWorkload",
    "Trace",
    "merge_traces",
    "scale_load",
    "scale_time",
    "shift",
    "slice_window",
]
