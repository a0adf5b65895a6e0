"""The placement engine: sparse occupancy indexes and feasibility probes.

This package holds the data structures behind ``ServerState.probe`` — the
single entry point every allocator uses to test a candidate server:

* :class:`~repro.placement.feasibility.Feasibility` — the unified verdict
  (feasible flag, failing constraint, peak usage, headroom);
* :class:`~repro.placement.occupancy.SkylineOccupancy` /
  :class:`~repro.placement.occupancy.DenseOccupancy` — the sparse
  change-point index and the dense numpy oracle it is tested against;
* :class:`~repro.placement.index.CandidateIndex` — fleet-level static
  pruning by server type, with incremental per-type candidate queues;
* :class:`~repro.placement.kernels.FleetKernel` /
  :class:`~repro.placement.kernels.FeasibilityBatch` — the vectorized
  batch probe over a structure-of-arrays mirror of the fleet's
  skylines;
* :class:`~repro.placement.config.EngineConfig` — the frozen
  engine/kernel/robustness choice accepted wherever the old engine string
  was.

See ``docs/api.md`` ("Placement engine") for the replacements of the
removed ``fits`` / ``fit_reason`` / ``peak_usage`` methods.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

# The names as static imports, for type checkers and linters; at run time
# they resolve through ``__getattr__`` below. tests/test_layering.py
# keeps this block, ``_EXPORTS`` and ``__all__`` naming the same homes.
if TYPE_CHECKING:
    from repro.placement.config import EngineConfig
    from repro.placement.feasibility import Feasibility
    from repro.placement.index import CandidateIndex
    from repro.placement.kernels import FeasibilityBatch, FleetKernel
    from repro.placement.occupancy import (
        DEFAULT_ENGINE,
        ENGINES,
        DenseOccupancy,
        SkylineOccupancy,
        make_occupancy,
    )

#: Home module of every name, imported on first access.
_EXPORTS: dict[str, tuple[str, ...]] = {
    "repro.placement.config": ("EngineConfig",),
    "repro.placement.feasibility": ("Feasibility",),
    "repro.placement.index": ("CandidateIndex",),
    "repro.placement.kernels": ("FeasibilityBatch", "FleetKernel"),
    "repro.placement.occupancy": (
        "DEFAULT_ENGINE", "ENGINES", "DenseOccupancy", "SkylineOccupancy",
        "make_occupancy",
    ),
}

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

__all__ = [
    "EngineConfig",
    "Feasibility",
    "FeasibilityBatch",
    "FleetKernel",
    "CandidateIndex",
    "SkylineOccupancy",
    "DenseOccupancy",
    "make_occupancy",
    "ENGINES",
    "DEFAULT_ENGINE",
]
