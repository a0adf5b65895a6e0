"""The placement engine: sparse occupancy indexes and feasibility probes.

This package holds the data structures behind ``ServerState.probe`` — the
single entry point every allocator uses to test a candidate server:

* :class:`~repro.placement.feasibility.Feasibility` — the unified verdict
  (feasible flag, failing constraint, peak usage, headroom);
* :class:`~repro.placement.occupancy.SkylineOccupancy` — the sparse
  change-point index every server's book keeps;
* :class:`~repro.placement.index.CandidateIndex` — fleet-level static
  pruning by server type, with incremental per-type candidate queues;
* :class:`~repro.placement.kernels.FleetKernel` /
  :class:`~repro.placement.kernels.FeasibilityBatch` — the vectorized
  batch probe over a structure-of-arrays mirror of the fleet's
  skylines;
* :class:`~repro.placement.config.EngineConfig` — the frozen
  robustness setting accepted wherever the old engine string was.

See ``docs/api.md`` ("Placement engine") for the replacements of the
removed ``fits`` / ``fit_reason`` / ``peak_usage`` methods.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

# This block is the export declaration: repro._lazy reads it at import.
if TYPE_CHECKING:
    from repro.placement.config import EngineConfig as EngineConfig
    from repro.placement.feasibility import Feasibility as Feasibility
    from repro.placement.index import CandidateIndex as CandidateIndex
    from repro.placement.kernels import (
        FeasibilityBatch as FeasibilityBatch,
        FleetKernel as FleetKernel,
    )
    from repro.placement.occupancy import (
        SkylineOccupancy as SkylineOccupancy,
        make_occupancy as make_occupancy,
    )

__getattr__, __dir__, __all__ = lazy_exports(globals())
