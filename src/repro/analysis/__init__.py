"""Workload analysis: conflict graphs, concurrency sweeps, energy bounds."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

# This block is the export declaration: repro._lazy reads it at import.
if TYPE_CHECKING:
    from repro.analysis.bounds import (
        EnergyLowerBound as EnergyLowerBound,
        energy_lower_bound as energy_lower_bound,
    )
    from repro.analysis.diagnostics import (
        PlanDiagnostics as PlanDiagnostics,
        diagnose as diagnose,
    )
    from repro.analysis.sizing import (
        SizingPoint as SizingPoint,
        minimum_feasible_size as minimum_feasible_size,
        sizing_curve as sizing_curve,
    )
    from repro.analysis.conflicts import (
        ConcurrencyProfile as ConcurrencyProfile,
        concurrency_profile as concurrency_profile,
        conflict_graph as conflict_graph,
        peak_demand as peak_demand,
    )

__getattr__, __dir__, __all__ = lazy_exports(globals())
