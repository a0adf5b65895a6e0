"""Energy substrate: power models, segment decomposition, cost accounting."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

# The names as static imports, for type checkers and linters; at run time
# they resolve through ``__getattr__`` below. tests/test_layering.py
# keeps this block, ``_EXPORTS`` and ``__all__`` naming the same homes.
if TYPE_CHECKING:
    from repro.energy.accounting import (
        EnergyReport,
        ServerReport,
        active_intervals,
        energy_report,
        transition_count,
    )
    from repro.energy.cost import (
        CostBreakdown,
        SleepPolicy,
        allocation_cost,
        gap_cost,
        server_cost,
        sleeps_through,
    )
    from repro.energy.power import AffinePowerModel, PowerModel, run_energy
    from repro.energy.pricing import (
        FlatTariff,
        Tariff,
        TimeOfUseTariff,
        monetary_cost,
    )
    from repro.energy.timeout import best_timeout, timeout_energy
    from repro.energy.segments import (
        ServerTimeline,
        busy_segments,
        idle_segments,
        timeline_of,
    )

#: Home module of every name, imported on first access.
_EXPORTS: dict[str, tuple[str, ...]] = {
    "repro.energy.accounting": (
        "EnergyReport", "ServerReport", "active_intervals", "energy_report",
        "transition_count",
    ),
    "repro.energy.cost": (
        "CostBreakdown", "SleepPolicy", "allocation_cost", "gap_cost",
        "server_cost", "sleeps_through",
    ),
    "repro.energy.power": ("AffinePowerModel", "PowerModel", "run_energy"),
    "repro.energy.pricing": (
        "FlatTariff", "Tariff", "TimeOfUseTariff", "monetary_cost",
    ),
    "repro.energy.timeout": ("best_timeout", "timeout_energy"),
    "repro.energy.segments": (
        "ServerTimeline", "busy_segments", "idle_segments", "timeline_of",
    ),
}

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

__all__ = [
    "EnergyReport",
    "ServerReport",
    "active_intervals",
    "energy_report",
    "transition_count",
    "CostBreakdown",
    "SleepPolicy",
    "allocation_cost",
    "gap_cost",
    "server_cost",
    "sleeps_through",
    "AffinePowerModel",
    "PowerModel",
    "run_energy",
    "FlatTariff",
    "Tariff",
    "TimeOfUseTariff",
    "monetary_cost",
    "best_timeout",
    "timeout_energy",
    "ServerTimeline",
    "busy_segments",
    "idle_segments",
    "timeline_of",
]
