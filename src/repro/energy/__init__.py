"""Energy substrate: power models, segment decomposition, cost accounting."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

# This block is the export declaration: repro._lazy reads it at import.
if TYPE_CHECKING:
    from repro.energy.accounting import (
        EnergyReport as EnergyReport,
        ServerReport as ServerReport,
        active_intervals as active_intervals,
        energy_report as energy_report,
        transition_count as transition_count,
    )
    from repro.energy.cost import (
        CostBreakdown as CostBreakdown,
        SleepPolicy as SleepPolicy,
        allocation_cost as allocation_cost,
        gap_cost as gap_cost,
        server_cost as server_cost,
        sleeps_through as sleeps_through,
    )
    from repro.energy.power import (
        AffinePowerModel as AffinePowerModel,
        PowerModel as PowerModel,
        run_energy as run_energy,
    )
    from repro.energy.pricing import (
        FlatTariff as FlatTariff,
        Tariff as Tariff,
        TimeOfUseTariff as TimeOfUseTariff,
        monetary_cost as monetary_cost,
    )
    from repro.energy.timeout import (
        best_timeout as best_timeout,
        timeout_energy as timeout_energy,
    )
    from repro.energy.segments import (
        ServerTimeline as ServerTimeline,
        busy_segments as busy_segments,
        idle_segments as idle_segments,
        timeline_of as timeline_of,
    )

__getattr__, __dir__, __all__ = lazy_exports(globals())
