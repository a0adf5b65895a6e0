"""Metrics: energy reduction ratio, utilisation, curve fits, aggregation."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

# This block is the export declaration: repro._lazy reads it at import.
if TYPE_CHECKING:
    from repro.metrics.fitting import (
        FitResult as FitResult,
        adjusted_r_squared as adjusted_r_squared,
        exponential_fit as exponential_fit,
        linear_fit as linear_fit,
        logarithmic_fit as logarithmic_fit,
    )
    from repro.metrics.latency import (
        LatencyStats as LatencyStats,
        latency_stats as latency_stats,
        wakeup_latencies as wakeup_latencies,
    )
    from repro.metrics.reduction import (
        energy_reduction_ratio as energy_reduction_ratio,
    )
    from repro.metrics.significance import (
        PairedComparison as PairedComparison,
        bootstrap_mean_diff as bootstrap_mean_diff,
        paired_t_test as paired_t_test,
    )
    from repro.metrics.summary import (
        Aggregate as Aggregate,
        aggregate as aggregate,
    )
    from repro.metrics.utilization import (
        UtilizationStats as UtilizationStats,
        server_profiles as server_profiles,
        utilization_stats as utilization_stats,
    )

__getattr__, __dir__, __all__ = lazy_exports(globals())
