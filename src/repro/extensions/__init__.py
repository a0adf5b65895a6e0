"""Extensions beyond the paper: migration-based consolidation, offline
(clairvoyant) orderings, and robustness to non-affine power curves.

Like the top-level :mod:`repro`, the names resolve on first use: reading
``repro.extensions.EpochConsolidator`` imports only
:mod:`repro.extensions.consolidation`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

# This block is the export declaration: repro._lazy reads it at import.
if TYPE_CHECKING:
    from repro.allocators.offline import (
        LongestFirstMinEnergy as LongestFirstMinEnergy,
        OfflineMinEnergy as OfflineMinEnergy,
    )
    from repro.extensions.consolidation import (
        ConsolidationResult as ConsolidationResult,
        EpochConsolidator as EpochConsolidator,
        Migration as Migration,
    )
    from repro.extensions.cost_terms import (
        CostWeights as CostWeights,
        WeightedMinEnergy as WeightedMinEnergy,
    )
    from repro.extensions.power_curve import (
        SuperlinearPowerModel as SuperlinearPowerModel,
        evaluate_under_model as evaluate_under_model,
    )
    from repro.extensions.warmpool import (
        WarmPoolPoint as WarmPoolPoint,
        evaluate_warm_pool as evaluate_warm_pool,
        warm_pool_frontier as warm_pool_frontier,
    )

__getattr__, __dir__, __all__ = lazy_exports(globals())
