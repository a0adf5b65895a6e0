"""Extensions beyond the paper: migration-based consolidation, offline
(clairvoyant) orderings, and robustness to non-affine power curves.

Like the top-level :mod:`repro`, the names resolve on first use: reading
``repro.extensions.EpochConsolidator`` imports only
:mod:`repro.extensions.consolidation`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

# The names as static imports, for type checkers and linters; at run time
# they resolve through ``__getattr__`` below. tests/test_layering.py
# keeps this block, ``_EXPORTS`` and ``__all__`` naming the same homes.
if TYPE_CHECKING:
    from repro.extensions.consolidation import (
        ConsolidationResult,
        EpochConsolidator,
        Migration,
    )
    from repro.extensions.cost_terms import CostWeights, WeightedMinEnergy
    from repro.extensions.offline import LongestFirstMinEnergy, OfflineMinEnergy
    from repro.extensions.power_curve import (
        SuperlinearPowerModel,
        evaluate_under_model,
    )
    from repro.extensions.warmpool import (
        WarmPoolPoint,
        evaluate_warm_pool,
        warm_pool_frontier,
    )

#: Home module of every name, imported on first access.
_EXPORTS: dict[str, tuple[str, ...]] = {
    "repro.extensions.consolidation": (
        "ConsolidationResult", "EpochConsolidator", "Migration",
    ),
    "repro.extensions.cost_terms": ("CostWeights", "WeightedMinEnergy"),
    "repro.extensions.offline": ("LongestFirstMinEnergy", "OfflineMinEnergy"),
    "repro.extensions.power_curve": (
        "SuperlinearPowerModel", "evaluate_under_model",
    ),
    "repro.extensions.warmpool": (
        "WarmPoolPoint", "evaluate_warm_pool", "warm_pool_frontier",
    ),
}

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

__all__ = [
    "ConsolidationResult",
    "EpochConsolidator",
    "Migration",
    "CostWeights",
    "WeightedMinEnergy",
    "LongestFirstMinEnergy",
    "OfflineMinEnergy",
    "SuperlinearPowerModel",
    "evaluate_under_model",
    "WarmPoolPoint",
    "evaluate_warm_pool",
    "warm_pool_frontier",
]
