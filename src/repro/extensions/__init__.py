"""Extensions beyond the paper: migration-based consolidation, offline
(clairvoyant) orderings, and robustness to non-affine power curves."""

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
from repro.allocators.registry import ALLOCATORS as _ALLOCATORS

# The offline variants join the registry so the CLI and the ablation
# benches can address them by name like any other algorithm.
_ALLOCATORS.setdefault(OfflineMinEnergy.name, OfflineMinEnergy)
_ALLOCATORS.setdefault(LongestFirstMinEnergy.name, LongestFirstMinEnergy)

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
