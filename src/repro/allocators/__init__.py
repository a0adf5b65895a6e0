"""Allocation algorithms: the paper's heuristic, its FFPS baseline, and a
zoo of classic comparators.

Like the top-level :mod:`repro`, the names resolve on first use, so
``repro --help`` and ``repro list`` — which need only the registered
names (:mod:`repro.allocators.names`) — import no allocator and no
numpy.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

# This block is the export declaration: repro._lazy reads it at import.
if TYPE_CHECKING:
    from repro.allocators.base import Allocator as Allocator
    from repro.allocators.batch import Decision as Decision
    from repro.allocators.best_fit import BestFit as BestFit
    from repro.allocators.ffps import (
        FirstFitPowerSaving as FirstFitPowerSaving,
    )
    from repro.allocators.first_fit import FirstFit as FirstFit
    from repro.allocators.gamma_ff import GammaFF as GammaFF
    from repro.allocators.min_energy import (
        MinIncrementalEnergy as MinIncrementalEnergy,
    )
    from repro.allocators.power_aware import (
        PowerAwareFirstFit as PowerAwareFirstFit,
    )
    from repro.allocators.random_fit import RandomFit as RandomFit
    from repro.allocators.registry import (
        ALLOCATORS as ALLOCATORS,
        allocator_names as allocator_names,
        make_allocator as make_allocator,
    )
    from repro.allocators.round_robin import RoundRobin as RoundRobin
    from repro.allocators.state import ServerState as ServerState
    from repro.allocators.worst_fit import WorstFit as WorstFit

__getattr__, __dir__, __all__ = lazy_exports(globals())
