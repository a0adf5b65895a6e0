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

# The names as static imports, for type checkers and linters; at run time
# they resolve through ``__getattr__`` below. tests/test_layering.py
# keeps this block, ``_EXPORTS`` and ``__all__`` naming the same homes.
if TYPE_CHECKING:
    from repro.allocators.base import Allocator
    from repro.allocators.batch import Decision
    from repro.allocators.best_fit import BestFit
    from repro.allocators.ffps import FirstFitPowerSaving
    from repro.allocators.first_fit import FirstFit
    from repro.allocators.gamma_ff import GammaFF
    from repro.allocators.min_energy import MinIncrementalEnergy
    from repro.allocators.power_aware import PowerAwareFirstFit
    from repro.allocators.random_fit import RandomFit
    from repro.allocators.registry import (
        ALLOCATORS,
        allocator_names,
        make_allocator,
    )
    from repro.allocators.round_robin import RoundRobin
    from repro.allocators.state import ServerState
    from repro.allocators.worst_fit import WorstFit

#: Home module of every name, imported on first access.
_EXPORTS: dict[str, tuple[str, ...]] = {
    "repro.allocators.base": ("Allocator",),
    "repro.allocators.batch": ("Decision",),
    "repro.allocators.best_fit": ("BestFit",),
    "repro.allocators.ffps": ("FirstFitPowerSaving",),
    "repro.allocators.first_fit": ("FirstFit",),
    "repro.allocators.gamma_ff": ("GammaFF",),
    "repro.allocators.min_energy": ("MinIncrementalEnergy",),
    "repro.allocators.power_aware": ("PowerAwareFirstFit",),
    "repro.allocators.random_fit": ("RandomFit",),
    "repro.allocators.registry": (
        "ALLOCATORS", "allocator_names", "make_allocator",
    ),
    "repro.allocators.round_robin": ("RoundRobin",),
    "repro.allocators.state": ("ServerState",),
    "repro.allocators.worst_fit": ("WorstFit",),
}

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

__all__ = [
    "Allocator",
    "BestFit",
    "Decision",
    "FirstFitPowerSaving",
    "FirstFit",
    "GammaFF",
    "MinIncrementalEnergy",
    "PowerAwareFirstFit",
    "RandomFit",
    "ALLOCATORS",
    "allocator_names",
    "make_allocator",
    "RoundRobin",
    "ServerState",
    "WorstFit",
]
