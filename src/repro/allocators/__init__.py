"""Allocation algorithms: the paper's heuristic, its FFPS baseline, and a
zoo of classic comparators."""

from repro.allocators.base import Allocator
from repro.allocators.batch import Decision
from repro.allocators.best_fit import BestFit
from repro.allocators.ffps import FirstFitPowerSaving
from repro.allocators.first_fit import FirstFit
from repro.allocators.gamma_ff import GammaFF
from repro.allocators.min_energy import MinIncrementalEnergy
from repro.allocators.power_aware import PowerAwareFirstFit
from repro.allocators.random_fit import RandomFit
from repro.allocators.registry import ALLOCATORS, allocator_names, make_allocator
from repro.allocators.round_robin import RoundRobin
from repro.allocators.state import ServerState
from repro.allocators.worst_fit import WorstFit

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
