"""The registered allocator names, importable without the allocators.

The CLI offers these as ``--algorithm`` choices and ``repro list``
prints them; the classes (and numpy with them) load only when a command
builds one. ``tests/test_registry.py`` holds this table to the registry.
"""

from __future__ import annotations

__all__ = ["ALLOCATOR_NAMES"]

#: ``allocator_names()``: every registered ``Allocator.name``, sorted.
ALLOCATOR_NAMES = (
    "best-fit",
    "ffps",
    "first-fit",
    "gamma-ff",
    "min-energy",
    "min-energy-longest",
    "min-energy-offline",
    "power-aware",
    "random-fit",
    "round-robin",
    "worst-fit",
)
