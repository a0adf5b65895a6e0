"""Offline (clairvoyant) variants of the paper's heuristic.

The classes live in :mod:`repro.allocators.offline`, beside the other
registered allocators, so the registry lists them without importing
:mod:`repro.extensions`; this module keeps their extensions path.
"""

from repro.allocators.offline import LongestFirstMinEnergy, OfflineMinEnergy

__all__ = ["OfflineMinEnergy", "LongestFirstMinEnergy"]
