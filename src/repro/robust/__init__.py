"""Γ-robust placement under uncertain demand.

The paper's Sec. IV-B1 assumes every VM's demand is an exact scalar.
This package relaxes that: a VM may declare a demand *interval*
``[nominal - radius, nominal + radius]`` (the ``cpu_radius`` /
``mem_radius`` fields of :class:`~repro.model.vm.VMSpec`), and a
:class:`RobustnessConfig` riding in the
:class:`~repro.placement.config.EngineConfig` makes every probe enforce
the Bertsimas–Sim Γ-robust capacity constraint: nominal occupancy plus
the Γ largest radii among the VMs overlapping each time segment (the
probed VM included) must fit under capacity.

* :mod:`repro.robust.config` — the frozen :class:`RobustnessConfig`
  (``gamma`` budget, ``"gamma"`` / ``"box"`` mode).
* :mod:`repro.robust.skyline` — :class:`RobustSkyline`, the skyline
  occupancy index extended with per-segment radius multisets and the
  cached top-Γ accumulators both probe paths read.
* :mod:`repro.robust.evaluate` — the realized-demand replay harness:
  draw demand from the intervals, replay a committed plan, measure the
  overload rate, and sweep Γ into an energy-vs-overload frontier.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

# This block is the export declaration: repro._lazy reads it at import.
# (Lazy resolution also breaks the cycle an eager import of ``evaluate``
# would close: it imports the allocators, which import
# ``repro.placement.config``, which imports this package.)
if TYPE_CHECKING:
    from repro.robust.config import RobustnessConfig as RobustnessConfig
    from repro.robust.evaluate import (
        FrontierPoint as FrontierPoint,
        GammaSweep as GammaSweep,
        overload_rate as overload_rate,
        realized_overload as realized_overload,
        sweep_gamma as sweep_gamma,
    )
    from repro.robust.skyline import RobustSkyline as RobustSkyline

__getattr__, __dir__, __all__ = lazy_exports(globals())
