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

# The names as static imports, for type checkers and linters; at run time
# they resolve through ``__getattr__`` below. tests/test_layering.py
# keeps this block, ``_EXPORTS`` and ``__all__`` naming the same homes.
# (Lazy resolution also breaks the cycle an eager import of ``evaluate``
# would close: it imports the allocators, which import
# ``repro.placement.config``, which imports this package.)
if TYPE_CHECKING:
    from repro.robust.config import RobustnessConfig
    from repro.robust.evaluate import (
        FrontierPoint,
        GammaSweep,
        overload_rate,
        realized_overload,
        sweep_gamma,
    )
    from repro.robust.skyline import RobustSkyline

#: Home module of every name, imported on first access.
_EXPORTS: dict[str, tuple[str, ...]] = {
    "repro.robust.config": ("RobustnessConfig",),
    "repro.robust.evaluate": (
        "FrontierPoint", "GammaSweep", "overload_rate", "realized_overload",
        "sweep_gamma",
    ),
    "repro.robust.skyline": ("RobustSkyline",),
}

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

__all__ = ["RobustnessConfig", "RobustSkyline", "FrontierPoint",
           "GammaSweep", "overload_rate", "realized_overload",
           "sweep_gamma"]
