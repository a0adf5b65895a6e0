"""GammaFF: first fit under the Γ-robust capacity constraint.

The classic robust bin-packing heuristic (Han et al. 2025; ROADMAP's
Γ-robust item): scan servers in id order and take the first one whose
*robust* capacity check admits the VM — nominal committed demand plus
the Γ largest uncertainty radii among the overlapping residents (the
candidate included) must fit at every time unit.

Mechanically this is :class:`~repro.allocators.first_fit.FirstFit`
with an active :class:`~repro.robust.config.RobustnessConfig` installed
into its engine config: the robust constraint lives inside
``ServerState.probe`` / the fleet kernel, so the scan logic (the
scalar first-admissible walk) is inherited unchanged. Any other
registry allocator gains the same robust mode by passing an engine spec
with ``gamma=`` — this class simply gives the canonical Γ-first-fit a
name and a first-class ``gamma`` knob::

    make_allocator("gamma-ff", gamma=2)
    make_allocator("gamma-ff", gamma=3, mode="box")
    make_allocator("min-energy", engine="indexed:gamma=2")  # same idea
"""

from __future__ import annotations

from dataclasses import replace

from repro.allocators.first_fit import FirstFit
from repro.energy.cost import SleepPolicy
from repro.placement.config import EngineConfig
from repro.robust.config import RobustnessConfig

__all__ = ["GammaFF"]


class GammaFF(FirstFit):
    """First fit with the Γ-robust feasibility probe."""

    name = "gamma-ff"

    def __init__(self, *, gamma: int = 1, mode: str = "gamma",
                 seed: int | None = None,
                 policy: SleepPolicy = SleepPolicy.OPTIMAL,
                 engine: EngineConfig | None = None) -> None:
        super().__init__(seed=seed, policy=policy, engine=engine)
        if self.engine_config.robustness is None:
            # The ctor knobs apply only when the engine spec does not
            # already carry a robustness config (the spec wins, so
            # "gamma-ff" with engine="indexed:gamma=3" honours the 3).
            self.engine_config = replace(
                self.engine_config,
                robustness=RobustnessConfig(gamma=gamma, mode=mode))

    @property
    def gamma(self) -> int:
        """The effective uncertainty budget."""
        return self.engine_config.robustness.gamma
