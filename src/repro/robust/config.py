"""The frozen Γ-robustness configuration.

A :class:`RobustnessConfig` says how pessimistic capacity probes are
about demand radii:

* ``mode="gamma"`` (Bertsimas–Sim): at every time segment, the nominal
  committed demand plus the ``gamma`` largest radii among the VMs
  overlapping that segment (the probed VM included) must fit under
  capacity. ``gamma=0`` deactivates robustness entirely — probes are
  bit-identical to the nominal engine.
* ``mode="box"`` (Soyster): every radius counts — the full worst case.
  ``gamma`` is ignored in box mode; a box config is always active.

The config rides inside :class:`~repro.placement.config.EngineConfig`
(``"indexed:gamma=2"`` spec strings) so every allocator,
the service store and the CLI pick it up through the one construction
surface.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import ValidationError

__all__ = ["RobustnessConfig", "MODES"]

#: Valid robustness modes.
MODES = ("gamma", "box")


@dataclass(frozen=True)
class RobustnessConfig:
    """Uncertainty budget for robust capacity probes.

    Parameters
    ----------
    gamma:
        How many overlapping radii may take their worst case at once
        (per server, per time segment, per resource). ``0`` means
        nominal probing — robustness off.
    mode:
        ``"gamma"`` for the budgeted Bertsimas–Sim constraint,
        ``"box"`` for the full worst case (all radii count).
    """

    gamma: int = 0
    mode: str = "gamma"

    def __post_init__(self) -> None:
        if isinstance(self.gamma, bool) or not isinstance(self.gamma, int):
            raise ValidationError(
                f"gamma must be an integer, got {self.gamma!r}")
        if self.gamma < 0:
            raise ValidationError(
                f"gamma must be >= 0, got {self.gamma}")
        if self.mode not in MODES:
            raise ValidationError(
                f"unknown robustness mode {self.mode!r}; valid modes: "
                f"{MODES}")

    @property
    def active(self) -> bool:
        """Whether probes apply any robustness at all.

        ``gamma=0`` in gamma mode is the nominal engine (exactly, bit
        for bit — the robust machinery is bypassed, not evaluated with
        a zero budget); box mode is always active.
        """
        return self.mode == "box" or self.gamma > 0

    def accumulate(self, radii: tuple[float, ...]) -> tuple[float, float]:
        """The cached ``(drop, threshold)`` pair for one segment.

        ``radii`` is one segment's resident radii sorted descending.
        Both probe paths evaluate the robust excess of a candidate
        radius ``r`` as ``drop + max(r, threshold)``:

        * gamma mode: ``drop`` is the sum of the ``gamma - 1`` largest
          resident radii and ``threshold`` the ``gamma``-th largest
          (0.0 when fewer residents). If ``r`` beats the threshold it
          joins the worst-case set and displaces nothing that was
          counted; otherwise the resident set alone is the worst case.
        * box mode: ``drop`` is the sum of *all* radii and
          ``threshold`` 0.0 — the same formula then adds ``r``
          unconditionally.
        """
        if self.mode == "box":
            drop = 0.0
            for r in radii:
                drop += r
            return drop, 0.0
        g = self.gamma
        drop = 0.0
        for r in radii[: g - 1]:
            drop += r
        threshold = radii[g - 1] if len(radii) >= g else 0.0
        return drop, threshold

    @property
    def spec_options(self) -> list[str]:
        """The ``key=value`` items this config adds to an engine spec."""
        options = [f"gamma={self.gamma}"]
        if self.mode != "gamma":
            options.append(f"mode={self.mode}")
        return options
