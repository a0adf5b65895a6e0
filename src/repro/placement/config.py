"""The placement engine's settings as one frozen config object.

An :class:`EngineConfig` carries the Γ-robustness budget — the one
setting that changes what a probe answers — and is accepted everywhere
the old bare engine string was:
:func:`~repro.allocators.registry.make_allocator`, the allocator and
:class:`~repro.service.state.ClusterStateStore` constructors, and
``repro serve --algo-param engine=...``. Every book is a skyline
(:mod:`repro.placement.occupancy`); who probes a batch is decided by the
batch's size (``Allocator._probe_batch``).

The **spec string** (:meth:`EngineConfig.parse`) is the sanctioned flat
form for CLIs, config files and snapshots: ``"indexed"``,
``"indexed:gamma=2"``, ``"indexed:gamma=3,mode=box"``. Its head names
the skyline engine, the only one; the ``dense`` engine, a per-time-unit
numpy timeline that decided exactly as ``indexed`` does, was removed,
and a spec naming it is refused.

The legacy ctor string (``engine="indexed"`` passed directly to an
allocator constructor) completed its deprecation cycle and has been
**removed**: :meth:`EngineConfig.coerce` now raises
:class:`~repro.exceptions.ValidationError` for it. Pass an
:class:`EngineConfig` instead — ``docs/api.md`` ("Engine configuration")
has the migration table. Constructors documented to take a *spec
string* (:class:`~repro.service.state.ClusterStateStore`,
``make_allocator``'s ``engine`` parameter) still do; only the bare
allocator-constructor form is gone.

Snapshots and the journaled daemon config carry the active config as
its :attr:`spec`, so a restored daemon picks the same robustness budget
it was running with; a spec written before the robustness options
existed parses to ``robustness=None`` (nominal probing) unchanged. A
stored spec may carry a ``kernel`` or a ``shards`` option, which select
nothing: each is validated (``kernel`` as on/off/true/false, ``shards``
as an integer >= 1) and dropped, and :attr:`spec` never emits it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import ValidationError
from repro.robust.config import RobustnessConfig

__all__ = ["EngineConfig"]


def _check_legacy_shards(raw: object, where: str) -> None:
    """Validate the ``shards`` option of a stored spec; it selects
    nothing, so the caller drops it after this check."""
    try:
        shards = int(raw)
    except (TypeError, ValueError):
        raise ValidationError(
            f"{where}: shards must be an integer, got {raw!r}") from None
    if shards < 1:
        raise ValidationError(f"{where}: shards must be >= 1, got {shards}")


@dataclass(frozen=True)
class EngineConfig:
    """The placement-engine settings, as one immutable value.

    Parameters
    ----------
    robustness:
        Optional :class:`~repro.robust.config.RobustnessConfig`.
        ``None`` (and an inactive config, ``gamma=0``) means nominal
        probing — bit-identical to the engine before robustness
        existed.
    """

    robustness: RobustnessConfig | None = None

    @property
    def active_robustness(self) -> RobustnessConfig | None:
        """The robustness config when it actually changes probes.

        ``None`` both when no config rides along and when the config is
        inactive (``gamma=0`` in gamma mode), so consumers branch on
        one check and the inactive case shares the nominal code path
        exactly.
        """
        if self.robustness is not None and self.robustness.active:
            return self.robustness
        return None

    @property
    def spec(self) -> str:
        """The canonical flat spec string (``parse`` round-trips it)."""
        if self.robustness is None:
            return "indexed"
        return f"indexed:{','.join(self.robustness.spec_options)}"

    @classmethod
    def parse(cls, text: str) -> "EngineConfig":
        """Build a config from a spec string (see module docstring).

        This is the sanctioned string entry point — CLI values, config
        files and snapshot records go through here.
        """
        head, sep, tail = text.partition(":")
        engine = head.strip()
        if engine == "dense":
            raise ValidationError(
                f"bad engine spec {text!r}: the dense engine was removed; "
                f"'indexed' makes the same decisions")
        if engine != "indexed":
            raise ValidationError(
                f"unknown placement engine {engine!r}; the engine is "
                f"'indexed'")
        gamma: int | None = None
        mode: str | None = None
        if sep:
            for item in tail.split(","):
                key, eq, raw = item.partition("=")
                key, raw = key.strip(), raw.strip()
                if not eq:
                    raise ValidationError(
                        f"bad engine spec {text!r}: expected "
                        f"key=value, got {item!r}")
                if key == "kernel":  # selects nothing: checked, dropped
                    if raw not in ("on", "off", "true", "false"):
                        raise ValidationError(
                            f"bad engine spec {text!r}: kernel must be "
                            f"on/off, got {raw!r}")
                elif key == "shards":
                    _check_legacy_shards(raw, f"bad engine spec {text!r}")
                elif key == "gamma":
                    try:
                        gamma = int(raw)
                    except ValueError:
                        raise ValidationError(
                            f"bad engine spec {text!r}: gamma must be "
                            f"an integer, got {raw!r}") from None
                elif key == "mode":
                    mode = raw
                else:
                    raise ValidationError(
                        f"bad engine spec {text!r}: unknown option "
                        f"{key!r} (valid: gamma, mode)")
        robustness: RobustnessConfig | None = None
        if gamma is not None or mode is not None:
            robustness = RobustnessConfig(
                gamma=0 if gamma is None else gamma,
                mode="gamma" if mode is None else mode)
        return cls(robustness=robustness)

    @classmethod
    def coerce(cls, value: "EngineConfig | str | None", *,
               warn: bool = True) -> "EngineConfig":
        """Normalize a constructor's ``engine`` argument.

        ``None`` means the default config; an :class:`EngineConfig`
        passes through. For public constructors (``warn=True``, the
        historical default) a bare string is **rejected** — the
        deprecation cycle is over; pass an :class:`EngineConfig`, or
        use an entry point documented to take a spec string
        (``make_allocator``, the service store, the CLI). Internal
        plumbing that *is* such a sanctioned spec-string surface passes
        ``warn=False`` and keeps parsing strings silently.
        """
        if value is None:
            return cls()
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            if warn:
                raise ValidationError(
                    "passing the placement engine as a bare constructor "
                    "string was removed after its deprecation cycle; "
                    "pass an EngineConfig (e.g. EngineConfig.parse("
                    f"{value!r})) — see docs/api.md, 'Engine "
                    "configuration'")
            return cls.parse(value)
        raise ValidationError(
            f"engine must be an EngineConfig or a spec string, "
            f"got {value!r}")
