"""Name -> allocator registry and the construction API.

:func:`make_allocator` is the one way to build an allocator from
configuration (CLI flags, service config, experiment harnesses): it looks
the class up by its registered name and forwards arbitrary keyword
parameters to the constructor, validating both against the registry so a
typo fails fast with the valid choices spelled out — as a typed
:class:`~repro.exceptions.AllocatorConfigError` — instead of surfacing as
a bare ``TypeError`` deep in a run.
"""

from __future__ import annotations

import importlib
import inspect
from typing import TYPE_CHECKING, Any, Type

from repro.energy.cost import SleepPolicy
from repro.exceptions import AllocatorConfigError, ValidationError
from repro.placement.config import EngineConfig

if TYPE_CHECKING:
    from repro.allocators.base import Allocator

__all__ = ["ALLOCATORS", "make_allocator", "allocator_names"]

#: name -> (home module, class): :func:`make_allocator` imports the one
#: it builds, so a daemon loads its own allocator's module and no other.
_HOMES: dict[str, tuple[str, str]] = {
    "min-energy": ("repro.allocators.min_energy", "MinIncrementalEnergy"),
    "ffps": ("repro.allocators.ffps", "FirstFitPowerSaving"),
    "first-fit": ("repro.allocators.first_fit", "FirstFit"),
    "best-fit": ("repro.allocators.best_fit", "BestFit"),
    "worst-fit": ("repro.allocators.worst_fit", "WorstFit"),
    "random-fit": ("repro.allocators.random_fit", "RandomFit"),
    "round-robin": ("repro.allocators.round_robin", "RoundRobin"),
    "power-aware": ("repro.allocators.power_aware", "PowerAwareFirstFit"),
    "gamma-ff": ("repro.allocators.gamma_ff", "GammaFF"),
    "min-energy-offline": ("repro.allocators.offline", "OfflineMinEnergy"),
    "min-energy-longest": ("repro.allocators.offline",
                           "LongestFirstMinEnergy"),
}


def _load(name: str) -> Type[Allocator]:
    module, cls = _HOMES[name]
    return getattr(importlib.import_module(module), cls)


def __getattr__(name: str) -> Any:
    # ``ALLOCATORS`` (name -> class) imports every allocator, so it is
    # built on first read.
    if name != "ALLOCATORS":
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    allocators = globals()["ALLOCATORS"] = {key: _load(key)
                                            for key in _HOMES}
    return allocators


def allocator_names() -> list[str]:
    """All registered algorithm names, sorted."""
    return sorted(_HOMES)


def _accepted_params(cls: Type[Allocator]) -> list[str]:
    """Keyword parameters ``cls`` accepts (the whole __init__ chain)."""
    return [p.name for p in inspect.signature(cls).parameters.values()
            if p.kind in (inspect.Parameter.KEYWORD_ONLY,
                          inspect.Parameter.POSITIONAL_OR_KEYWORD)]


def make_allocator(name: str, **params: Any) -> Allocator:
    """Instantiate a registered allocator by name.

    All keyword ``params`` are forwarded to the constructor; common ones
    (``seed``, ``policy``, ``engine``) are accepted by every algorithm,
    and extensions may add their own. ``policy`` may be given as the
    :class:`SleepPolicy` value string (e.g. ``"never-sleep"``) and
    ``engine`` as an :class:`EngineConfig` spec string (e.g.
    ``"indexed"``, ``"indexed:gamma=2"``) — this is the sanctioned
    string entry point for CLIs and config files, so no deprecation
    fires here.

    Raises
    ------
    AllocatorConfigError
        For an unknown ``name`` or a parameter the allocator does not
        accept; the message lists the valid choices.
    """
    if name not in _HOMES:
        raise AllocatorConfigError(
            f"unknown allocator {name!r}; available: {allocator_names()}"
        )
    cls = _load(name)
    policy = params.get("policy")
    if isinstance(policy, str):
        try:
            params["policy"] = SleepPolicy(policy)
        except ValueError:
            raise AllocatorConfigError(
                f"unknown sleep policy {policy!r}; valid policies: "
                f"{[p.value for p in SleepPolicy]}") from None
    engine = params.get("engine")
    if isinstance(engine, str):
        try:
            params["engine"] = EngineConfig.parse(engine)
        except ValidationError as exc:
            raise AllocatorConfigError(str(exc)) from None
    accepted = _accepted_params(cls)
    unknown = sorted(set(params) - set(accepted))
    if unknown:
        raise AllocatorConfigError(
            f"allocator {name!r} does not accept parameter(s) "
            f"{unknown}; accepted: {sorted(accepted)}")
    return cls(**params)
