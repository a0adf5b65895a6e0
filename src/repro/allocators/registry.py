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

import inspect
from typing import Any, Type

from repro.allocators.base import Allocator
from repro.allocators.best_fit import BestFit
from repro.allocators.ffps import FirstFitPowerSaving
from repro.allocators.first_fit import FirstFit
from repro.allocators.gamma_ff import GammaFF
from repro.allocators.min_energy import MinIncrementalEnergy
from repro.allocators.offline import LongestFirstMinEnergy, OfflineMinEnergy
from repro.allocators.power_aware import PowerAwareFirstFit
from repro.allocators.random_fit import RandomFit
from repro.allocators.round_robin import RoundRobin
from repro.allocators.worst_fit import WorstFit
from repro.energy.cost import SleepPolicy
from repro.exceptions import AllocatorConfigError, ValidationError
from repro.placement.config import EngineConfig

__all__ = ["ALLOCATORS", "make_allocator", "allocator_names"]

ALLOCATORS: dict[str, Type[Allocator]] = {
    cls.name: cls
    for cls in (
        MinIncrementalEnergy,
        FirstFitPowerSaving,
        FirstFit,
        BestFit,
        WorstFit,
        RandomFit,
        RoundRobin,
        PowerAwareFirstFit,
        GammaFF,
        OfflineMinEnergy,
        LongestFirstMinEnergy,
    )
}


def allocator_names() -> list[str]:
    """All registered algorithm names, sorted."""
    return sorted(ALLOCATORS)


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
    ``"dense"``, ``"indexed:kernel=off"``) — this is the sanctioned
    string entry point for CLIs and config files, so no deprecation
    fires here.

    Raises
    ------
    AllocatorConfigError
        For an unknown ``name`` or a parameter the allocator does not
        accept; the message lists the valid choices.
    """
    try:
        cls = ALLOCATORS[name]
    except KeyError:
        raise AllocatorConfigError(
            f"unknown allocator {name!r}; available: {allocator_names()}"
        ) from None
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
