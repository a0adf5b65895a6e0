"""Extended workload families beyond the paper's Poisson model.

The paper evaluates only homogeneous Poisson arrivals with exponential
durations. Real cloud arrival processes are burstier and show daily
seasonality, and VM lifetimes are heavy-tailed; these generators let the
examples and robustness benches probe whether the heuristic's advantage
survives such traffic. All of them produce the same ``list[VM]`` currency
as :class:`~repro.workload.generator.PoissonWorkload`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import ValidationError
from repro.model.catalog import ALL_VM_TYPES
from repro.model.vm import VM, VMSpec
from repro.workload.generator import _build_vms

__all__ = ["BurstyWorkload", "DiurnalWorkload", "HeavyTailWorkload"]


def _coerce_rng(rng: np.random.Generator | int | None) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


@dataclass(frozen=True)
class BurstyWorkload:
    """Two-state modulated Poisson process (bursts and lulls).

    The arrival process alternates between a *burst* state with mean
    inter-arrival ``burst_interarrival`` and a *calm* state with mean
    ``calm_interarrival``; the state flips after a geometric number of
    arrivals with mean ``mean_phase_length``.
    """

    burst_interarrival: float
    calm_interarrival: float
    mean_phase_length: float = 20.0
    mean_duration: float = 5.0
    vm_types: tuple[VMSpec, ...] = field(default=ALL_VM_TYPES)

    def __post_init__(self) -> None:
        for name in ("burst_interarrival", "calm_interarrival",
                     "mean_phase_length", "mean_duration"):
            if getattr(self, name) <= 0:
                raise ValidationError(f"{name} must be positive")
        if not self.vm_types:
            raise ValidationError("vm_types must be non-empty")

    def generate(self, count: int,
                 rng: np.random.Generator | int | None = None) -> list[VM]:
        rng = _coerce_rng(rng)
        switch_p = 1.0 / self.mean_phase_length
        in_burst = True
        clock = 0.0
        arrivals = np.empty(count, dtype=int)
        for i in range(count):
            mean = (self.burst_interarrival if in_burst
                    else self.calm_interarrival)
            clock += rng.exponential(mean)
            arrivals[i] = 1 + int(clock)
            if rng.random() < switch_p:
                in_burst = not in_burst
        durations = np.maximum(
            1, np.rint(rng.exponential(self.mean_duration,
                                       size=count))).astype(int)
        types = rng.integers(len(self.vm_types), size=count)
        return _build_vms(arrivals, durations, types, self.vm_types)


@dataclass(frozen=True)
class DiurnalWorkload:
    """Sinusoidally modulated arrival rate with a fixed period.

    The instantaneous arrival rate is
    ``base_rate * (1 + amplitude * sin(2*pi*t/period))``, sampled by
    thinning a dominating Poisson process — the standard simulation of a
    non-homogeneous Poisson process.
    """

    base_interarrival: float
    period: float = 1440.0  # one day of minutes
    amplitude: float = 0.8
    mean_duration: float = 5.0
    vm_types: tuple[VMSpec, ...] = field(default=ALL_VM_TYPES)

    def __post_init__(self) -> None:
        if self.base_interarrival <= 0:
            raise ValidationError("base_interarrival must be positive")
        if self.period <= 0:
            raise ValidationError("period must be positive")
        if not 0 <= self.amplitude <= 1:
            raise ValidationError(
                f"amplitude must be within [0, 1], got {self.amplitude}")
        if self.mean_duration <= 0:
            raise ValidationError("mean_duration must be positive")
        if not self.vm_types:
            raise ValidationError("vm_types must be non-empty")

    def generate(self, count: int,
                 rng: np.random.Generator | int | None = None) -> list[VM]:
        rng = _coerce_rng(rng)
        base_rate = 1.0 / self.base_interarrival
        peak_rate = base_rate * (1 + self.amplitude)
        clock = 0.0
        arrivals = np.empty(count, dtype=int)
        accepted = 0
        while accepted < count:
            clock += rng.exponential(1.0 / peak_rate)
            rate = base_rate * (
                1 + self.amplitude * np.sin(2 * np.pi * clock / self.period))
            if rng.random() < rate / peak_rate:
                arrivals[accepted] = 1 + int(clock)
                accepted += 1
        durations = np.maximum(
            1, np.rint(rng.exponential(self.mean_duration,
                                       size=count))).astype(int)
        types = rng.integers(len(self.vm_types), size=count)
        return _build_vms(arrivals, durations, types, self.vm_types)


@dataclass(frozen=True)
class HeavyTailWorkload:
    """Poisson arrivals with Pareto (heavy-tailed) durations.

    ``shape`` is the Pareto tail index; values just above 1 give very heavy
    tails. The scale is chosen so the distribution's mean equals
    ``mean_duration`` (requires ``shape > 1``).
    """

    mean_interarrival: float
    mean_duration: float = 5.0
    shape: float = 1.5
    vm_types: tuple[VMSpec, ...] = field(default=ALL_VM_TYPES)

    def __post_init__(self) -> None:
        if self.mean_interarrival <= 0:
            raise ValidationError("mean_interarrival must be positive")
        if self.mean_duration <= 0:
            raise ValidationError("mean_duration must be positive")
        if self.shape <= 1:
            raise ValidationError(
                f"shape must exceed 1 for a finite mean, got {self.shape}")
        if not self.vm_types:
            raise ValidationError("vm_types must be non-empty")

    def generate(self, count: int,
                 rng: np.random.Generator | int | None = None) -> list[VM]:
        rng = _coerce_rng(rng)
        gaps = rng.exponential(self.mean_interarrival, size=count)
        arrivals = 1 + np.floor(np.cumsum(gaps)).astype(int)
        scale = self.mean_duration * (self.shape - 1) / self.shape
        durations = np.maximum(
            1, np.rint(scale * (1 + rng.pareto(self.shape,
                                               size=count)))).astype(int)
        types = rng.integers(len(self.vm_types), size=count)
        return _build_vms(arrivals, durations, types, self.vm_types)
