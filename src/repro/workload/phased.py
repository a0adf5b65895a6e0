"""Workloads with time-varying (phased) VM demand.

Real VM CPU usage is rarely flat: jobs ramp up, compute, and drain. This
generator produces :class:`~repro.model.phases.PhasedVM` requests whose
lifetime splits into 1-``max_phases`` consecutive phases; CPU demand per
phase is a random fraction of the VM type's nominal demand (one phase
always runs at the full nominal level, which is therefore the peak the
scheduler must reserve against), while memory stays flat — the common
shape of batch and service workloads.

Arrival and duration statistics match the paper's Poisson model, so
stable-vs-phased comparisons isolate the effect of demand variability.

With ``uncertainty > 0`` every generated VM additionally declares a
demand *interval*: its spec carries ``cpu_radius = uncertainty * cpu``
and ``mem_radius = uncertainty * memory``, feeding Γ-robust placement
(:mod:`repro.robust`). At the default 0 the specs are the shared
catalog entries, radius-free, and generation is bit-identical to
earlier releases.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import ValidationError
from repro.model.catalog import ALL_VM_TYPES
from repro.model.intervals import TimeInterval
from repro.model.phases import DemandPhase, PhasedVM
from repro.model.vm import VMSpec

__all__ = ["PhasedWorkload"]


@dataclass(frozen=True)
class PhasedWorkload:
    """Poisson arrivals of phased-demand VMs."""

    mean_interarrival: float
    mean_duration: float = 5.0
    vm_types: tuple[VMSpec, ...] = field(default=ALL_VM_TYPES)
    max_phases: int = 3
    min_load_fraction: float = 0.3
    uncertainty: float = 0.0

    def __post_init__(self) -> None:
        if self.mean_interarrival <= 0:
            raise ValidationError("mean_interarrival must be positive")
        if self.mean_duration <= 0:
            raise ValidationError("mean_duration must be positive")
        if self.max_phases < 1:
            raise ValidationError(
                f"max_phases must be >= 1, got {self.max_phases}")
        if not 0 < self.min_load_fraction <= 1:
            raise ValidationError(
                "min_load_fraction must be in (0, 1], got "
                f"{self.min_load_fraction}")
        if not 0 <= self.uncertainty <= 1:
            raise ValidationError(
                f"uncertainty must be in [0, 1], got {self.uncertainty}")
        if not self.vm_types:
            raise ValidationError("vm_types must be non-empty")

    def generate(self, count: int,
                 rng: np.random.Generator | int | None = None
                 ) -> list[PhasedVM]:
        """Draw ``count`` phased VM requests, ids by arrival order."""
        if count < 0:
            raise ValidationError(f"count must be non-negative, got {count}")
        if not isinstance(rng, np.random.Generator):
            rng = np.random.default_rng(rng)
        gaps = rng.exponential(self.mean_interarrival, size=count)
        arrivals = 1 + np.floor(np.cumsum(gaps)).astype(int)
        durations = np.maximum(
            1, np.rint(rng.exponential(self.mean_duration,
                                       size=count))).astype(int)
        type_indices = rng.integers(len(self.vm_types), size=count)
        specs = self.vm_types
        if self.uncertainty > 0:
            specs = tuple(
                VMSpec(name=s.name, cpu=s.cpu, memory=s.memory,
                       cpu_radius=self.uncertainty * s.cpu,
                       mem_radius=self.uncertainty * s.memory)
                for s in self.vm_types)
        vms = []
        for i, (start, duration, kind) in enumerate(zip(
                arrivals.tolist(), durations.tolist(),
                type_indices.tolist())):
            spec = specs[kind]
            phases = self._draw_phases(rng, spec, duration)
            vms.append(PhasedVM(
                vm_id=i, spec=spec,
                interval=TimeInterval(start, start + duration - 1),
                phases=phases))
        return vms

    def _draw_phases(self, rng: np.random.Generator, spec: VMSpec,
                     duration: int) -> tuple[DemandPhase, ...]:
        n_phases = int(rng.integers(1, min(self.max_phases, duration) + 1))
        # Random composition of `duration` into n_phases positive parts.
        if n_phases == 1:
            lengths = [duration]
        else:
            cuts = np.sort(rng.choice(np.arange(1, duration),
                                      size=n_phases - 1, replace=False))
            bounds = np.concatenate(([0], cuts, [duration]))
            lengths = list(np.diff(bounds).astype(int))
        fractions = rng.uniform(self.min_load_fraction, 1.0,
                                size=n_phases)
        fractions[int(rng.integers(n_phases))] = 1.0  # peak phase
        return tuple(
            DemandPhase(duration=int(length),
                        cpu=float(spec.cpu * fraction),
                        memory=spec.memory)
            for length, fraction in zip(lengths, fractions))
