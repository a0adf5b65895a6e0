"""Workload generation following the paper's Sec. IV-B1.

VM requests arrive according to a **Poisson process** (exponential
inter-arrival times with configurable mean); each VM's length follows an
**exponential distribution** with configurable mean; starting and finishing
times are integers; and each VM's resource demand is drawn uniformly from a
set of Table I types and stays stable for its lifetime.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.exceptions import ValidationError
from repro.model.catalog import ALL_VM_TYPES
from repro.model.intervals import TimeInterval
from repro.model.vm import VM, VMSpec

__all__ = ["PoissonWorkload", "generate_vms"]


@dataclass(frozen=True)
class PoissonWorkload:
    """The paper's workload family.

    Parameters
    ----------
    mean_interarrival:
        Mean time between consecutive VM arrivals, in time units. The
        paper sweeps this from 0.5 to 10 minutes.
    mean_duration:
        Mean VM length in time units (paper: 2, 5 or 10; default 5).
    vm_types:
        The Table I types to sample uniformly (default: all nine).
    """

    mean_interarrival: float
    mean_duration: float = 5.0
    vm_types: tuple[VMSpec, ...] = field(default=ALL_VM_TYPES)

    def __post_init__(self) -> None:
        if self.mean_interarrival <= 0:
            raise ValidationError(
                f"mean_interarrival must be positive, got "
                f"{self.mean_interarrival}")
        if self.mean_duration <= 0:
            raise ValidationError(
                f"mean_duration must be positive, got {self.mean_duration}")
        if not self.vm_types:
            raise ValidationError("vm_types must be non-empty")

    def generate(self, count: int,
                 rng: np.random.Generator | int | None = None) -> list[VM]:
        """Draw ``count`` VM requests, ids ``0..count-1`` by arrival order.

        Arrival times accumulate exponential inter-arrival gaps and are
        floored to integer time units starting at 1; durations are
        exponential, rounded to at least one time unit.
        """
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
        return _build_vms(arrivals, durations, type_indices, self.vm_types)


def _build_vms(arrivals: np.ndarray, durations: np.ndarray,
               type_indices: np.ndarray,
               vm_types: Sequence[VMSpec]) -> list[VM]:
    """VMs ``0..n-1`` from the drawn arrival times, lengths and types;
    each draw is read once, as a list."""
    return [VM(vm_id=i, spec=vm_types[kind],
               interval=TimeInterval(start, start + length - 1))
            for i, (start, length, kind) in enumerate(zip(
                arrivals.tolist(), durations.tolist(),
                type_indices.tolist()))]


def generate_vms(count: int, mean_interarrival: float,
                 mean_duration: float = 5.0,
                 vm_types: Sequence[VMSpec] = ALL_VM_TYPES,
                 seed: int | None = None) -> list[VM]:
    """One-call convenience wrapper around :class:`PoissonWorkload`."""
    workload = PoissonWorkload(mean_interarrival=mean_interarrival,
                               mean_duration=mean_duration,
                               vm_types=tuple(vm_types))
    return workload.generate(count, rng=seed)
