"""Failure injection: server crashes and VM recovery.

A production allocator must survive servers dying underneath it. This
module replays a plan while injecting crashes: at each failure time the
victim server drops out of the eligible fleet, its still-running VMs are
killed, and their *remainders* (from the next time unit to their original
finish) are re-placed by a recovery allocator onto the surviving fleet —
the standard restart-elsewhere recovery of stateless cloud workloads.

The outcome quantifies both the energy of the repaired plan (including
any double-paid work: the interrupted head of a VM still consumed energy)
and the disruption (VMs killed, re-placements, unrecoverable VMs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.allocators.base import Allocator
from repro.allocators.min_energy import MinIncrementalEnergy
from repro.exceptions import ValidationError
from repro.model.allocation import Allocation
from repro.model.cluster import Cluster
from repro.model.vm import VM
from repro.simulation.recovery import recover_target, split_remainder

__all__ = ["ServerFailure", "FailureOutcome", "inject_failures",
           "random_failures"]


@dataclass(frozen=True)
class ServerFailure:
    """A server crashes at ``time`` and never returns."""

    server_id: int
    time: int

    def __post_init__(self) -> None:
        if self.time < 1:
            raise ValidationError(
                f"failure time must be >= 1, got {self.time}")


@dataclass(frozen=True)
class FailureOutcome:
    """Result of replaying a plan under injected crashes."""

    allocation: Allocation
    killed: int
    recovered: int
    lost: tuple[VM, ...]
    wasted_energy: float
    total_energy: float

    @property
    def recovery_rate(self) -> float:
        """Fraction of killed VMs whose remainder found a new home."""
        if self.killed == 0:
            return 1.0
        return self.recovered / self.killed


def random_failures(cluster: Cluster, count: int, horizon: int,
                    seed: int | None = None) -> list[ServerFailure]:
    """``count`` distinct servers crashing at uniform random times."""
    if count < 0:
        raise ValidationError(f"count must be >= 0, got {count}")
    if count > len(cluster):
        raise ValidationError(
            f"cannot fail {count} of {len(cluster)} servers")
    if horizon < 1:
        raise ValidationError(f"horizon must be >= 1, got {horizon}")
    import numpy as np

    rng = np.random.default_rng(seed)
    victims = rng.choice(len(cluster), size=count, replace=False)
    times = rng.integers(1, horizon + 1, size=count)
    return [ServerFailure(server_id=int(s), time=int(t))
            for s, t in zip(victims, times)]


def inject_failures(allocation: Allocation,
                    failures: Iterable[ServerFailure], *,
                    recovery: Allocator | None = None
                    ) -> FailureOutcome:
    """Replay ``allocation`` under crashes; returns the repaired plan.

    For each failure (processed in time order): VMs running on the victim
    at the failure time are killed; the energy of their interrupted heads
    is *wasted* (already spent, no useful completion); their remainders —
    ``[failure_time + 1, end]`` — are offered to the recovery allocator
    over the surviving servers. Remainders that fit nowhere are reported
    in ``lost``. VMs whose whole interval lies after the failure are
    simply re-placed without waste. The plan is booked as given on the
    recovery allocator's books, whose policy and engine (Γ included)
    price and admit every re-placement.
    """
    cluster = allocation.cluster
    recovery = recovery if recovery is not None else MinIncrementalEnergy()
    ordered_failures = sorted(failures, key=lambda f: (f.time, f.server_id))
    seen = set()
    for failure in ordered_failures:
        if not 0 <= failure.server_id < len(cluster):
            raise ValidationError(
                f"failure names unknown server {failure.server_id}")
        if failure.server_id in seen:
            raise ValidationError(
                f"server {failure.server_id} fails twice")
        seen.add(failure.server_id)

    dead: dict[int, int] = {}  # server id -> death time
    states = recovery.books(cluster)
    placements: dict[VM, int] = {}
    next_id = max((vm.vm_id for vm in allocation), default=-1) + 1
    for vm in allocation.vms:
        states[allocation.server_of(vm)].place_trusted(vm)
        placements[vm] = allocation.server_of(vm)

    killed = 0
    recovered = 0
    lost: list[VM] = []
    wasted = 0.0
    recovery.prepare(states)
    for failure in ordered_failures:
        dead[failure.server_id] = failure.time
        victim_state = states[failure.server_id]
        affected = [vm for vm in list(victim_state.vms)
                    if vm.end >= failure.time]
        for vm in sorted(affected, key=lambda v: (v.start, v.vm_id)):
            victim_state.remove(vm)
            del placements[vm]
            head, remainder, next_id = split_remainder(vm, failure.time,
                                                       next_id)
            if head is not None:
                killed += 1
                # The head ran and its energy is spent but useless; it
                # stays on the dead server's books as waste.
                wasted += victim_state.place_trusted(head)
                placements[head] = failure.server_id
            target = recover_target(remainder, states, dead, recovery)
            if target is None:
                lost.append(vm)
                continue
            target.place(remainder)
            placements[remainder] = target.server.server_id
            if remainder is not vm:
                recovered += 1

    repaired = Allocation(cluster, placements)
    total = sum(state.cost for state in states)
    return FailureOutcome(
        allocation=repaired,
        killed=killed,
        recovered=recovered,
        lost=tuple(lost),
        wasted_energy=wasted,
        total_energy=total,
    )
