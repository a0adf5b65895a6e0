"""Per-server and per-allocation energy cost (Eq. 15-17 of the paper).

The cost of a server hosting a set of VMs over the planning period has four
components:

* **run cost** — ``sum_j W_ij``, the marginal energy of the VMs (Eq. 3/15);
* **busy idle-power** — ``P_idle * total_busy_length``, keeping the server
  active while it hosts anything (Eq. 15);
* **gap cost** — for every idle gap, the cheaper of staying active
  (``P_idle * gap_length``) or sleeping through it and paying one wake-up
  (``alpha``) (Eq. 16);
* **initial wake** — one ``alpha`` to leave the power-saving state at the
  first busy segment. The OCR'd Eq. (17) omits this term but the ILP
  objective charges every 0->1 transition of ``y_it`` including the first
  (``y_i,0 = 0``); see DESIGN.md. It is applied identically to every
  algorithm, so comparisons are unaffected by the convention.

The gap decision is also exposed as a :class:`SleepPolicy` so ablations can
measure the value of the ``min(idle, alpha)`` rule against never/always
sleeping.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

from repro.energy.power import run_energy
from repro.energy.segments import ServerTimeline, timeline_of
from repro.model.allocation import Allocation
from repro.model.intervals import TimeInterval
from repro.model.server import ServerSpec
from repro.model.vm import VM

__all__ = ["SleepPolicy", "CostBreakdown", "server_cost",
           "allocation_cost", "gap_cost", "saturating_gap", "sleeps_through",
           "wake_delta"]


class SleepPolicy(enum.Enum):
    """How a server treats an idle gap between two busy segments."""

    #: Sleep iff cheaper: ``min(P_idle * len, alpha)`` — the paper's rule.
    OPTIMAL = "optimal"
    #: Stay active through every gap (pay ``P_idle * len``).
    NEVER_SLEEP = "never-sleep"
    #: Sleep through every gap (pay ``alpha`` regardless of gap length).
    ALWAYS_SLEEP = "always-sleep"


def _sleeps(alpha: float, p_idle: float, length: int,
            policy: SleepPolicy) -> bool:
    """The Eq.-16 sleep rule, stated once: a server sleeps through an
    idle gap of ``length`` ticks iff ``policy`` says so — under OPTIMAL
    iff one wake-up ``alpha`` costs less than idling through it."""
    if policy is SleepPolicy.OPTIMAL:
        return alpha < p_idle * length
    return policy is SleepPolicy.ALWAYS_SLEEP


def sleeps_through(spec: ServerSpec, gap: TimeInterval,
                   policy: SleepPolicy = SleepPolicy.OPTIMAL) -> bool:
    """Whether the server powers down for ``gap`` under ``policy``."""
    return _sleeps(spec.transition_cost, spec.p_idle, gap.length, policy)


def gap_cost(spec: ServerSpec, gap: TimeInterval,
             policy: SleepPolicy = SleepPolicy.OPTIMAL) -> float:
    """Energy spent over one idle gap under the given sleep policy."""
    return _gap_length_cost(spec, gap.length, policy)


def saturating_gap(spec: ServerSpec, policy: SleepPolicy) -> int | None:
    """The shortest idle gap the server sleeps through under ``policy``
    — as through every longer one, each costing exactly ``alpha``
    (Eq. 16): the smallest ``g`` with ``alpha < P_idle * g`` under
    OPTIMAL (:func:`_sleeps`'s float comparison), 1 under
    ALWAYS_SLEEP, ``None`` under NEVER_SLEEP. A server idle at least
    that long before a VM starts prices the VM exactly as one that
    never ran does."""
    if policy is SleepPolicy.ALWAYS_SLEEP:
        return 1
    if policy is SleepPolicy.NEVER_SLEEP or not spec.p_idle > 0:
        return None
    alpha, p_idle = spec.transition_cost, spec.p_idle
    gap = max(1, math.floor(alpha / p_idle))
    while gap > 1 and _sleeps(alpha, p_idle, gap - 1, policy):
        gap -= 1
    while not _sleeps(alpha, p_idle, gap, policy):
        gap += 1
    return gap


def wake_delta(spec: ServerSpec, length: int) -> float:
    """Eq.-17 delta, less the run cost, of busying ``length`` ticks on a
    server asleep around them — one that never ran, or one idle for at
    least :func:`saturating_gap` ticks before and nothing after: the
    busy idle-power ``P_idle * length`` plus one wake-up ``alpha``. A
    per-type constant for a VM, whatever the policy."""
    return spec.p_idle * length + spec.transition_cost


def _gap_length_cost(spec: ServerSpec, length: int,
                     policy: SleepPolicy) -> float:
    """:func:`gap_cost` from the gap's length alone (the incremental
    cost path knows lengths and builds no intervals)."""
    if _sleeps(spec.transition_cost, spec.p_idle, length, policy):
        return spec.transition_cost
    return spec.p_idle * length


@dataclass(frozen=True)
class CostBreakdown:
    """Energy of one server over the planning period, by component."""

    run: float
    busy_idle: float
    gaps: float
    initial_wake: float

    @property
    def total(self) -> float:
        return self.run + self.busy_idle + self.gaps + self.initial_wake

    def __add__(self, other: "CostBreakdown") -> "CostBreakdown":
        return CostBreakdown(
            run=self.run + other.run,
            busy_idle=self.busy_idle + other.busy_idle,
            gaps=self.gaps + other.gaps,
            initial_wake=self.initial_wake + other.initial_wake,
        )


_ZERO = CostBreakdown(0.0, 0.0, 0.0, 0.0)


def server_cost(spec: ServerSpec, vms: Sequence[VM], *,
                policy: SleepPolicy = SleepPolicy.OPTIMAL,
                include_initial_wake: bool = True,
                timeline: ServerTimeline | None = None) -> CostBreakdown:
    """Eq.-17 energy of one server hosting ``vms``.

    ``timeline`` may be supplied when the caller has already decomposed the
    busy/idle segments (the incremental-cost heuristic evaluates many
    candidate placements and caches timelines).
    """
    if not vms:
        return _ZERO
    if timeline is None:
        timeline = timeline_of(vms)
    run = sum(run_energy(spec, vm) for vm in vms)
    busy_idle = spec.p_idle * timeline.busy_length
    gaps = sum(gap_cost(spec, gap, policy) for gap in timeline.idle)
    wake = spec.transition_cost if include_initial_wake else 0.0
    return CostBreakdown(run=run, busy_idle=busy_idle, gaps=gaps,
                         initial_wake=wake)


def allocation_cost(allocation: Allocation, *,
                    policy: SleepPolicy = SleepPolicy.OPTIMAL,
                    include_initial_wake: bool = True) -> CostBreakdown:
    """Total fleet energy of an allocation (the paper's objective, Eq. 7)."""
    total = _ZERO
    for server_id in allocation.used_servers():
        spec = allocation.cluster.server(server_id).spec
        total = total + server_cost(
            spec, allocation.vms_on(server_id), policy=policy,
            include_initial_wake=include_initial_wake)
    return total
