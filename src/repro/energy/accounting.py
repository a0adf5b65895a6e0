"""Fleet-level energy reports and active-timeline derivation.

Beyond the scalar Eq.-17 cost, the experiments and the exact-solver
cross-checks need the *server state trajectory* an allocation implies: for
every server, which time units it is active (the ``y_it`` variables of the
ILP) and how many power-saving -> active transitions occur. This module
derives that trajectory from the busy/idle decomposition plus the sleep
policy, and packages per-server and fleet-level reports.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.energy.cost import (
    CostBreakdown,
    SleepPolicy,
    _sleeps,
    server_cost,
)
from repro.energy.segments import ServerTimeline, timeline_of
from repro.model.allocation import Allocation
from repro.model.intervals import TimeInterval, merge_intervals

__all__ = ["ServerReport", "EnergyReport", "active_intervals",
           "transition_count", "energy_report"]


def active_intervals(timeline: ServerTimeline, spec_transition_cost: float,
                     p_idle: float,
                     policy: SleepPolicy = SleepPolicy.OPTIMAL
                     ) -> list[TimeInterval]:
    """Time intervals during which the server is in the active state.

    A server is active through every busy segment and through every idle
    gap it does *not* sleep through; sleeping splits the active span.
    """
    if not timeline.busy:
        return []
    pieces: list[TimeInterval] = list(timeline.busy)
    for gap in timeline.idle:
        if not _sleeps(spec_transition_cost, p_idle, gap.length, policy):
            pieces.append(gap)
    return merge_intervals(pieces)


def transition_count(timeline: ServerTimeline, spec_transition_cost: float,
                     p_idle: float,
                     policy: SleepPolicy = SleepPolicy.OPTIMAL) -> int:
    """Number of power-saving -> active transitions (each costs alpha).

    One initial wake-up plus one per slept-through gap.
    """
    if not timeline.busy:
        return 0
    wakes = 1
    for gap in timeline.idle:
        if _sleeps(spec_transition_cost, p_idle, gap.length, policy):
            wakes += 1
    return wakes


@dataclass(frozen=True)
class ServerReport:
    """Energy and state statistics for one server."""

    server_id: int
    spec_name: str
    vm_count: int
    cost: CostBreakdown
    timeline: ServerTimeline
    active: tuple[TimeInterval, ...]
    transitions: int

    @property
    def active_length(self) -> int:
        """Total time units spent in the active state."""
        return sum(iv.length for iv in self.active)


@dataclass(frozen=True)
class EnergyReport:
    """Fleet-level energy report for a complete allocation."""

    servers: tuple[ServerReport, ...]
    total: CostBreakdown
    policy: SleepPolicy

    @property
    def total_energy(self) -> float:
        return self.total.total

    @property
    def servers_used(self) -> int:
        return len(self.servers)

    @property
    def total_transitions(self) -> int:
        return sum(r.transitions for r in self.servers)

    def by_server(self) -> dict[int, ServerReport]:
        return {r.server_id: r for r in self.servers}


def energy_report(allocation: Allocation, *,
                  policy: SleepPolicy = SleepPolicy.OPTIMAL,
                  include_initial_wake: bool = True) -> EnergyReport:
    """Build the full per-server report for an allocation."""
    reports: list[ServerReport] = []
    total = CostBreakdown(0.0, 0.0, 0.0, 0.0)
    for server_id in allocation.used_servers():
        server = allocation.cluster.server(server_id)
        vms = allocation.vms_on(server_id)
        timeline = timeline_of(vms)
        cost = server_cost(server.spec, vms, policy=policy,
                           include_initial_wake=include_initial_wake,
                           timeline=timeline)
        active = active_intervals(timeline, server.spec.transition_cost,
                                  server.spec.p_idle, policy)
        transitions = transition_count(
            timeline, server.spec.transition_cost, server.spec.p_idle,
            policy)
        reports.append(ServerReport(
            server_id=server_id,
            spec_name=server.spec.name,
            vm_count=len(vms),
            cost=cost,
            timeline=timeline,
            active=tuple(active),
            transitions=transitions,
        ))
        total = total + cost
    return EnergyReport(servers=tuple(reports), total=total, policy=policy)
