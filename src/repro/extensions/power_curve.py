"""Robustness of plans to non-affine power curves — beyond the paper.

The paper's model (and the heuristic's cost function) assumes the affine
power curve of Eq. 1. Measured server power is often mildly convex or
concave in utilisation (Barroso & Hölzle). This module evaluates a
*finished plan* under an arbitrary power model by integrating power per
time unit over each server's actual CPU profile — the question being: do
plans optimised under the affine assumption keep their advantage when the
electricity bill follows a different curve?

Only the evaluation changes; sleep decisions and wake-ups are kept as the
plan's accounting made them (the operator committed to that schedule).
"""

from __future__ import annotations

from dataclasses import dataclass


from repro.energy.accounting import energy_report
from repro.energy.cost import SleepPolicy
from repro.energy.power import PowerModel
from repro.exceptions import ValidationError
from repro.metrics.utilization import server_profiles
from repro.model.allocation import Allocation
from repro.model.server import ServerSpec

__all__ = ["SuperlinearPowerModel", "evaluate_under_model"]


@dataclass(frozen=True)
class SuperlinearPowerModel(PowerModel):
    """``P(u) = P_idle + (P_peak - P_idle) * u**gamma``.

    ``gamma = 1`` recovers the paper's affine model; ``gamma > 1`` makes
    mid-range load cheaper than affine predicts (convex curve, typical of
    DVFS-governed CPUs); ``gamma < 1`` makes it more expensive (concave).
    """

    gamma: float = 1.4

    def __post_init__(self) -> None:
        if self.gamma <= 0:
            raise ValidationError(
                f"gamma must be positive, got {self.gamma}")

    def active_power(self, spec: ServerSpec, cpu_used: float) -> float:
        if cpu_used < 0:
            raise ValidationError(
                f"cpu_used must be non-negative, got {cpu_used}")
        utilization = min(cpu_used / spec.cpu_capacity, 1.0)
        return spec.p_idle + (spec.p_peak - spec.p_idle) * \
            utilization ** self.gamma


def evaluate_under_model(allocation: Allocation, model: PowerModel, *,
                         policy: SleepPolicy = SleepPolicy.OPTIMAL
                         ) -> float:
    """Total energy of ``allocation`` under an arbitrary power model.

    Keeps the plan's wake/sleep schedule (derived from the paper's Eq.-16
    rule) and its transition costs, but integrates active power per time
    unit through ``model`` over each server's real CPU profile.
    """
    report = energy_report(allocation, policy=policy)
    total = 0.0
    for server_report in report.servers:
        server = allocation.cluster.server(server_report.server_id)
        cpu, _ = server_profiles(allocation, server_report.server_id)
        span_start = server_report.timeline.busy[0].start
        for interval in server_report.active:
            for t in range(interval.start, interval.end + 1):
                index = t - span_start
                used = float(cpu[index]) if 0 <= index < cpu.size else 0.0
                total += model.active_power(server.spec, used)
        total += server_report.transitions * server.spec.transition_cost
    return total
