"""Server specifications and instances.

A :class:`ServerSpec` corresponds to a row of the paper's Table II: resource
capacities plus the affine power-model parameters and the state-transition
time. Servers are *non-homogeneous* — every spec carries its own power curve
and transition cost, which is the central modelling difference from prior
work the paper highlights.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.exceptions import ValidationError

__all__ = ["ServerSpec", "Server"]


@dataclass(frozen=True, slots=True)
class ServerSpec:
    """An immutable server type.

    Parameters
    ----------
    name:
        Human-readable type name (e.g. ``"type1"``).
    cpu_capacity:
        CPU capacity ``C^CPU_i`` in compute units.
    memory_capacity:
        Memory capacity ``C^MEM_i`` in GBytes.
    p_idle:
        Power draw (watts) when active but running no load.
    p_peak:
        Power draw (watts) at 100 % CPU load.
    transition_time:
        Time units needed to switch from power-saving to active state.
        During the whole switch the server draws peak power (Gandhi et al.,
        IGCC'12), so the transition energy is ``alpha = p_peak *
        transition_time``.
    """

    name: str
    cpu_capacity: float
    memory_capacity: float
    p_idle: float
    p_peak: float
    transition_time: float = 1.0
    #: Stored at construction: the energy ``alpha_i = P_peak,i *
    #: transition_time_i`` of one power-saving -> active switch, drawn at
    #: peak power throughout (Sec. IV-B3), and the marginal power
    #: ``P^1_i`` of one compute unit of load (Eq. 2).
    transition_cost: float = field(init=False, compare=False, repr=False)
    power_per_cpu_unit: float = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.cpu_capacity <= 0:
            raise ValidationError(f"server type {self.name!r}: cpu_capacity "
                                  f"must be positive, got {self.cpu_capacity}")
        if self.memory_capacity <= 0:
            raise ValidationError(
                f"server type {self.name!r}: memory_capacity must be "
                f"positive, got {self.memory_capacity}")
        if self.p_idle < 0:
            raise ValidationError(f"server type {self.name!r}: p_idle must "
                                  f"be non-negative, got {self.p_idle}")
        if self.p_peak < self.p_idle:
            raise ValidationError(
                f"server type {self.name!r}: p_peak ({self.p_peak}) must be "
                f">= p_idle ({self.p_idle})")
        if self.transition_time < 0:
            raise ValidationError(
                f"server type {self.name!r}: transition_time must be "
                f"non-negative, got {self.transition_time}")
        object.__setattr__(self, "transition_cost",
                           self.p_peak * self.transition_time)
        object.__setattr__(self, "power_per_cpu_unit",
                           (self.p_peak - self.p_idle) / self.cpu_capacity)

    @property
    def idle_peak_ratio(self) -> float:
        """``P_idle / P_peak`` — the paper keeps this in the 40-50 % band."""
        return self.p_idle / self.p_peak

    def power_at_load(self, cpu_used: float) -> float:
        """Active power at ``cpu_used`` compute units of load (Eq. 1).

        ``P(u) = P_idle + (P_peak - P_idle) * u`` with
        ``u = cpu_used / cpu_capacity``.
        """
        if cpu_used < 0:
            raise ValidationError(f"cpu_used must be non-negative, got "
                                  f"{cpu_used}")
        utilization = cpu_used / self.cpu_capacity
        if utilization > 1 + 1e-9:
            raise ValidationError(
                f"cpu_used {cpu_used} exceeds capacity {self.cpu_capacity} "
                f"of server type {self.name!r}")
        return self.p_idle + (self.p_peak - self.p_idle) * min(utilization, 1.0)

    def with_transition_time(self, transition_time: float) -> "ServerSpec":
        """A copy of this spec with a different transition time."""
        return replace(self, transition_time=transition_time)

    def __str__(self) -> str:
        return (f"{self.name}({self.cpu_capacity}cu/"
                f"{self.memory_capacity}GB, {self.p_idle}-{self.p_peak}W)")


@dataclass(frozen=True)
class Server:
    """A physical server: a spec bound to a fleet-unique id."""

    server_id: int
    spec: ServerSpec

    def __post_init__(self) -> None:
        if self.server_id < 0:
            raise ValidationError(f"server_id must be non-negative, got "
                                  f"{self.server_id}")

    @property
    def cpu_capacity(self) -> float:
        return self.spec.cpu_capacity

    @property
    def memory_capacity(self) -> float:
        return self.spec.memory_capacity

    @property
    def p_idle(self) -> float:
        return self.spec.p_idle

    @property
    def p_peak(self) -> float:
        return self.spec.p_peak

    @property
    def transition_cost(self) -> float:
        return self.spec.transition_cost

    @property
    def power_per_cpu_unit(self) -> float:
        return self.spec.power_per_cpu_unit

    def fits(self, cpu: float, memory: float) -> bool:
        """Whether a demand could ever fit on an empty instance of this
        server (a necessary feasibility condition for any placement)."""
        return cpu <= self.cpu_capacity and memory <= self.memory_capacity

    def __str__(self) -> str:
        return f"srv{self.server_id}:{self.spec.name}"
