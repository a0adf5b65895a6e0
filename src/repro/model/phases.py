"""Time-varying VM demand (the paper's general ``R_jt`` formulation).

The paper's model lets a VM's CPU and memory demand differ per time unit
(``R^CPU_jt``, ``R^MEM_jt``); its *simulations* then fix demand per VM
("the resource demands of each VM are stable", Sec. IV-B1), which is what
the plain :class:`~repro.model.vm.VM` captures. :class:`PhasedVM`
implements the general case as a sequence of *phases* — consecutive
sub-intervals with constant demand — which is both how real recorders
emit usage (piecewise-constant samples) and exactly expressive enough for
the integer-time model.

:func:`demand_profile` is the uniform accessor the rest of the library
uses: it yields ``(interval, cpu, memory)`` pieces for plain and phased
VMs alike, so capacity tracking, validation, the ILP and the simulator
handle both transparently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.exceptions import ValidationError
from repro.model.intervals import TimeInterval
from repro.model.vm import VM, VMSpec

__all__ = ["DemandPhase", "PhasedVM", "demand_profile", "demand_at"]


@dataclass(frozen=True)
class DemandPhase:
    """A constant-demand stretch of a VM's lifetime."""

    duration: int
    cpu: float
    memory: float

    def __post_init__(self) -> None:
        if self.duration < 1:
            raise ValidationError(
                f"phase duration must be >= 1, got {self.duration}")
        if self.cpu < 0 or self.memory < 0:
            raise ValidationError("phase demands must be non-negative")
        if self.cpu == 0 and self.memory == 0:
            raise ValidationError(
                "a phase must demand some resource (drop the phase "
                "instead of zeroing it)")


@dataclass(frozen=True, slots=True, eq=False)
class PhasedVM(VM):
    """A VM whose demand varies over its lifetime in phases.

    The inherited ``spec`` carries the *peak* demand over all phases, so
    every consumer that treats the VM conservatively (``vm.cpu``,
    ``vm.memory``) remains sound; phase-aware consumers go through
    :func:`demand_profile`, which hands back ``pieces`` — the
    ``(interval, cpu, memory)`` tuple per phase, built once here. Phases
    must tile the interval exactly. ``cpu_time`` is the exact Eq.-3
    integral ``sum_t R^CPU_jt`` over the phases. Equality and hashing
    are a VM's (``eq=False`` inherits them).
    """

    phases: tuple[DemandPhase, ...] = field(default=(), compare=False)
    pieces: tuple[tuple[TimeInterval, float, float], ...] = field(
        init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        VM.__post_init__(self)  # a slotted class has no zero-arg super()
        if not self.phases:
            raise ValidationError("a PhasedVM needs at least one phase")
        total = sum(phase.duration for phase in self.phases)
        if total != self.duration:
            raise ValidationError(
                f"phases cover {total} time units but the interval "
                f"spans {self.duration}")
        peak_cpu = max(phase.cpu for phase in self.phases)
        peak_mem = max(phase.memory for phase in self.phases)
        if abs(peak_cpu - self.spec.cpu) > 1e-9 or \
                abs(peak_mem - self.spec.memory) > 1e-9:
            raise ValidationError(
                f"spec must carry the peak demand ({peak_cpu}cu/"
                f"{peak_mem}GB), got {self.spec.cpu}cu/"
                f"{self.spec.memory}GB")
        pieces, t = [], self.start
        for phase in self.phases:
            pieces.append((TimeInterval(t, t + phase.duration - 1),
                           phase.cpu, phase.memory))
            t += phase.duration
        object.__setattr__(self, "pieces", tuple(pieces))
        object.__setattr__(self, "cpu_time", sum(
            phase.cpu * phase.duration for phase in self.phases))

    @classmethod
    def from_phases(cls, vm_id: int, start: int,
                    phases: Sequence[DemandPhase],
                    name: str = "phased") -> "PhasedVM":
        """Build a phased VM starting at ``start``; the spec is derived."""
        phases = tuple(phases)
        if not phases:
            raise ValidationError("phases must be non-empty")
        total = sum(phase.duration for phase in phases)
        spec = VMSpec(name,
                      cpu=max(p.cpu for p in phases),
                      memory=max(p.memory for p in phases))
        return cls(vm_id=vm_id, spec=spec,
                   interval=TimeInterval(start, start + total - 1),
                   phases=phases)

    def demand_at(self, t: int) -> tuple[float, float]:
        """The (cpu, memory) demand during time unit ``t`` (0 outside)."""
        if not self.active_at(t):
            return 0.0, 0.0
        offset = t - self.start
        for phase in self.phases:
            if offset < phase.duration:
                return phase.cpu, phase.memory
            offset -= phase.duration
        raise AssertionError("phases tile the interval")  # pragma: no cover


def demand_profile(vm: VM) -> Iterable[tuple[TimeInterval, float, float]]:
    """The ``(interval, cpu, memory)`` pieces of a VM's demand.

    A plain VM has one piece covering its whole interval — handed back
    as a 1-tuple, so the probe hot path starts no generator; a
    :class:`PhasedVM` hands back the tuple of one piece per phase it
    built at construction.
    """
    if isinstance(vm, PhasedVM):
        return vm.pieces
    return ((vm.interval, vm.cpu, vm.memory),)


def demand_at(vm: VM, t: int) -> tuple[float, float]:
    """The (cpu, memory) demand of any VM at time ``t`` (0 outside)."""
    if isinstance(vm, PhasedVM):
        return vm.demand_at(t)
    if vm.active_at(t):
        return vm.cpu, vm.memory
    return 0.0, 0.0


def split_vm(vm: VM, t: int, head_id: int, tail_id: int
             ) -> tuple[VM, VM]:
    """Split ``vm`` at ``t`` into a head ``[start, t-1]`` and a tail
    ``[t, end]``, preserving phase structure for :class:`PhasedVM`.

    Used by migration (the tail moves servers) and failure recovery (the
    tail restarts elsewhere). ``t`` must lie strictly inside the
    interval so both pieces are non-empty.
    """
    if not vm.start < t <= vm.end:
        raise ValidationError(
            f"split point {t} not strictly inside {vm.interval}")
    head_iv = TimeInterval(vm.start, t - 1)
    tail_iv = TimeInterval(t, vm.end)
    if not isinstance(vm, PhasedVM):
        return (VM(vm_id=head_id, spec=vm.spec, interval=head_iv),
                VM(vm_id=tail_id, spec=vm.spec, interval=tail_iv))
    head_phases: list[DemandPhase] = []
    tail_phases: list[DemandPhase] = []
    cursor = vm.start
    for phase in vm.phases:
        phase_start = cursor
        phase_end = cursor + phase.duration - 1
        cursor = phase_end + 1
        if phase_end < t:
            head_phases.append(phase)
        elif phase_start >= t:
            tail_phases.append(phase)
        else:  # the phase straddles the split point
            head_phases.append(DemandPhase(
                duration=t - phase_start, cpu=phase.cpu,
                memory=phase.memory))
            tail_phases.append(DemandPhase(
                duration=phase_end - t + 1, cpu=phase.cpu,
                memory=phase.memory))
    return (PhasedVM.from_phases(head_id, head_iv.start, head_phases,
                                 name=vm.spec.name),
            PhasedVM.from_phases(tail_id, tail_iv.start, tail_phases,
                                 name=vm.spec.name))
