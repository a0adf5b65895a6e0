"""Virtual machine specifications and request instances.

A :class:`VMSpec` describes a *type* of VM (the rows of the paper's Table I:
a name plus stable CPU and memory demand), while a :class:`VM` is a concrete
user request — a spec bound to an id and a time interval. The paper assumes
each VM's resource demand is stable over its lifetime (Sec. IV-B1), so the
demand lives on the spec rather than varying per time unit.

Demand may additionally be declared *uncertain*: the optional
``cpu_radius`` / ``mem_radius`` fields turn the scalar demand into the
interval ``[nominal - radius, nominal + radius]``. Radii default to 0
(today's exact behaviour, bit for bit) and only matter when an active
:class:`~repro.robust.config.RobustnessConfig` rides in the engine
config — see :mod:`repro.robust`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import ValidationError
from repro.model.intervals import TimeInterval

__all__ = ["VMSpec", "VM"]


@dataclass(frozen=True)
class VMSpec:
    """An immutable VM type: resource demand in compute units and GBytes."""

    name: str
    cpu: float
    memory: float
    #: demand uncertainty radii: the true demand may land anywhere in
    #: ``[nominal - radius, nominal + radius]``; 0 means exact demand.
    cpu_radius: float = 0.0
    mem_radius: float = 0.0

    def __post_init__(self) -> None:
        if self.cpu <= 0:
            raise ValidationError(f"VM type {self.name!r}: cpu must be "
                                  f"positive, got {self.cpu}")
        if self.memory <= 0:
            raise ValidationError(f"VM type {self.name!r}: memory must be "
                                  f"positive, got {self.memory}")
        if not 0 <= self.cpu_radius <= self.cpu:
            raise ValidationError(
                f"VM type {self.name!r}: cpu_radius must lie in "
                f"[0, cpu], got {self.cpu_radius}")
        if not 0 <= self.mem_radius <= self.memory:
            raise ValidationError(
                f"VM type {self.name!r}: mem_radius must lie in "
                f"[0, memory], got {self.mem_radius}")

    def __str__(self) -> str:
        return f"{self.name}({self.cpu}cu/{self.memory}GB)"


@dataclass(frozen=True, slots=True)
class VM:
    """A VM request: a spec active over the closed interval ``[start, end]``.

    ``start`` and ``end`` are integer time units (minutes in the paper's
    setting); the VM occupies its server for every unit of the interval.
    They, the ``duration``, the spec's constant demand (``cpu`` =
    ``R^CPU_j`` in compute units, ``memory`` = ``R^MEM_j`` in GBytes)
    and its uncertainty radii are stored at construction, as is
    ``cpu_time`` — ``sum_t R^CPU_jt`` from Eq. (3), with stable demand
    simply ``cpu * duration``. A VM is its request: equal VMs share a
    ``vm_id`` and a spec, and a VM hashes by its id.
    """

    vm_id: int
    spec: VMSpec
    interval: TimeInterval = field(compare=False)
    start: int = field(init=False, compare=False, repr=False)
    end: int = field(init=False, compare=False, repr=False)
    duration: int = field(init=False, compare=False, repr=False)
    cpu: float = field(init=False, compare=False, repr=False)
    memory: float = field(init=False, compare=False, repr=False)
    cpu_radius: float = field(init=False, compare=False, repr=False)
    mem_radius: float = field(init=False, compare=False, repr=False)
    cpu_time: float = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.vm_id < 0:
            raise ValidationError(f"vm_id must be non-negative, got "
                                  f"{self.vm_id}")
        # Each slot is set through its member descriptor: the frozen
        # class's __setattr__ refuses, and object.__setattr__ costs a
        # name lookup per field.
        interval, spec = self.interval, self.spec
        _set_start(self, interval.start)
        _set_end(self, interval.end)
        _set_duration(self, interval.length)
        _set_cpu(self, spec.cpu)
        _set_memory(self, spec.memory)
        _set_cpu_radius(self, spec.cpu_radius)
        _set_mem_radius(self, spec.mem_radius)
        _set_cpu_time(self, spec.cpu * interval.length)

    def __hash__(self) -> int:
        return hash(self.vm_id)

    def active_at(self, t: int) -> bool:
        """Whether the VM runs during time unit ``t``."""
        return self.interval.contains(t)

    def __str__(self) -> str:
        return f"vm{self.vm_id}:{self.spec.name}@{self.interval}"


(_set_start, _set_end, _set_duration, _set_cpu, _set_memory, _set_cpu_radius,
 _set_mem_radius, _set_cpu_time) = (
    VM.__dict__[name].__set__ for name in (
        "start", "end", "duration", "cpu", "memory", "cpu_radius",
        "mem_radius", "cpu_time"))
