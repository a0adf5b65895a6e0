"""The unified feasibility verdict returned by ``ServerState.probe``.

One probe answers everything the old ``fits`` / ``fit_reason`` /
``peak_usage`` trio answered separately — and in a single pass over the
server's occupancy index instead of three:

* ``feasible`` — can the VM run here for its whole interval (Eqs. 9-10)?
* ``reason`` — the failing constraint when it cannot (``"cpu:capacity"``,
  ``"mem:capacity"``, ``"cpu:overlap@t"`` or ``"mem:overlap@t"`` naming the
  first overloaded time unit), ``None`` when feasible;
* ``peak_cpu`` / ``peak_mem`` — the committed usage at the most loaded time
  unit of the VM's interval;
* ``headroom_cpu`` / ``headroom_mem`` — capacity minus that peak, i.e. the
  spare room bin-packing comparators score against.

The verdict is truthy exactly when feasible, so ``if state.probe(vm):``
reads like the old ``if state.fits(vm):``. Peaks and headroom describe the
committed load scanned up to the point the verdict was decided; they are
complete (cover the whole interval) whenever ``feasible`` is true.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:  # pragma: no cover - typing-only imports
    from repro.model.server import ServerSpec
    from repro.model.vm import VM

__all__ = ["Feasibility", "ScoreRow", "TOL", "static_demand"]

#: Headroom tolerance for capacity comparisons (absorbs float
#: accumulation); shared by the scalar probe and the fleet kernel.
TOL = 1e-9


class Feasibility(NamedTuple):
    """Outcome of probing one VM against one server's committed load."""

    #: Whether the VM fits throughout its interval (capacity only; placement
    #: constraints are layered on by the allocator).
    feasible: bool
    #: Failing constraint when infeasible (see module docstring); ``None``
    #: when feasible.
    reason: str | None
    #: Max committed CPU during the VM's interval.
    peak_cpu: float
    #: Max committed memory during the VM's interval.
    peak_mem: float
    #: ``cpu_capacity - peak_cpu``.
    headroom_cpu: float
    #: ``memory_capacity - peak_mem``.
    headroom_mem: float

    def __bool__(self) -> bool:
        return self.feasible

    @classmethod
    def idle(cls, spec: "ServerSpec") -> "Feasibility":
        """The verdict on a type ``spec`` server idle over the VM's
        interval once the type admits it: no peak, all headroom."""
        return cls(True, None, 0.0, 0.0, spec.cpu_capacity - 0.0,
                   spec.memory_capacity - 0.0)


class ScoreRow:
    """One candidate's ``FeasibilityBatch`` columns as Python floats —
    each the float64 its batch column holds — so an elementwise
    ``score(vm, rows)`` rates it bit for bit, with no batch or numpy."""

    __slots__ = ("_vm", "_spec", "peak_cpu", "peak_mem", "headroom_cpu",
                 "headroom_mem", "cpu_cap", "mem_cap")

    def __init__(self, vm: "VM", spec: "ServerSpec",
                 verdict: Feasibility) -> None:
        (_, _, self.peak_cpu, self.peak_mem, self.headroom_cpu,
         self.headroom_mem) = verdict
        self._vm, self._spec, self.cpu_cap, self.mem_cap = (
            vm, spec, float(spec.cpu_capacity), float(spec.memory_capacity))

    @property
    def run_cost(self) -> float:  # W_ij, computed when a score reads it
        return self._spec.power_per_cpu_unit * self._vm.cpu_time


def static_demand(vm: "VM", robust: bool) -> tuple[float, float]:
    """The ``(cpu, mem)`` a server type's static capacity test charges
    ``vm`` — the scalar probe, the fleet kernel and the candidate index
    alike: its nominal demand, plus its own radii on a Γ-robust fleet
    (with Γ >= 1 a lone VM's radius is always in the worst-case set)."""
    if not robust:
        return vm.cpu, vm.memory
    return vm.cpu + vm.cpu_radius, vm.memory + vm.mem_radius
