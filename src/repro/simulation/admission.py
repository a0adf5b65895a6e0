"""Admission control: what happens when the fleet is actually full.

The paper assumes every VM fits somewhere (its fleets are sized at half
the VM count). A production data center hits capacity, and the controller
must then *reject* the request or *defer* it. This module runs the online
arrival process with exactly that policy envelope:

* each VM is offered to the allocator on arrival;
* if nothing admissible exists, the request may be delayed (its whole
  interval shifted later) by up to ``max_delay`` time units, taking the
  first delay that fits;
* otherwise it is rejected.

The outcome reports acceptance/rejection counts, total queueing delay,
and the accepted plan's energy — the inputs to a capacity-vs-SLA study
(see ``examples/what_if_planning.py`` for the sizing side).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import Iterable, NamedTuple, Sequence

from repro.allocators.base import Allocator
from repro.allocators.min_energy import MinIncrementalEnergy
from repro.allocators.state import ServerState
from repro.exceptions import ValidationError
from repro.model.allocation import Allocation
from repro.model.cluster import Cluster
from repro.model.phases import PhasedVM
from repro.model.vm import VM
from repro.obs.explain import ExplainRecorder

__all__ = ["AdmissionDecision", "AdmissionOutcome", "AdmissionController",
           "offer", "shift_request"]


@dataclass(frozen=True)
class AdmissionOutcome:
    """Result of running the arrival process with admission control."""

    allocation: Allocation
    accepted: int
    rejected: tuple[VM, ...]
    delayed: int
    total_delay: int
    total_energy: float

    @property
    def rejection_rate(self) -> float:
        offered = self.accepted + len(self.rejected)
        return len(self.rejected) / offered if offered else 0.0

    @property
    def mean_delay(self) -> float:
        return self.total_delay / self.accepted if self.accepted else 0.0


def shift_request(vm: VM, delay: int) -> VM:
    """The same request starting ``delay`` units later.

    Phased VMs keep their phase structure — phases are relative to the
    start, so shifting the interval moves them all.
    """
    if delay == 0:
        return vm
    if isinstance(vm, PhasedVM):
        return PhasedVM(vm_id=vm.vm_id, spec=vm.spec,
                        interval=vm.interval.shift(delay),
                        phases=vm.phases)
    return VM(vm_id=vm.vm_id, spec=vm.spec,
              interval=vm.interval.shift(delay))


class AdmissionDecision(NamedTuple):
    """A successful admission: where (and with what delay) a VM lands.

    ``vm`` is the request as admitted — identical to the offered one when
    ``delay == 0``, otherwise shifted ``delay`` units later. Nothing is
    placed yet: callers book ``vm`` on ``state`` at the price ``select``
    chose it at, ``allocator.chosen_cost``. A named tuple, like
    ``Feasibility``: one is built per decision on every path.
    """

    vm: VM
    state: ServerState
    delay: int


def offer(vm: VM, states: Sequence[ServerState], allocator: Allocator,
          max_delay: int = 0,
          recorder: ExplainRecorder | None = None
          ) -> AdmissionDecision | None:
    """Offer one request to the fleet under reject-or-defer semantics.

    The request is tried as-is, then shifted later one unit at a time up
    to ``max_delay``; the first fit wins. Returns ``None`` when nothing
    admits it — the caller's reject path. ``allocator.prepare`` must have
    been called on ``states`` beforehand (once per arrival process).

    With a ``recorder``, exactly one
    :class:`~repro.obs.explain.PlacementExplanation` is recorded per
    offer: the admitted attempt (carrying its admission ``delay``), or —
    when every shift fails — the undelayed attempt, whose per-candidate
    verdicts show what blocked the request on arrival.

    This is the per-VM rule of both decision loops: the allocator's
    offline walk (``allocate``, ``allocate_batch`` and
    :class:`AdmissionController`) and the online allocation service
    (:mod:`repro.service`).
    """
    if max_delay < 0:
        raise ValidationError(f"max_delay must be >= 0, got {max_delay}")
    undelayed = None
    for delay in range(max_delay + 1):
        candidate = shift_request(vm, delay)
        if recorder is None:
            chosen = allocator.select(candidate, states)
        else:
            chosen, explanation = allocator.explain_select(candidate,
                                                           states)
            explanation = explanation.with_delay(delay)
            if delay == 0:
                undelayed = explanation
            if chosen is not None:
                recorder.record(explanation)
        if chosen is not None:
            return AdmissionDecision(candidate, chosen, delay)
    if recorder is not None and undelayed is not None:
        recorder.record(undelayed)
    return None


class AdmissionController:
    """Online arrival processing with reject-or-defer semantics: one
    offline walk of the allocator (``Allocator._walk``) with a delay
    budget of ``max_delay``, on the books the allocator builds."""

    def __init__(self, allocator: Allocator | None = None,
                 max_delay: int = 0) -> None:
        if max_delay < 0:
            raise ValidationError(
                f"max_delay must be >= 0, got {max_delay}")
        self._allocator = allocator if allocator is not None \
            else MinIncrementalEnergy()
        self._max_delay = max_delay

    def run(self, vms: Iterable[VM], cluster: Cluster, *,
            recorder: ExplainRecorder | None = None) -> AdmissionOutcome:
        """Offer ``vms`` to ``cluster`` in the allocator's ``order_vms``
        order: arrival order (start, end, id) but for the clairvoyant
        extensions. A ``recorder`` gets one explanation per offer."""
        decided = list(self._allocator._walk(
            vms, cluster, None, recorder, "admission.run", self._max_delay))
        placed = [(d, delta) for _, d, delta in decided if d is not None]
        delays = [d.delay for d, _ in placed if d.delay]
        placements = {d.vm: d.state.server.server_id for d, _ in placed}
        return AdmissionOutcome(
            allocation=Allocation(cluster, placements),
            accepted=len(placements),
            rejected=tuple(vm for vm, d, _ in decided if d is None),
            delayed=len(delays), total_delay=sum(delays),
            # one rounding per decision, in order (sum() compensates 3.12+)
            total_energy=reduce(add, (delta for _, delta in placed), 0.0))
