"""The unified typed result vocabulary of the placement APIs.

Every layer of the library reports "what happened to this VM" — the
batch allocator returns :class:`Decision`, the admission controller
returns :class:`AdmissionDecision`, the online service answers with a
JSON object. :class:`PlacementResult` is the one type that all of
those convert into, so callers aggregating outcomes (the retrying
client, the CLI, experiment harnesses) handle a single shape with a
typed ``status`` instead of probing dicts for ad-hoc keys.

Statuses
--------
``placed``
    The VM landed on a server at its requested start time.
``deferred``
    The VM landed, but only after an admission delay (> 0 ticks).
``rejected``
    No admissible server could host the VM; it was turned away.
``replaced``
    The VM's remainder was re-placed onto a surviving server after its
    host failed mid-run (see ``fail_server`` in ``docs/service.md``).

:class:`Decision` and :class:`AdmissionDecision` are re-exported here
as thin aliases of their defining modules, resolved on first use, so
``from repro.results import Decision`` works alongside the historical
import paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

from repro._lazy import lazy_exports
from repro.exceptions import ValidationError
from repro.model.vm import VM

# The two aliases resolve on first use: the admission module imports the
# allocators, which a client of the service never runs.
if TYPE_CHECKING:
    from repro.allocators.batch import Decision as Decision
    from repro.simulation.admission import (
        AdmissionDecision as AdmissionDecision,
    )

__getattr__, __dir__, __all__ = lazy_exports(globals())
__all__ = ["STATUSES", "PlacementResult", *__all__]

#: Every status a :class:`PlacementResult` may carry.
STATUSES = ("placed", "rejected", "deferred", "replaced")


@dataclass(frozen=True)
class PlacementResult:
    """The typed outcome of offering one VM to a placement API.

    ``server_id`` is ``None`` exactly when ``status == "rejected"``;
    ``energy_delta`` is the committed Eq.-17 incremental energy (0.0
    for rejections); ``delay`` is the admission delay in ticks (> 0
    only for ``deferred``); ``latency_ms`` is the service-side request
    latency when the result came over the wire (``None`` for in-process
    results); ``vm`` and ``explanation`` ride along when the producing
    layer had them.
    """

    vm_id: int
    status: str
    server_id: int | None = None
    energy_delta: float = 0.0
    delay: int = 0
    latency_ms: float | None = None
    vm: VM | None = None
    explanation: Mapping[str, object] | None = None

    def __post_init__(self) -> None:
        if self.status not in STATUSES:
            raise ValidationError(
                f"unknown placement status {self.status!r}; expected one "
                f"of {list(STATUSES)}")
        if (self.server_id is None) != (self.status == "rejected"):
            raise ValidationError(
                f"status {self.status!r} is inconsistent with "
                f"server_id={self.server_id!r}")

    @property
    def placed(self) -> bool:
        """Whether the VM landed on a server (any non-rejected status)."""
        return self.status != "rejected"

    @classmethod
    def from_decision(cls, decision: Decision) -> "PlacementResult":
        """Lift a batch-API :class:`Decision` (placed or rejected)."""
        return cls(vm_id=decision.vm.vm_id,
                   status="placed" if decision.placed else "rejected",
                   server_id=decision.server_id,
                   energy_delta=decision.energy_delta,
                   vm=decision.vm)

    @classmethod
    def from_admission(cls, decision: AdmissionDecision | None, *,
                       vm: VM | None = None,
                       energy_delta: float = 0.0) -> "PlacementResult":
        """Lift an admission-controller outcome.

        ``None`` (the controller's reject path) needs the offered ``vm``
        to name the result; an :class:`AdmissionDecision` carries its
        own (possibly shifted) VM and maps to ``placed`` or
        ``deferred`` by its delay.
        """
        if decision is None:
            if vm is None:
                raise ValidationError(
                    "a rejected admission needs the offered vm")
            return cls(vm_id=vm.vm_id, status="rejected", vm=vm)
        return cls(vm_id=decision.vm.vm_id,
                   status="deferred" if decision.delay else "placed",
                   server_id=decision.state.server.server_id,
                   energy_delta=energy_delta,
                   delay=decision.delay,
                   vm=decision.vm)

    @classmethod
    def from_response(cls,
                      response: Mapping[str, object]) -> "PlacementResult":
        """Lift one service ``place`` response (or one ``place_batch``
        per-VM decision object) into a typed result."""
        decision = response.get("decision")
        if decision not in ("placed", "rejected"):
            raise ValidationError(
                f"response carries no placement decision: {response!r}")
        delay = int(response.get("delay", 0) or 0)
        status = "rejected" if decision == "rejected" else \
            ("deferred" if delay else "placed")
        server_id = response.get("server_id")
        latency = response.get("latency_ms")
        explanation = response.get("explanation")
        return cls(vm_id=int(response["vm_id"]),
                   status=status,
                   server_id=None if server_id is None else int(server_id),
                   energy_delta=float(response.get("energy_delta", 0.0)),
                   delay=delay,
                   latency_ms=None if latency is None else float(latency),
                   explanation=explanation
                   if isinstance(explanation, Mapping) else None)
