"""Explain-traces: why each VM landed where it did (or nowhere at all).

Every allocator run can emit, per placement decision, the *full candidate
set* it evaluated: which servers were infeasible and on which constraint
(CPU/MEM capacity, a capacity conflict with already-committed load during
the VM's interval, or a placement constraint), and — for the feasible
ones — the Eq.-2/3 cost terms that ranked them: the VM's run cost
``W_ij``, the change in busy-idle/gap energy, and the wake-up ``alpha_i``
a first transition would charge. The allocator's own ranking score rides
along (lower is always more preferred), so the chosen server is
reconstructible from the explanation alone.

Explanations are plain frozen dataclasses with a JSON round-trip
(:meth:`PlacementExplanation.to_record`), so they travel over the
service protocol (``"explain": true`` on a ``place`` request) and into
event logs unchanged. :func:`format_decision_table` renders a run's
explanations as the per-VM table behind ``repro explain``.

On a fleet of at least ``allocators.base._FLEET_PROBE_FROM`` servers
the explain sweep is one ``FleetKernel.probe_fleet`` call and the
per-candidate verdicts —
including the reason *strings*, which only the explain path ever needs
— are materialized lazily from the array-backed
:class:`~repro.placement.kernels.FeasibilityBatch`
(``batch.reason(i)``), so ``explain=True`` output is identical to the
scalar sweep while the hot path never builds per-candidate objects.
The evaluated/feasible counters keep reflecting the embedded
``select`` run either way — what the algorithm probed, not the
exhaustive explain sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Mapping, Sequence

__all__ = ["CostTerms", "CandidateVerdict", "PlacementExplanation",
           "ExplainRecorder", "format_decision_table"]


@dataclass(frozen=True)
class CostTerms:
    """The Eq.-2/3/17 components of one candidate placement's cost.

    ``run`` is the VM's marginal run energy ``W_ij`` (Eq. 3); ``idle_gap``
    is the change in busy-idle power plus idle-gap costs under the active
    sleep policy; ``wake`` is the transition energy ``alpha_i`` charged
    when placing the VM would wake this server for the first time.
    """

    run: float
    idle_gap: float
    wake: float

    @property
    def total(self) -> float:
        """The incremental Eq.-17 cost the heuristic minimises."""
        return self.run + self.idle_gap + self.wake

    def to_record(self) -> dict[str, float]:
        return {"run": self.run, "idle_gap": self.idle_gap,
                "wake": self.wake}

    @classmethod
    def from_record(cls, record: Mapping[str, object]) -> "CostTerms":
        return cls(run=float(record["run"]),
                   idle_gap=float(record["idle_gap"]),
                   wake=float(record["wake"]))


@dataclass(frozen=True)
class CandidateVerdict:
    """One server's evaluation for one VM.

    Infeasible candidates carry a ``reason`` (``"cpu:capacity"``,
    ``"mem:capacity"``, ``"cpu:overlap@t"`` / ``"mem:overlap@t"`` with the
    first overloaded tick, or ``"constraint"``); feasible ones carry the
    cost terms and the allocator's ranking ``score`` (lower preferred;
    ``None`` when the algorithm ranks by no score, e.g. random fit).
    """

    server_id: int
    server_type: str
    feasible: bool
    reason: str | None = None
    cost: CostTerms | None = None
    score: float | None = None
    chosen: bool = False

    def to_record(self) -> dict[str, object]:
        record: dict[str, object] = {
            "server_id": self.server_id, "server_type": self.server_type,
            "feasible": self.feasible, "chosen": self.chosen}
        if self.reason is not None:
            record["reason"] = self.reason
        if self.cost is not None:
            record["cost"] = self.cost.to_record()
        if self.score is not None:
            record["score"] = self.score
        return record

    @classmethod
    def from_record(cls, record: Mapping[str, object]
                    ) -> "CandidateVerdict":
        cost = record.get("cost")
        return cls(
            server_id=int(record["server_id"]),
            server_type=str(record.get("server_type", "")),
            feasible=bool(record["feasible"]),
            reason=(str(record["reason"])
                    if record.get("reason") is not None else None),
            cost=(CostTerms.from_record(cost)
                  if isinstance(cost, Mapping) else None),
            score=(float(record["score"])
                   if record.get("score") is not None else None),
            chosen=bool(record.get("chosen", False)))


@dataclass(frozen=True)
class PlacementExplanation:
    """The complete decision record for one offered VM."""

    vm_id: int
    algorithm: str
    decision: str  # "placed" | "rejected"
    server_id: int | None
    delay: int
    candidates: tuple[CandidateVerdict, ...]

    @property
    def chosen(self) -> CandidateVerdict | None:
        for verdict in self.candidates:
            if verdict.chosen:
                return verdict
        return None

    @property
    def feasible_count(self) -> int:
        return sum(1 for v in self.candidates if v.feasible)

    def infeasible(self) -> tuple[CandidateVerdict, ...]:
        return tuple(v for v in self.candidates if not v.feasible)

    def to_record(self) -> dict[str, object]:
        return {"vm_id": self.vm_id, "algorithm": self.algorithm,
                "decision": self.decision, "server_id": self.server_id,
                "delay": self.delay,
                "candidates": [v.to_record() for v in self.candidates]}

    @classmethod
    def from_record(cls, record: Mapping[str, object]
                    ) -> "PlacementExplanation":
        server_id = record.get("server_id")
        return cls(
            vm_id=int(record["vm_id"]),
            algorithm=str(record.get("algorithm", "")),
            decision=str(record["decision"]),
            server_id=int(server_id) if server_id is not None else None,
            delay=int(record.get("delay", 0)),
            candidates=tuple(CandidateVerdict.from_record(v)
                             for v in record.get("candidates", ())))

    def with_delay(self, delay: int) -> "PlacementExplanation":
        return replace(self, delay=delay)

    def format(self) -> str:
        """Per-candidate detail: one line per evaluated server."""
        head = (f"vm {self.vm_id} -> {self.decision}"
                + (f" on server {self.server_id}"
                   if self.server_id is not None else "")
                + (f" (delayed {self.delay})" if self.delay else "")
                + f" [{self.algorithm}; {self.feasible_count}/"
                  f"{len(self.candidates)} feasible]")
        lines = [head]
        for v in self.candidates:
            mark = ">" if v.chosen else " "
            if v.feasible:
                score = f" score={v.score:.3f}" if v.score is not None \
                    else ""
                cost = ""
                if v.cost is not None:
                    cost = (f" run={v.cost.run:.1f}"
                            f" idle_gap={v.cost.idle_gap:.1f}"
                            f" wake={v.cost.wake:.1f}"
                            f" total={v.cost.total:.1f}")
                lines.append(f" {mark} server {v.server_id:>4} "
                             f"{v.server_type:<8} feasible{cost}{score}")
            else:
                lines.append(f" {mark} server {v.server_id:>4} "
                             f"{v.server_type:<8} infeasible: {v.reason}")
        return "\n".join(lines)


class ExplainRecorder:
    """Collects :class:`PlacementExplanation` objects during a run."""

    def __init__(self) -> None:
        self.explanations: list[PlacementExplanation] = []

    def record(self, explanation: PlacementExplanation) -> None:
        self.explanations.append(explanation)

    @property
    def last(self) -> PlacementExplanation | None:
        return self.explanations[-1] if self.explanations else None

    def for_vm(self, vm_id: int) -> list[PlacementExplanation]:
        return [e for e in self.explanations if e.vm_id == vm_id]

    def rejected(self) -> list[PlacementExplanation]:
        return [e for e in self.explanations if e.decision == "rejected"]

    def __len__(self) -> int:
        return len(self.explanations)

    def __iter__(self) -> Iterator[PlacementExplanation]:
        return iter(self.explanations)


def format_decision_table(explanations: Iterable[PlacementExplanation],
                          ) -> str:
    """One row per decision: the ``repro explain`` summary table."""
    rows: Sequence[PlacementExplanation] = list(explanations)
    header = (f"{'vm':>6}  {'decision':<8}  {'server':>6}  {'delay':>5}  "
              f"{'feasible':>8}  {'score':>10}  {'cost_total':>10}")
    lines = [header, "-" * len(header)]
    for e in rows:
        chosen = e.chosen
        score = (f"{chosen.score:.3f}"
                 if chosen is not None and chosen.score is not None
                 else "-")
        cost = (f"{chosen.cost.total:.1f}"
                if chosen is not None and chosen.cost is not None
                else "-")
        server = str(e.server_id) if e.server_id is not None else "-"
        lines.append(
            f"{e.vm_id:>6}  {e.decision:<8}  {server:>6}  {e.delay:>5}  "
            f"{e.feasible_count:>4}/{len(e.candidates):<3}  "
            f"{score:>10}  {cost:>10}")
    return "\n".join(lines)
