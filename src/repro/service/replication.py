"""Store-level entry application: journal entries onto a store.

A journal entry (see :class:`~repro.service.persistence.RequestJournal`)
records everything needed to reproduce one mutating operation on a
:class:`~repro.service.state.ClusterStateStore` *without* re-running
the allocator or the planner: placements carry the recorded decision,
failure episodes their recorded re-placements, consolidation episodes
their recorded moves. :func:`apply_entry` is the single function that
applies one such entry to a store — the daemon's restore path replays
the journal tail through it.

The same bytes applied to the same starting store always produce the
same state; the kill+restore end-to-end tests pin that bit-exactness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.consolidation.planner import PlannedMove
from repro.exceptions import ValidationError
from repro.service.state import ClusterStateStore, Replacement
from repro.simulation.admission import shift_request
from repro.workload.trace import vm_from_record

__all__ = ["AppliedEntry", "apply_entry"]


@dataclass(frozen=True)
class AppliedEntry:
    """What applying one entry did, for the caller's bookkeeping."""

    op: str
    #: ``(decision, delay)`` per replayed placement (place/place_batch).
    placements: tuple[tuple[str, int], ...] = ()
    #: The store's report object for fail_server / consolidate entries.
    report: object | None = None

    @property
    def fleet_changed(self) -> bool:
        """Whether the entry may have changed the scannable fleet."""
        if self.op in ("fail_server", "recover_server"):
            return True
        if self.op == "consolidate":
            return bool(getattr(self.report, "moves", ()))
        return False


def _apply_place(store: ClusterStateStore,
                 entry: Mapping[str, object]) -> tuple[str, int]:
    vm = vm_from_record(entry["vm"])
    if vm.start > store.clock:
        store.advance_to(vm.start)
    decision = str(entry["decision"])
    delay = int(entry.get("delay", 0))
    if decision == "placed":
        store.commit(shift_request(vm, delay), int(entry["server_id"]))
    return decision, delay


def apply_entry(store: ClusterStateStore,
                entry: Mapping[str, object]) -> AppliedEntry:
    """Apply one journal-shaped entry to ``store``.

    Recorded decisions are applied verbatim — no allocator, no planner
    — so any store fed the same entries reaches the same state
    bit-for-bit. ``init`` entries are no-ops (the caller builds the
    store from their snapshot).
    """
    op = str(entry.get("op"))
    if op == "init":
        return AppliedEntry(op=op)
    if op == "tick":
        now = int(entry["now"])
        if now > store.clock:
            store.advance_to(now)
        return AppliedEntry(op=op)
    if op == "place":
        return AppliedEntry(op=op,
                            placements=(_apply_place(store, entry),))
    if op == "place_batch":
        placements = tuple(_apply_place(store, sub)
                           for sub in entry["decisions"])
        return AppliedEntry(op=op, placements=placements)
    if op == "fail_server":
        report = store.fail_server(
            int(entry["server_id"]), int(entry["time"]),
            replacements=[Replacement.from_record(record)
                          for record in entry["replacements"]])
        return AppliedEntry(op=op, report=report)
    if op == "recover_server":
        store.recover_server(int(entry["server_id"]))
        return AppliedEntry(op=op)
    if op == "consolidate":
        report = store.consolidate(
            int(entry["time"]),
            moves=[PlannedMove.from_record(record)
                   for record in entry.get("moves", ())])
        return AppliedEntry(op=op, report=report)
    raise ValidationError(f"unknown journal entry op {op!r}")
