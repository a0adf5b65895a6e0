"""Live cluster state behind the allocation daemon.

A :class:`ClusterStateStore` is the online counterpart of one
:func:`~repro.simulation.engine.simulate_online` run, split along the
axis a long-running service needs:

* **planning state** — one :class:`~repro.allocators.state.ServerState`
  per server carries the committed usage, busy segments, and the running
  Eq.-17 cost, exactly as during batch allocation, so any registered
  allocator selects servers through its unmodified ``select`` rule;
* **live state** — one :class:`~repro.simulation.power_state.ServerMachine`
  per server tracks the *current* power state as the wall clock advances:
  servers wake when a placed VM's start tick arrives, expired VMs are
  retired at their end tick, and an emptied server powers down (an online
  controller cannot evaluate the Eq.-16 sleep rule — the next arrival is
  unknown — so the live view sleeps greedily, bridging only gaps of
  length zero; the *authoritative* energy remains the analytic
  accounting, which applies the configured sleep policy exactly). A
  tick closes in O(awake servers + pieces ending), whatever the fleet;
* **telemetry** — per-tick fleet power, active servers and running VMs,
  frozen into a :class:`~repro.simulation.telemetry.Telemetry` on demand.

The store is crash-safe via :meth:`to_snapshot` / :meth:`from_snapshot`
(:meth:`snapshot_parts` is the same document as UTF-8 chunks, for the
cost of the commits since the last one): a snapshot records the
cluster, the clock and every placement in commit order *with the clock
value it was committed at*, and restoring replays each placement at
that clock. That reproduces the live interleaving of commits and clock
advances exactly — including out-of-order arrivals (``vm.start <
clock`` starts immediately, not at its nominal tick) and sleep/wake
cycles the one-tick lookahead would otherwise elide when all starts are
known up front — so planning state, machines (power state, residents,
transition counters) and telemetry are rebuilt bit-for-bit.

Failures are first-class: :meth:`fail_server` kills a server at a tick,
splits every affected VM through the shared
:mod:`repro.simulation.recovery` mechanics (interrupted heads stay on
the victim's books as wasted energy, remainders are re-placed through a
recovery allocator over the surviving fleet), and records the whole
episode — every head/remainder/target — as one event in the snapshot
stream, so a restore replays the *recorded* re-placements instead of
re-running the allocator. :meth:`recover_server` brings a dead server
back to POWER_SAVING; its next wake pays the usual transition cost
``alpha``, which is exactly the paper's Eq.-17 accounting of
recovery as an energy event. Snapshots carrying failure events use
format version 2; event-free snapshots keep writing version 1.

Consolidation reuses the same machinery in the opposite direction:
:meth:`consolidate` runs one migration episode of the shared
:class:`~repro.consolidation.planner.MigrationPlanner` against O(live)
copies of the live books (:meth:`ServerState.live_copy
<repro.allocators.state.ServerState.live_copy>`), then applies the plan
to the live books — each moved VM is cut on its source
(:meth:`ServerState.cut <repro.allocators.state.ServerState.cut>`, as
a failure cuts the victim's: the spent energy and the anchors of
retired VMs stay where they are), heads stay behind as
legitimately-spent energy, remainders are re-scheduled on their
targets, drained-empty servers power down at the close of the tick,
and the per-move migration cost accrues in :attr:`migration_energy`.
No book is rebuilt from the placement log: an episode and a failure
cost what is live, not what has been. Each episode is one event in the
snapshot stream (kind ``"consolidate"``, format version 3), replayed
from its recorded moves exactly like a failure episode — the planner
is never re-run on restore.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Mapping, Sequence

import numpy as np

from repro.allocators.base import Allocator
from repro.allocators.min_energy import MinIncrementalEnergy
from repro.allocators.state import ServerState
from repro.consolidation.planner import (
    ConsolidationReport,
    MigrationPlanner,
    PlannedMove,
)
from repro.energy.cost import SleepPolicy, allocation_cost
from repro.exceptions import ValidationError
from repro.model.allocation import Allocation
from repro.model.cluster import Cluster
from repro.model.phases import demand_profile
from repro.model.server import ServerSpec
from repro.model.vm import VM
from repro.placement.config import EngineConfig
from repro.placement.occupancy import DEFAULT_ENGINE
from repro.simulation.admission import shift_request
from repro.simulation.power_state import (
    FleetAggregates,
    PowerState,
    ServerMachine,
)
from repro.simulation.recovery import recover_target, split_remainder
from repro.simulation.telemetry import Telemetry
from repro.workload.trace import vm_from_record, vm_to_record

__all__ = ["ClusterStateStore", "ConsolidationReport", "FailureReport",
           "Replacement", "SNAPSHOT_FORMAT_VERSION", "snapshot_meta"]

#: Highest snapshot format this build writes (and reads). Version 2
#: added the failure/recovery event stream; version 3 adds consolidation
#: episodes to it. Stores write the lowest version that can express
#: their event stream, so snapshots stay readable by older builds
#: whenever possible.
SNAPSHOT_FORMAT_VERSION = 3

_SUPPORTED_SNAPSHOT_VERSIONS = (1, 2, 3)


@dataclass(frozen=True)
class Replacement:
    """One affected VM's fate in a server failure.

    ``head`` is the interrupted prefix left on the victim (``None`` when
    the VM had not started and moved whole); ``remainder`` is the part
    re-placed — onto ``server_id``, or lost when ``server_id`` is
    ``None``. ``energy_delta`` is the Eq.-17 planning delta on the
    target (including a forced wake ``alpha`` when the target has to
    power on); ``0.0`` for a lost remainder.
    """

    vm: VM
    head: VM | None
    remainder: VM
    server_id: int | None
    energy_delta: float = 0.0

    @property
    def lost(self) -> bool:
        return self.server_id is None

    def to_record(self) -> dict[str, object]:
        return {
            "vm": vm_to_record(self.vm),
            "head": vm_to_record(self.head) if self.head is not None
            else None,
            "remainder": vm_to_record(self.remainder),
            "server_id": self.server_id,
        }

    @classmethod
    def from_record(cls, record: Mapping[str, object]) -> "Replacement":
        head = record.get("head")
        server_id = record.get("server_id")
        return cls(
            vm=vm_from_record(record["vm"]),
            head=vm_from_record(head) if head is not None else None,
            remainder=vm_from_record(record["remainder"]),
            server_id=int(server_id) if server_id is not None else None,
        )


@dataclass(frozen=True)
class FailureReport:
    """What one :meth:`ClusterStateStore.fail_server` episode did."""

    server_id: int
    time: int
    replacements: tuple[Replacement, ...]
    #: change of the victim's Eq.-17 book (interrupted heads replace
    #: the affected VMs' full runs — usually negative)
    victim_delta: float
    #: victim delta plus every target delta: the fleet-wide energy cost
    #: of this failure episode
    energy_delta: float

    @property
    def killed(self) -> int:
        """VMs interrupted mid-run (a head was left behind)."""
        return sum(1 for r in self.replacements if r.head is not None)

    @property
    def replaced(self) -> int:
        """Remainders that found a new home."""
        return sum(1 for r in self.replacements if r.server_id is not None)

    @property
    def lost(self) -> tuple[VM, ...]:
        """Affected VMs whose remainder fit nowhere."""
        return tuple(r.vm for r in self.replacements if r.lost)

    @cached_property
    def records(self) -> list[dict[str, object]]:
        """The replacements as JSON records, encoded once: the list in
        the store's snapshot event is the list the daemon journals."""
        return [r.to_record() for r in self.replacements]


#: snapshot event ``kind`` -> the journal op recording the same episode
_EVENT_OPS = {"fail": "fail_server", "recover": "recover_server",
              "consolidate": "consolidate"}

_SPEC_FIELDS = ("name", "cpu_capacity", "memory_capacity", "p_idle",
                "p_peak", "transition_time")


def _spec_record(spec: ServerSpec) -> dict[str, object]:
    return {field: getattr(spec, field) for field in _SPEC_FIELDS}


class ClusterStateStore:
    """Mutable cluster state: planning usage, power states, telemetry."""

    def __init__(self, cluster: Cluster, *,
                 policy: SleepPolicy = SleepPolicy.OPTIMAL,
                 engine: EngineConfig | str = DEFAULT_ENGINE) -> None:
        self.cluster = cluster
        self.policy = policy
        # The store is a config-file-level entry point (CLI, snapshots),
        # so a string here is read as the sanctioned spec string — no
        # ctor-string deprecation, unlike the allocator constructors.
        self.engine_config = EngineConfig.coerce(engine, warn=False)
        #: backend name (``"indexed"``/``"dense"``), kept for back-compat
        self.engine = self.engine_config.engine
        self.states = [ServerState(server, policy=policy,
                                   engine=self.engine_config)
                       for server in cluster]
        self.machines = {server.server_id: ServerMachine(server)
                         for server in cluster}
        #: O(1) fleet totals, kept in sync by the machines themselves —
        #: the telemetry sampler reads these instead of scanning
        self.fleet = FleetAggregates()
        for machine in self.machines.values():
            machine.watcher = self.fleet
            self.fleet.add(machine)
        self.clock = 0
        #: analytic Eq.-17 energy, accumulated per-placement delta
        self.energy_accumulated = 0.0
        #: energy charged for live migrations (per-move cost, on top of
        #: the Eq.-17 placement energy)
        self.migration_energy = 0.0
        self._placements: list[tuple[VM, int]] = []
        #: durable replay stream: every normal commit as (vm, server_id,
        #: clock committed at). Unlike ``_placements`` — the live
        #: allocation truth, which failures edit in place — this log is
        #: append-only; snapshots serialize it plus the event stream.
        self._commit_log: list[tuple[VM, int, int]] = []
        #: failure/recovery events, JSON-safe, in occurrence order; each
        #: carries ``after`` = how many commits preceded it, so replay
        #: interleaves the two streams exactly.
        self._events: list[dict] = []
        #: UTF-8 JSON of the snapshot parts that never change once
        #: written (:meth:`snapshot_parts`): the cluster array, then the
        #: records of the first ``_encoded`` commits, one chunk per snapshot
        self._kept_json: list[bytes] = []
        self._encoded = 0
        #: server_id -> failure tick of currently-dead servers
        self._dead: dict[int, int] = {}
        self._vm_ids: set[int] = set()
        #: next fresh vm id for failure splits (heads/remainders get ids
        #: above every id ever committed, mirroring the offline replay)
        self._next_vm_id = 0
        # live-event schedule: tick -> [(piece_id, server_id)]
        self._starts: dict[int, list[tuple[int, int]]] = {}
        self._ends: dict[int, list[tuple[int, int]]] = {}
        self._piece_demand: dict[int, tuple[float, float]] = {}
        # retirement bookkeeping: which VM each piece belongs to, and how
        # many of a VM's pieces are still scheduled to end
        self._piece_vm: dict[int, int] = {}
        self._open_pieces: dict[int, list] = {}  # vm_id -> [vm, sid, n]
        self._next_piece = 0
        self._max_end = 0
        # per-tick samples; index 0 is tick 1 (ticks < clock are closed)
        self._power: list[float] = []
        self._active: list[int] = []
        self._running: list[int] = []

    # -- placement ---------------------------------------------------------

    def commit(self, vm: VM, server_id: int) -> float:
        """Commit ``vm`` to server ``server_id``; returns the energy delta.

        Updates the planning state (raising
        :class:`~repro.exceptions.CapacityError` when the VM does not
        fit), registers the VM's start/end on the live schedule, and —
        when the VM starts on the current tick — wakes the server and
        admits it immediately.

        ``vm_id`` is the request's identity: committing a second VM
        with an already-placed id raises
        :class:`~repro.exceptions.ValidationError` (duplicates would
        silently collapse in the :class:`Allocation` view and corrupt
        the from-scratch energy total).
        """
        if vm.vm_id in self._vm_ids:
            raise ValidationError(
                f"vm_id {vm.vm_id} is already placed; "
                "service vm ids must be unique")
        if server_id in self._dead:
            raise ValidationError(
                f"server {server_id} failed at tick "
                f"{self._dead[server_id]} and has not recovered; "
                "it cannot host new VMs")
        delta = self.states[server_id].place(vm)
        self._vm_ids.add(vm.vm_id)
        self._next_vm_id = max(self._next_vm_id, vm.vm_id + 1)
        self._placements.append((vm, server_id))
        self._commit_log.append((vm, server_id, self.clock))
        self.energy_accumulated += delta
        self._schedule_live(vm, server_id)
        return delta

    def _schedule_live(self, vm: VM, server_id: int) -> None:
        """Register ``vm``'s pieces on the live schedule; pieces already
        due start immediately (waking the server when needed), entirely
        past VMs are retired from planning on the spot."""
        open_pieces = 0
        for piece, cpu, memory in demand_profile(vm):
            if piece.end < self.clock:
                continue  # entirely in the past: no live effect
            piece_id = self._next_piece
            self._next_piece += 1
            open_pieces += 1
            self._piece_demand[piece_id] = (cpu, memory)
            self._piece_vm[piece_id] = vm.vm_id
            self._max_end = max(self._max_end, piece.end)
            if piece.start <= self.clock:
                machine = self.machines[server_id]
                if machine.state is PowerState.POWER_SAVING:
                    machine.wake()
                machine.start_vm(piece_id, cpu, memory)
            else:
                self._starts.setdefault(piece.start, []).append(
                    (piece_id, server_id))
            self._ends.setdefault(piece.end, []).append(
                (piece_id, server_id))
        if open_pieces:
            self._open_pieces[vm.vm_id] = [vm, server_id, open_pieces]
        else:
            # Entirely in the past at commit time: retire immediately so
            # planning-state memory tracks live load, not history.
            self.states[server_id].retire(vm, before=self.clock)

    # -- clock -------------------------------------------------------------

    def advance_to(self, t: int) -> None:
        """Advance the wall clock to tick ``t`` (monotone).

        Mirrors the replay engine's per-tick ordering: wakes and VM
        starts open a tick, the fleet sample is taken mid-tick, and VM
        retirements and sleeps close it. The current tick stays open —
        its sample is taken when the clock moves past it, so placements
        landing on the current tick are included.
        """
        if t < self.clock:
            raise ValidationError(
                f"clock cannot move backwards: {t} < {self.clock}")
        while self.clock < t:
            if self.clock >= 1:
                self._close_tick(self.clock)
            self.clock += 1
            for piece_id, server_id in self._starts.pop(self.clock, ()):
                machine = self.machines[server_id]
                if machine.state is PowerState.POWER_SAVING:
                    machine.wake()
                cpu, memory = self._piece_demand[piece_id]
                machine.start_vm(piece_id, cpu, memory)

    def _close_tick(self, tick: int) -> None:
        # Only awake machines draw power or can fall asleep, so the
        # fleet is never enumerated: O(awake + pieces ending); their
        # draws are read as the aggregates remember them, in id order.
        awake, ids = self.fleet.awake, self.fleet.awake_ids()
        power = 0.0
        for server_id in ids:
            power += awake[server_id]
        self._power.append(power)
        self._active.append(self.fleet.active)
        self._running.append(self.fleet.running_vms)
        for piece_id, server_id in self._ends.pop(tick, ()):
            cpu, memory = self._piece_demand.pop(piece_id)
            self.machines[server_id].end_vm(piece_id, cpu, memory)
            vm_id = self._piece_vm.pop(piece_id)
            entry = self._open_pieces[vm_id]
            entry[2] -= 1
            if entry[2] == 0:
                del self._open_pieces[vm_id]
                # Last piece done: the VM ran to completion — drop it from
                # the planning state and compact detail older than `tick`.
                self.states[entry[1]].retire(entry[0], before=tick)
        # Power down emptied servers — unless a start is already
        # scheduled for the very next tick (a zero-length gap).
        imminent = {server_id
                    for _, server_id in self._starts.get(tick + 1, ())}
        for server_id in ids:
            machine = self.machines[server_id]
            if machine.state is PowerState.ACTIVE and \
                    not machine.resident_vms and \
                    server_id not in imminent:
                machine.sleep()

    def run_to_completion(self) -> None:
        """Advance past the last scheduled retirement, closing every tick."""
        self.advance_to(max(self.clock, self._max_end) + 1)

    # -- failures ----------------------------------------------------------

    def fail_server(self, server_id: int, time: int | None = None, *,
                    recovery: Allocator | None = None,
                    replacements: Sequence[Replacement] | None = None
                    ) -> FailureReport:
        """Kill server ``server_id`` at tick ``time``; re-place its VMs.

        Mirrors :func:`repro.simulation.failures.inject_failures`, one
        failure at a time, against the live store: the clock advances to
        ``time`` (default: the current tick), the victim stops drawing
        power and hosting VMs, and every affected VM (``end >= time``,
        processed in ``(start, vm_id)`` order) is cut by the shared
        :func:`~repro.simulation.recovery.split_remainder` rule — the
        interrupted head stays on the victim's books as wasted energy,
        the remainder goes to
        :func:`~repro.simulation.recovery.recover_target` over the
        surviving fleet (``recovery`` defaults to the paper's
        min-incremental-energy heuristic). Remainders that fit nowhere
        are lost.

        Targets that must power on to take a remainder pay the
        transition cost ``alpha`` — visible in each
        :class:`Replacement.energy_delta` — which is why the returned
        :class:`FailureReport` is an *energy* report, not just an
        availability one.

        ``replacements`` is :meth:`apply`'s way in: a recorded episode's
        head/remainder/target triples are applied as-is, the allocator
        never re-run. A record naming a VM the victim does not hold
        raises with the clock moved and nothing marked failed, purged
        or booked.
        """
        if not 0 <= server_id < len(self.cluster):
            raise ValidationError(
                f"failure names unknown server {server_id}")
        if server_id in self._dead:
            raise ValidationError(
                f"server {server_id} already failed at tick "
                f"{self._dead[server_id]}")
        time = self.clock if time is None else int(time)
        if time < 1:
            raise ValidationError(
                f"failure time must be >= 1, got {time}")
        if time < self.clock:
            raise ValidationError(
                f"cannot fail server {server_id} in the past: "
                f"tick {time} < clock {self.clock}")
        at = self.clock
        self.advance_to(time)
        victim = self.states[server_id]
        if replacements is None:
            affected = sorted(
                (vm for vm in victim.vms if vm.end >= time),
                key=lambda v: (v.start, v.vm_id))
            if recovery is None:
                recovery = MinIncrementalEnergy(policy=self.policy,
                                                engine=self.engine_config)
        else:
            affected = [r.vm for r in replacements]
        self._unplace([(vm, server_id) for vm in affected])
        old_cost = victim.cost
        self._dead[server_id] = time
        self.machines[server_id].fail()
        self._purge_pieces({vm.vm_id for vm in affected})
        out: list[Replacement] = []
        if replacements is None:
            for vm in affected:
                head, remainder, self._next_vm_id = split_remainder(
                    vm, time, self._next_vm_id)
                target = recover_target(remainder, self.states,
                                        self._dead, recovery)
                target_id = None if target is None \
                    else target.server.server_id
                out.append(self._apply_replacement(
                    vm, head, remainder, server_id, target_id))
        else:
            for r in replacements:
                if r.head is not None:
                    self._next_vm_id = max(self._next_vm_id,
                                           r.head.vm_id + 1,
                                           r.remainder.vm_id + 1)
                out.append(self._apply_replacement(
                    r.vm, r.head, r.remainder, server_id, r.server_id))
        # Every affected VM was cut on the victim's book; what is left
        # ended before the failure tick, so its twin holds no resident
        # and no occupancy, only the anchor and the Eq.-17 cost.
        self.states[server_id] = victim.live_copy(time)
        victim_delta = victim.cost - old_cost
        self.energy_accumulated += victim_delta
        report = FailureReport(
            server_id=server_id, time=time, replacements=tuple(out),
            victim_delta=victim_delta,
            energy_delta=victim_delta + sum(r.energy_delta for r in out))
        self._events.append({
            "kind": "fail", "server_id": server_id, "time": time,
            "at": at, "after": len(self._commit_log),
            "replacements": report.records})
        return report

    def recover_server(self, server_id: int) -> None:
        """Bring a failed server back to POWER_SAVING.

        Recovery itself is free; the planning book (with any wasted
        heads) is kept, and the server's next wake — forced by the
        first VM placed on it — pays the usual transition ``alpha``.
        """
        if not 0 <= server_id < len(self.cluster):
            raise ValidationError(
                f"recovery names unknown server {server_id}")
        if server_id not in self._dead:
            raise ValidationError(
                f"server {server_id} is not failed")
        del self._dead[server_id]
        self.machines[server_id].recover()
        self._events.append({
            "kind": "recover", "server_id": server_id,
            "at": self.clock, "after": len(self._commit_log)})

    # -- consolidation -----------------------------------------------------

    def consolidate(self, time: int | None = None, *,
                    planner: MigrationPlanner | None = None,
                    moves: Sequence[PlannedMove] | None = None
                    ) -> ConsolidationReport:
        """Run one live consolidation episode at tick ``time``.

        The clock advances to ``time`` (default: the current tick),
        then the shared
        :class:`~repro.consolidation.planner.MigrationPlanner` plans
        one episode against :meth:`~repro.allocators.state.ServerState.
        live_copy` twins of the books — residents, busy segments from
        the anchor on and occupancy from ``time`` on, O(live) whatever
        the history — so the planner's tentative cuts and placements
        never touch the live books. Committed moves
        are then applied for real: each migrated VM's interrupted head
        stays on its source as legitimately-spent energy, the remainder
        is placed and live-scheduled on its target (waking it when
        needed), the per-move cost accrues in :attr:`migration_energy`,
        and sources drained of their last resident power down when the
        tick closes.

        The whole episode is recorded as **one** event in the snapshot
        stream; ``moves`` is :meth:`apply`'s way in — such a recorded
        episode applied verbatim, the planner never re-run. Dead
        servers are neither drained nor targeted.
        """
        time = self.clock if time is None else int(time)
        if time < 1:
            raise ValidationError(
                f"consolidation time must be >= 1, got {time}")
        if time < self.clock:
            raise ValidationError(
                f"cannot consolidate in the past: tick {time} < "
                f"clock {self.clock}")
        at = self.clock
        self.advance_to(time)
        if moves is None:
            copies = [state.live_copy(time) for state in self.states]
            moves = (planner or MigrationPlanner()).plan_episode(
                copies, time, self._next_vm_id,
                skip=frozenset(self._dead)).moves
        report = self._apply_migrations(tuple(moves), time)
        if moves:
            self._events.append({
                "kind": "consolidate", "time": time, "at": at,
                "after": len(self._commit_log), "moves": report.records})
        return report

    def _apply_migrations(self, moves: tuple[PlannedMove, ...],
                          time: int) -> ConsolidationReport:
        """Apply a planned (or replayed) episode to the live books.

        Two passes, because a server drained early in the episode may
        be the *target* of a later victim's remainder: first every
        moved VM leaves its source (live eviction, the book cut down to
        the head left behind), and only then are remainders placed —
        so each target's book already shows the episode's drains when
        its capacity is probed.
        """
        # Heads are appended to the placement list afterwards in move
        # order, exactly as per-move remove-then-append would leave it.
        self._unplace([(move.vm, move.source_id) for move in moves])
        # Batch the live evictions: one pass over the piece table
        # instead of a scan per move (the per-move order of machine
        # eviction and the final schedule state are unchanged).
        moved_ids = {move.vm.vm_id for move in moves}
        pieces_of: dict[int, list[int]] = {}
        for piece_id, owner in self._piece_vm.items():
            if owner in moved_ids:
                pieces_of.setdefault(owner, []).append(piece_id)
        for move in moves:
            machine = self.machines[move.source_id]
            for piece_id in pieces_of.get(move.vm.vm_id, ()):
                if piece_id in machine.resident_vms:
                    cpu, memory = self._piece_demand[piece_id]
                    machine.end_vm(piece_id, cpu, memory)
        if moved_ids:
            self._purge_pieces(moved_ids)
        touched: list[int] = []
        for move in moves:
            # The head ran on the source and its energy is spent and
            # useful; it stays on the source's books.
            self.energy_accumulated -= self.states[move.source_id].cut(
                move.vm, time, move.head)
            self._placements.append((move.head, move.source_id))
            self._vm_ids.add(move.head.vm_id)
            self._next_vm_id = max(self._next_vm_id,
                                   move.head.vm_id + 1,
                                   move.remainder.vm_id + 1)
            self.migration_energy += move.cost
            if move.source_id not in touched:
                touched.append(move.source_id)
        for server_id in touched:
            # The twin drops the heads and re-adds the occupancy from
            # the survivors alone, as a book that never held the moved
            # VMs would carry it.
            self.states[server_id] = self.states[server_id].live_copy(time)
        for move in moves:
            delta = self.states[move.target_id].place(move.remainder)
            self.energy_accumulated += delta
            self._placements.append((move.remainder, move.target_id))
            self._vm_ids.add(move.remainder.vm_id)
            self._schedule_live(move.remainder, move.target_id)
        occupied = {entry[1] for entry in self._open_pieces.values()}
        freed = sum(1 for server_id in touched
                    if server_id not in occupied)
        return ConsolidationReport(time=time, moves=moves,
                                   servers_freed=freed)

    def _apply_replacement(self, vm: VM, head: VM | None, remainder: VM,
                           victim_id: int, target_id: int | None
                           ) -> Replacement:
        """Book one affected VM's head/remainder after its old entry has
        been removed from the placement list."""
        delta = 0.0
        self.states[victim_id].cut(vm, self.clock, head)
        if head is not None:
            # The head ran on the victim and its energy is spent but
            # useless; it stays on the dead server's books as waste
            # (accounted in the victim's delta, not here).
            self._placements.append((head, victim_id))
            self._vm_ids.add(head.vm_id)
        if target_id is not None:
            delta = self.states[target_id].place(remainder)
            self.energy_accumulated += delta
            self._placements.append((remainder, target_id))
            self._vm_ids.add(remainder.vm_id)
            self._schedule_live(remainder, target_id)
        return Replacement(vm=vm, head=head, remainder=remainder,
                           server_id=target_id, energy_delta=delta)

    def _unplace(self, doomed: Sequence[tuple[VM, int]]) -> None:
        """Drop the ``(vm, server_id)`` entries from the placement list
        in one order-preserving sweep keyed on the ids (not an equality
        scan of the log per entry); raises before dropping anything
        unless each is, field for field, a resident of its server's
        book — what :meth:`ServerState.cut` will ask for."""
        if not doomed:
            return
        for vm, sid in doomed:
            if not (0 <= sid < len(self.states)
                    and vm in self.states[sid].vms):
                raise ValidationError(
                    f"vm {vm.vm_id} is not placed on server {sid}")
        keys = {(vm.vm_id, sid) for vm, sid in doomed}
        kept = [entry for entry in self._placements
                if (entry[0].vm_id, entry[1]) not in keys]
        if len(kept) != len(self._placements) - len(doomed):
            raise ValidationError(
                "duplicate placement entries for an episode's VM")
        self._placements[:] = kept

    def _purge_pieces(self, vm_ids: set[int]) -> None:
        """Drop every live-schedule trace of the given VMs (their
        machine residency was already cleared by the failure)."""
        doomed = {piece_id for piece_id, vm_id in self._piece_vm.items()
                  if vm_id in vm_ids}
        for piece_id in doomed:
            del self._piece_demand[piece_id]
            del self._piece_vm[piece_id]
        if doomed:
            for schedule in (self._starts, self._ends):
                for tick in list(schedule):
                    kept = [entry for entry in schedule[tick]
                            if entry[0] not in doomed]
                    if kept:
                        schedule[tick] = kept
                    else:
                        del schedule[tick]
        for vm_id in vm_ids:
            self._open_pieces.pop(vm_id, None)

    # -- recorded mutations ------------------------------------------------

    def apply(self, entry: Mapping[str, object]
              ) -> tuple[tuple[str, int], ...] | FailureReport \
            | ConsolidationReport | None:
        """Apply one recorded mutation verbatim: a journal entry, or a
        snapshot event under its journal name (:meth:`_apply_event`).

        Decisions, re-placements and moves are applied as recorded — no
        allocator, no planner — so the same records on the same store
        reach the same state bit for bit. Returns what the caller
        accounts with: the ``(decision, delay)`` pairs of ``place`` /
        ``place_batch``, the report of ``fail_server`` / ``consolidate``,
        else ``None`` (``init`` is a no-op: its snapshot built the store).
        """
        op = entry.get("op")
        if op == "place":
            return (self._apply_place(entry),)
        if op == "place_batch":
            return tuple(self._apply_place(sub)
                         for sub in entry["decisions"])
        if op == "fail_server":
            return self.fail_server(
                int(entry["server_id"]), int(entry["time"]),
                replacements=[Replacement.from_record(record) for record
                              in entry.get("replacements", ())])
        if op == "consolidate":
            return self.consolidate(
                int(entry["time"]),
                moves=[PlannedMove.from_record(record)
                       for record in entry.get("moves", ())])
        if op == "tick":
            self.advance_to(max(self.clock, int(entry["now"])))
        elif op == "recover_server":
            self.recover_server(int(entry["server_id"]))
        elif op != "init":
            raise ValidationError(f"unknown recorded op {op!r}")
        return None

    def _apply_place(self, entry: Mapping[str, object]) -> tuple[str, int]:
        """One recorded decision: the request, its server and delay."""
        vm = vm_from_record(entry["vm"])
        self.advance_to(max(self.clock, vm.start))
        decision = str(entry["decision"])
        delay = int(entry.get("delay", 0))
        if decision == "placed":
            self.commit(shift_request(vm, delay), int(entry["server_id"]))
        return decision, delay

    def _apply_event(self, event: Mapping[str, object]) -> None:
        """Replay one snapshot event: a journal group under its
        ``kind`` name, stamped with the clock (``at``) it ran at. An
        unknown kind, like a missing field, is a malformed event."""
        try:
            op = _EVENT_OPS[event["kind"]]
            self.advance_to(max(self.clock, int(event["at"])))
            self.apply({**event, "op": op})
        except ValidationError:
            raise
        except (TypeError, KeyError, ValueError) as exc:
            raise ValidationError(
                f"malformed snapshot event: {exc}") from exc

    # -- views -------------------------------------------------------------

    @property
    def placements(self) -> tuple[tuple[VM, int], ...]:
        """Every committed (vm, server_id) pair in commit order."""
        return tuple(self._placements)

    def placement_count(self) -> int:
        """``len(self.placements)`` without building the tuple."""
        return len(self._placements)

    def is_placed(self, vm_id: int) -> bool:
        """Whether a VM with this id has already been committed (the
        service's batch pre-validation uses this to reject duplicate
        ids before mutating anything)."""
        return vm_id in self._vm_ids

    def allocation(self) -> Allocation:
        """The committed placements as an :class:`Allocation`."""
        return Allocation(self.cluster,
                          {vm: sid for vm, sid in self._placements})

    def energy_total(self) -> float:
        """From-scratch analytic Eq.-17 energy of the committed plan."""
        return allocation_cost(self.allocation(), policy=self.policy).total

    def fleet_power(self) -> float:
        """Instantaneous fleet power draw (Eq. 1) on the current tick."""
        # Lock-free: sorted() snapshots the dict's items in one C call.
        return sum([d for _, d in sorted(self.fleet.awake.items())], 0.0)

    def servers_active(self) -> int:
        return self.fleet.active

    def servers_asleep(self) -> int:
        return self.fleet.asleep

    def servers_failed(self) -> int:
        return len(self._dead)

    def is_failed(self, server_id: int) -> bool:
        return server_id in self._dead

    def dead_servers(self) -> dict[int, int]:
        """``server_id -> failure tick`` of the currently-failed servers."""
        return dict(self._dead)

    def commits_since_fleet_change(self) -> list[tuple[VM, int]]:
        """The ``(vm, server_id)`` commits, in order, since the last
        failure, recovery or consolidation that moved something — the
        decisions made on today's :meth:`live_states`."""
        after = self._events[-1]["after"] if self._events else 0
        return [(vm, server_id)
                for vm, server_id, _ in self._commit_log[after:]]

    def live_states(self) -> list[ServerState]:
        """Planning states of the non-failed servers, ascending id —
        the fleet allocators are allowed to scan. Note the list
        positions are *not* server ids once a server is dead."""
        return [state for sid, state in enumerate(self.states)
                if sid not in self._dead]

    def running_vms(self) -> int:
        return self.fleet.running_vms

    def telemetry(self) -> Telemetry:
        """The closed-tick series as an immutable Telemetry."""
        return Telemetry(power=np.array(self._power, dtype=float),
                         active_servers=np.array(self._active, dtype=int),
                         running_vms=np.array(self._running, dtype=int))

    # -- snapshots ---------------------------------------------------------

    def _snapshot_head(self) -> dict[str, object]:
        if any(event.get("kind") == "consolidate"
               for event in self._events):
            version = 3
        elif self._events:
            version = 2
        else:
            version = 1
        return {"format_version": version, "policy": self.policy.value,
                "engine": self.engine_config.spec, "clock": self.clock}

    def _placement_records(self, start: int = 0
                           ) -> Iterator[dict[str, object]]:
        for vm, server_id, committed_at in self._commit_log[start:]:
            yield {"server_id": server_id, "committed_at": committed_at,
                   "vm": vm_to_record(vm)}

    def to_snapshot(self, meta: Mapping[str, object] | None = None
                    ) -> dict[str, object]:
        """A JSON-safe document from which :meth:`from_snapshot` rebuilds
        an identical store. ``meta`` rides along uninterpreted (the
        daemon stores its counters and journal sequence there).

        Failure/recovery events make the document format version 2
        (commit stream + interleaved event stream) and consolidation
        episodes make it version 3; a store that never saw either keeps
        writing version 1, byte-compatible with older builds.
        """
        document = self._snapshot_head()
        document["cluster"] = [_spec_record(server.spec)
                               for server in self.cluster]
        document["placements"] = list(self._placement_records())
        document["meta"] = dict(meta) if meta else {}
        if self._events:
            document["events"] = [dict(event) for event in self._events]
        return document

    def snapshot_parts(self, meta: Mapping[str, object] | None = None
                       ) -> Iterator[bytes]:
        """``json.dumps(self.to_snapshot(meta))`` as UTF-8 chunks, whose
        join is the document byte for byte, for the cost of the commits
        since the previous call: the cluster never changes and the
        commit log only grows, so their JSON is kept encoded and only
        the head, ``meta`` and the (few) events are encoded afresh. The
        chunks are meant to be written as they come, never joined; only
        a store's first call encodes its whole commit log as one."""
        kept = self._kept_json
        if not kept:
            cluster = [_spec_record(server.spec) for server in self.cluster]
            kept.append(f', "cluster": {json.dumps(cluster)}, '
                        f'"placements": ['.encode())
        if self._encoded < len(self._commit_log):
            # One record at a time: their dicts never coexist.
            fresh = map(json.dumps, self._placement_records(self._encoded))
            lead = ", " if self._encoded else ""
            kept.append((lead + ", ".join(fresh)).encode())
            self._encoded = len(self._commit_log)
        tail: dict[str, object] = {"meta": dict(meta) if meta else {}}
        if self._events:
            tail["events"] = self._events
        yield json.dumps(self._snapshot_head())[:-1].encode()
        yield from kept
        yield ("], " + json.dumps(tail)[1:]).encode()

    @classmethod
    def from_snapshot(cls, document: Mapping[str, object]
                      ) -> "ClusterStateStore":
        """Rebuild a store from a :meth:`to_snapshot` document.

        Placements are re-committed in their original order, each at
        its recorded ``committed_at`` clock, with failure/recovery
        events interleaved at their recorded positions (each event's
        ``after`` counts the commits preceding it) and applied with
        their *recorded* re-placements — the allocator is never re-run
        — so the live sequence of commits, clock advances and failures,
        and with it planning state, power states, transition counters
        and telemetry, is reproduced exactly.
        """
        version = document.get("format_version")
        if version not in _SUPPORTED_SNAPSHOT_VERSIONS:
            raise ValidationError(
                f"unsupported snapshot format version {version!r}")
        try:
            specs = [ServerSpec(**record) for record in document["cluster"]]
            policy = SleepPolicy(document["policy"])
            # Pre-engine snapshots carry no field: they were produced by
            # the dense-only build, but replay is engine-agnostic, so the
            # default (indexed) engine restores them bit-exactly too.
            engine = EngineConfig.parse(
                str(document.get("engine", DEFAULT_ENGINE)))
            clock = int(document["clock"])
            entries = list(document["placements"])
            events = deque(document.get("events", ()))
        except (TypeError, KeyError, ValueError) as exc:
            raise ValidationError(f"malformed snapshot: {exc}") from exc
        store = cls(Cluster.from_specs(specs), policy=policy, engine=engine)
        for i, entry in enumerate(entries):
            while events and int(events[0].get("after", 0)) <= i:
                store._apply_event(events.popleft())
            try:
                vm = vm_from_record(entry["vm"])
                server_id = int(entry["server_id"])
                committed_at = int(entry["committed_at"])
            except (TypeError, KeyError, ValueError) as exc:
                raise ValidationError(
                    f"malformed snapshot placement #{i}: {exc}") from exc
            store.advance_to(max(store.clock, committed_at))
            store.commit(vm, server_id)
        while events:
            store._apply_event(events.popleft())
        store.advance_to(clock)
        return store

    def __repr__(self) -> str:
        return (f"ClusterStateStore(n_servers={len(self.cluster)}, "
                f"clock={self.clock}, placements={len(self._placements)}, "
                f"active={self.servers_active()})")


def snapshot_meta(document: Mapping[str, object]) -> dict[str, object]:
    """The ``meta`` payload of a snapshot document (empty when absent)."""
    meta = document.get("meta")
    return dict(meta) if isinstance(meta, Mapping) else {}
