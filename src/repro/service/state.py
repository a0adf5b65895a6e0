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
  unknown — so the live view sleeps greedily, bridging a zero-length gap
  only to a VM committed before its start tick, not one placed at it;
  the *authoritative* energy remains the analytic accounting, which
  applies the configured sleep policy exactly). A
  tick closes in O(awake servers + pieces ending), whatever the fleet;
* **telemetry** — per-tick fleet power, active servers and running VMs
  of the newest :data:`TICK_WINDOW` closed ticks, frozen into a
  :class:`~repro.simulation.telemetry.Telemetry` on demand, and running
  totals (:attr:`ClusterStateStore.busy_energy`,
  :attr:`ClusterStateStore.power_peak`) over every closed tick.

The store keeps state, not history: once a VM's last piece ends it
leaves its book, and nothing else remembers it but the vm-id runs (ids
are the requests' identity) and the counters. It is crash-safe via
:meth:`to_snapshot` / :meth:`from_snapshot` (:meth:`snapshot_parts` is
the same document as UTF-8 chunks), whose codec lives in
:mod:`repro.service.snapshot`: a format-4 snapshot records each book,
machine and open demand piece verbatim — floats as hex — so planning
state, machines (power state, residents, transition counters) and the
closed-tick totals are rebuilt bit-for-bit in O(live VMs + fleet).
Snapshots of formats 1–3 recorded the commit log instead and are
restored by replaying it.

Failures are first-class: :meth:`fail_server` kills a server at a tick,
splits every affected VM through the shared
:mod:`repro.simulation.recovery` mechanics (interrupted heads stay on
the victim's books as wasted energy, remainders are re-placed through a
recovery allocator over the surviving fleet), and returns the whole
episode — every head/remainder/target — as the report the daemon
journals, so a journal replay applies the *recorded* re-placements
instead of re-running the allocator. :meth:`recover_server` brings a
dead server back to POWER_SAVING; its next wake pays the usual
transition cost ``alpha``, which is exactly the paper's Eq.-17
accounting of recovery as an energy event.

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
No book is rebuilt from a placement log — the store keeps none: an
episode and a failure cost what is live, not what has been. A journaled
episode is replayed from its recorded moves exactly like a failure
episode — the planner is never re-run on restore.
"""

from __future__ import annotations

import bisect
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterator, Mapping, Sequence

from repro.allocators.base import Allocator
from repro.allocators.min_energy import MinIncrementalEnergy
from repro.allocators.state import ServerState
from repro.consolidation.planner import (
    ConsolidationReport,
    MigrationPlanner,
    PlannedMove,
)
from repro.energy.cost import SleepPolicy
from repro.exceptions import ValidationError
from repro.model.allocation import Allocation
from repro.model.cluster import Cluster
from repro.model.phases import demand_profile
from repro.model.vm import VM
from repro.obs.telemetry import DEFAULT_CAPACITY
from repro.placement.config import EngineConfig
from repro.service import snapshot
from repro.service.snapshot import SNAPSHOT_FORMAT_VERSION, snapshot_meta
from repro.simulation.admission import shift_request
from repro.simulation.power_state import (
    FleetAggregates,
    PowerState,
    ServerMachine,
)
from repro.simulation.recovery import recover_target, split_remainder
from repro.workload.trace import vm_from_record, vm_to_record

if TYPE_CHECKING:
    from repro.simulation.telemetry import Telemetry

__all__ = ["ClusterStateStore", "ConsolidationReport", "FailureReport",
           "Replacement", "SNAPSHOT_FORMAT_VERSION", "snapshot_meta"]

#: Closed ticks :meth:`ClusterStateStore.telemetry` returns: the newest
#: window, as long as the daemon's telemetry ring holds by default.
TICK_WINDOW = DEFAULT_CAPACITY


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
        """The replacements as JSON records, encoded once, as the daemon
        journals them."""
        return [r.to_record() for r in self.replacements]


#: format 1–3 snapshot event ``kind`` -> the journal op recording the
#: same episode
_EVENT_OPS = {"fail": "fail_server", "recover": "recover_server",
              "consolidate": "consolidate"}


class _IdRuns:
    """The vm ids ever committed, as sorted disjoint ``[lo, hi]`` runs:
    ids a stream hands out in order cost one run, not one entry each."""

    __slots__ = ("_lo", "_hi")

    def __init__(self) -> None:
        self._lo: list[int] = []
        self._hi: list[int] = []

    def __contains__(self, vm_id: int) -> bool:
        k = bisect.bisect_right(self._lo, vm_id) - 1
        return k >= 0 and vm_id <= self._hi[k]

    def add(self, vm_id: int) -> None:
        lo, hi = self._lo, self._hi
        k = bisect.bisect_right(lo, vm_id) - 1
        if k >= 0 and vm_id <= hi[k]:
            return
        joins_left = k >= 0 and hi[k] == vm_id - 1
        joins_right = k + 1 < len(lo) and lo[k + 1] == vm_id + 1
        if joins_left and joins_right:
            hi[k] = hi[k + 1]
            del lo[k + 1], hi[k + 1]
        elif joins_left:
            hi[k] = vm_id
        elif joins_right:
            lo[k + 1] = vm_id
        else:
            lo.insert(k + 1, vm_id)
            hi.insert(k + 1, vm_id)

    def runs(self) -> list[list[int]]:
        return [[lo, hi] for lo, hi in zip(self._lo, self._hi)]

    def load(self, runs) -> None:
        self._lo = [int(lo) for lo, _ in runs]
        self._hi = [int(hi) for _, hi in runs]


class ClusterStateStore:
    """Mutable cluster state: planning usage, power states, telemetry."""

    def __init__(self, cluster: Cluster, *,
                 policy: SleepPolicy = SleepPolicy.OPTIMAL,
                 engine: EngineConfig | str | None = None) -> None:
        self.cluster = cluster
        self.policy = policy
        # The store is a config-file-level entry point (CLI, snapshots),
        # so a string here is read as the sanctioned spec string — no
        # ctor-string deprecation, unlike the allocator constructors.
        self.engine_config = EngineConfig.coerce(engine, warn=False)
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
        #: (vm, server) entries ever booked: commits, plus the heads and
        #: remainders failures and migrations split VMs into, less the
        #: VMs so split (:meth:`placement_count`)
        self._placed = 0
        #: the last :meth:`commit` since a failure, a recovery or an
        #: episode that moved something, as (vm, server_id) — all
        #: ``Allocator.replayed`` needs after a restore
        self._last_commit: tuple[VM, int] | None = None
        #: server_id -> failure tick of currently-dead servers
        self._dead: dict[int, int] = {}
        #: ids (the keys) of the servers any mutation has reached; a
        #: snapshot skips the rest unread, as a fresh store builds them
        self._touched: dict[int, None] = {}
        self._vm_ids = _IdRuns()
        #: next fresh vm id for failure splits (heads/remainders get ids
        #: above every id ever committed, mirroring the offline replay)
        self._next_vm_id = 0
        # live-event schedule: tick -> [(piece_id, server_id)]
        self._starts: dict[int, list[tuple[int, int]]] = defaultdict(list)
        self._ends: dict[int, list[tuple[int, int]]] = defaultdict(list)
        self._piece_demand: dict[int, tuple[float, float]] = {}
        # retirement bookkeeping: which VM each piece belongs to, and how
        # many of a VM's pieces are still scheduled to end
        self._piece_vm: dict[int, int] = {}
        self._open_pieces: dict[int, list] = {}  # vm_id -> [vm, sid, n]
        self._next_piece = 0
        self._max_end = 0
        #: what the snapshot codec encodes once and keeps: the
        #: ``cluster`` array's JSON, and the closed-tick power blocks
        #: the window holds whole (:func:`snapshot._power_blocks`)
        self._cluster_json: bytes | None = None
        self._power_blocks: dict[int, str] = {}
        # the newest TICK_WINDOW closed-tick samples (ticks < clock
        # are closed), and running totals over every closed tick since
        # the store began
        self._power: list[float] = []
        self._active: list[int] = []
        self._running: list[int] = []
        #: integrated live fleet power over every closed tick
        self.busy_energy = 0.0
        #: peak per-tick fleet power over every closed tick
        self.power_peak = 0.0

    # -- placement ---------------------------------------------------------

    def commit(self, vm: VM, server_id: int,
               cost: float | None = None) -> float:
        """Commit ``vm`` to server ``server_id``; returns the energy delta.

        Updates the planning state (raising
        :class:`~repro.exceptions.CapacityError` when the VM does not
        fit; a ``cost`` the scan priced is booked as is), registers the
        VM's start/end on the live schedule, and — when the VM starts on
        the current tick — wakes the server and admits it immediately.

        ``vm_id`` is the request's identity: committing a second VM
        with an already-placed id raises
        :class:`~repro.exceptions.ValidationError` (duplicates would
        silently collapse in the :class:`Allocation` view).
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
        delta = self.states[server_id].place(vm, cost)
        self._vm_ids.add(vm.vm_id)
        self._next_vm_id = max(self._next_vm_id, vm.vm_id + 1)
        self._placed += 1
        self._last_commit = (vm, server_id)
        self.energy_accumulated += delta
        self._schedule_live(vm, server_id)
        return delta

    def _schedule_live(self, vm: VM, server_id: int) -> None:
        """Register ``vm``'s pieces on the live schedule; pieces already
        due start immediately (waking the server when needed), entirely
        past VMs are retired from planning on the spot."""
        open_pieces, clock = 0, self.clock
        self._touched[server_id] = None
        for piece, cpu, memory in demand_profile(vm):
            if piece.end < clock:
                continue  # entirely in the past: no live effect
            piece_id = self._next_piece
            self._next_piece += 1
            open_pieces += 1
            self._piece_demand[piece_id] = (cpu, memory)
            self._piece_vm[piece_id] = vm.vm_id
            self._max_end = max(self._max_end, piece.end)
            if piece.start <= clock:
                machine = self.machines[server_id]
                if machine.state is PowerState.POWER_SAVING:
                    machine.wake()
                machine.start_vm(piece_id, cpu, memory)
            else:
                self._starts[piece.start].append((piece_id, server_id))
            self._ends[piece.end].append((piece_id, server_id))
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
            else:  # tick 0 precedes the sampled horizon (y_i,0 = 0)
                self._end_tick(0)
            self.clock += 1
            for piece_id, server_id in self._starts.pop(self.clock, ()):
                machine = self.machines[server_id]
                if machine.state is PowerState.POWER_SAVING:
                    machine.wake()
                cpu, memory = self._piece_demand[piece_id]
                machine.start_vm(piece_id, cpu, memory)

    def _close_tick(self, tick: int) -> None:
        """Fold the tick's fleet sample into the running totals and the
        window, then end it. Only awake machines draw power, so the
        fleet is never enumerated: O(awake + pieces ending); their
        draws are read as the aggregates remember them, in id order."""
        fleet = self.fleet
        awake, power = fleet.awake, 0.0
        for server_id in fleet.awake_ids():
            power += awake[server_id]
        self.busy_energy += power
        if power > self.power_peak:
            self.power_peak = power
        window = self._power
        window.append(power)
        self._active.append(fleet.active)
        self._running.append(fleet.running_vms)
        if len(window) > TICK_WINDOW:
            del window[0], self._active[0], self._running[0]
        self._end_tick(tick)

    def _end_tick(self, tick: int) -> None:
        """End the pieces due at ``tick``, then power emptied servers
        down in ascending id order: the aggregates' ``idle`` ids, the
        ACTIVE machines hosting nothing."""
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
        idle = self.fleet.idle
        if idle:
            imminent = {server_id
                        for _, server_id in self._starts.get(tick + 1, ())}
            for server_id in sorted(idle):
                if server_id not in imminent:
                    self.machines[server_id].sleep()

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
        self._touched[server_id] = None
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
        self._last_commit = None
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
        self._touched[server_id] = None
        self.machines[server_id].recover()
        self._last_commit = None

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

        The daemon journals the whole episode as **one** group;
        ``moves`` is :meth:`apply`'s way in — such a recorded episode
        applied verbatim, the planner never re-run. Dead servers are
        neither drained nor targeted.
        """
        time = self.clock if time is None else int(time)
        if time < 1:
            raise ValidationError(
                f"consolidation time must be >= 1, got {time}")
        if time < self.clock:
            raise ValidationError(
                f"cannot consolidate in the past: tick {time} < "
                f"clock {self.clock}")
        self.advance_to(time)
        if moves is None:
            copies = [state.live_copy(time) for state in self.states]
            moves = (planner or MigrationPlanner()).plan_episode(
                copies, time, self._next_vm_id,
                skip=frozenset(self._dead)).moves
        report = self._apply_migrations(tuple(moves), time)
        if moves:
            self._last_commit = None
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
            self._placed += 1
            self._vm_ids.add(move.head.vm_id)
            self._next_vm_id = max(self._next_vm_id,
                                   move.head.vm_id + 1,
                                   move.remainder.vm_id + 1)
            self.migration_energy += move.cost
            self._touched[move.source_id] = None
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
            self._placed += 1
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
        been unplaced."""
        delta = 0.0
        self.states[victim_id].cut(vm, self.clock, head)
        if head is not None:
            # The head ran on the victim and its energy is spent but
            # useless; it stays on the dead server's books as waste
            # (accounted in the victim's delta, not here).
            self._placed += 1
            self._vm_ids.add(head.vm_id)
        if target_id is not None:
            delta = self.states[target_id].place(remainder)
            self.energy_accumulated += delta
            self._placed += 1
            self._vm_ids.add(remainder.vm_id)
            self._schedule_live(remainder, target_id)
        return Replacement(vm=vm, head=head, remainder=remainder,
                           server_id=target_id, energy_delta=delta)

    def _unplace(self, doomed: Sequence[tuple[VM, int]]) -> None:
        """Take the ``(vm, server_id)`` entries off the placement count;
        raises before anything is touched unless each is, field for
        field and once, a resident of its server's book — what
        :meth:`ServerState.cut` will ask for. The books are the check:
        there is no log to sweep."""
        for vm, sid in doomed:
            if not (0 <= sid < len(self.states)
                    and vm in self.states[sid].vms):
                raise ValidationError(
                    f"vm {vm.vm_id} is not placed on server {sid}")
        if len({(vm.vm_id, sid) for vm, sid in doomed}) != len(doomed):
            raise ValidationError(
                "duplicate placement entries for an episode's VM")
        self._placed -= len(doomed)

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
        format 1–3 snapshot event under its journal name
        (:meth:`_apply_event`).

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
        """Replay one format 1–3 snapshot event: a journal group under its
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
        """The live placements: each book's residents as (vm,
        server_id), ascending server id, in book order. A VM leaves
        when its last piece ends, or when a failure or a migration cuts
        it (a remainder then lives on its target); O(live VMs)."""
        return tuple((vm, server_id)
                     for server_id, book in enumerate(self.states)
                     for vm in book.vms)

    def placement_count(self) -> int:
        """The (vm, server_id) entries booked since the store began:
        commits, plus the heads and remainders failures and migrations
        split VMs into, less the VMs so split — a counter."""
        return self._placed

    def is_placed(self, vm_id: int) -> bool:
        """Whether a VM with this id has already been committed (the
        service's batch pre-validation uses this to reject duplicate
        ids before mutating anything)."""
        return vm_id in self._vm_ids

    def allocation(self) -> Allocation:
        """The live :attr:`placements` as an :class:`Allocation`."""
        return Allocation(self.cluster, dict(self.placements))

    def energy_total(self) -> float:
        """Analytic Eq.-17 energy of everything ever booked: the books'
        running costs summed in server order, O(fleet). It agrees with
        ``allocation_cost`` of the whole placement history to rounding
        (``docs/service.md`` gives the tolerance)."""
        return sum([book.cost for book in self.states], 0.0)

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
        """The last ``(vm, server_id)`` commit since the last failure,
        recovery or consolidation that moved something — the newest
        decision made on today's :meth:`live_states` — or none. Round
        robin's rotation, the one ``Allocator.replayed`` hook that reads
        anything, needs no more."""
        return [] if self._last_commit is None else [self._last_commit]

    def live_states(self) -> list[ServerState]:
        """Planning states of the non-failed servers, ascending id —
        the fleet allocators are allowed to scan. Note the list
        positions are *not* server ids once a server is dead."""
        return [state for sid, state in enumerate(self.states)
                if sid not in self._dead]

    def running_vms(self) -> int:
        return self.fleet.running_vms

    def telemetry_window(self) -> tuple[Iterator[float], Iterator[int],
                                        Iterator[int]]:
        """Power, active servers and running VMs of the newest
        :data:`TICK_WINDOW` closed ticks, oldest first, uncopied."""
        return iter(self._power), iter(self._active), iter(self._running)

    def telemetry(self) -> "Telemetry":
        """The newest :data:`TICK_WINDOW` closed ticks (all of them on a
        younger store) as an immutable Telemetry; index 0 is the oldest
        of the window. :attr:`busy_energy` and :attr:`power_peak` hold
        the totals over every closed tick."""
        import numpy as np

        from repro.simulation.telemetry import Telemetry

        power, active, running = self.telemetry_window()
        return Telemetry(power=np.fromiter(power, dtype=float),
                         active_servers=np.fromiter(active, dtype=int),
                         running_vms=np.fromiter(running, dtype=int))

    # -- snapshots ---------------------------------------------------------

    def to_snapshot(self, meta: Mapping[str, object] | None = None
                    ) -> dict[str, object]:
        """A JSON-safe format-4 document from which :meth:`from_snapshot`
        rebuilds an identical store (:mod:`repro.service.snapshot`).
        ``meta`` rides along uninterpreted (the daemon stores its
        counters and journal sequence there)."""
        return snapshot.to_snapshot(self, meta)

    def snapshot_parts(self, meta: Mapping[str, object] | None = None
                       ) -> Iterator[bytes]:
        """``json.dumps(self.to_snapshot(meta))`` as UTF-8 chunks whose
        join is the document byte for byte, none larger than one
        server's record — written as they come, never joined."""
        return snapshot.snapshot_parts(self, meta)

    @classmethod
    def from_snapshot(cls, document: Mapping[str, object]
                      ) -> "ClusterStateStore":
        """Rebuild a store from a snapshot document: format 4 loads the
        recorded state as written, in O(live VMs + fleet); formats 1–3
        replay their commit log and events at their recorded clocks."""
        return snapshot.load(cls, document)

    def __repr__(self) -> str:
        return (f"ClusterStateStore(n_servers={len(self.cluster)}, "
                f"clock={self.clock}, placements={self._placed}, "
                f"active={self.servers_active()})")

