"""Migration planning: which VM moves where, and is it worth it.

A live migration at tick ``t`` cuts a running VM through the shared
crash-recovery rule :func:`~repro.simulation.recovery.split_remainder`:
the head ``[start, t-1]`` stays on the source (its energy is spent and
legitimate — unlike a failure, nothing was wasted), the remainder
``[t, end]`` re-bids across the fleet. Moving the remainder to server
``j`` is worth it when

    ``cost_j(remainder) + move_cost  <  cost_source(remainder)``

where both sides are the paper's Eq.-2/3 incremental cost (run energy
``W_ij`` + idle-gap change + wake ``alpha``) evaluated against the
source already shrunk to the head, and ``move_cost =
migration_cost_per_gb * vm.memory`` charges the RAM copy. Only
strictly-saving moves (beyond a 1e-9 band) are planned, so every plan
is net-energy-positive by construction.

:meth:`MigrationPlanner.plan_episode` is the one episode algorithm both
consumers run — the offline :class:`~repro.extensions.consolidation.
EpochConsolidator` at each epoch boundary on its uncompacted books, and
the live :meth:`~repro.service.state.ClusterStateStore.consolidate`
pass on O(live) copies of the compacted live books. A migration is a
:meth:`~repro.allocators.state.ServerState.cut`, which reads nothing
before the episode tick, so both see identical answers — which is what
makes the live-versus-offline equivalence test possible: identical
code, identical migrations.

Candidate targets are scanned in ascending server id, filtered by
:meth:`~repro.allocators.state.ServerState.admits`; with ``k_sample``
set, only the first ``k`` *feasible* candidates are bid (the GammaFF-
style sampling queue), trading optimality for bounded episode latency
on large fleets.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

from repro.allocators.state import ServerState
from repro.consolidation.victim import VictimSelector
from repro.exceptions import ValidationError
from repro.model.phases import demand_at
from repro.model.vm import VM
from repro.simulation.recovery import split_remainder
from repro.workload.trace import vm_from_record, vm_to_record

__all__ = ["ConsolidationPlan", "ConsolidationReport", "MigrationPlanner",
           "PlannedMove"]

#: A move must beat staying put by more than this band to be planned.
_SAVING_BAND = 1e-9

#: Slack on the fast capacity check so float accumulation can never
#: reject a server the exact probe would accept.
_FREE_SLACK = 1e-9


class _EpisodeCache:
    """Per-episode scan accelerator: a tick-headroom filter plus a bid
    memo. Plans are unchanged — it only skips and reuses work.

    *Filter*: every remainder a consolidation episode bids starts *at*
    the episode tick, so a server without headroom for it at that
    single tick can never pass the full window
    :meth:`~repro.allocators.state.ServerState.admits`. Tracking free
    (cpu, memory) at the tick per server turns the common "target is
    already packed full" rejection into two float compares instead of
    an occupancy probe. A *necessary* condition only — survivors still
    get the real probe.

    *Memo*: between committed moves the books are immutable, and an
    episode's remainders repeat a handful of (cpu, memory, interval)
    shapes, so each candidate's probe verdict and incremental cost are
    cached by ``(target, shape)`` and invalidated for the two servers a
    commit touches. Phase-profiled VMs bypass the memo (their shape is
    not captured by the key).
    """

    __slots__ = ("time", "free_cpu", "free_mem", "_bids")

    def __init__(self, states: Sequence[ServerState], time: int) -> None:
        self.time = time
        self.free_cpu: list[float] = []
        self.free_mem: list[float] = []
        self._bids: dict[tuple, tuple[bool, float]] = {}
        for state in states:
            cpu = mem = 0.0
            for vm in state.vms:
                vm_cpu, vm_mem = demand_at(vm, time)
                cpu += vm_cpu
                mem += vm_mem
            spec = state.server.spec
            self.free_cpu.append(spec.cpu_capacity - cpu + _FREE_SLACK)
            self.free_mem.append(spec.memory_capacity - mem + _FREE_SLACK)

    def admits(self, server_id: int, cpu: float, mem: float) -> bool:
        """Whether the server has tick headroom for a (cpu, mem) piece."""
        return (self.free_cpu[server_id] >= cpu
                and self.free_mem[server_id] >= mem)

    def bid(self, target_id: int, target: ServerState, remainder: VM,
            shape: tuple | None) -> tuple[bool, float]:
        """``(admitted, incremental cost)`` for one candidate,
        memoised by remainder shape while the book is unchanged."""
        if shape is None:
            if not target.admits(remainder):
                return False, 0.0
            return True, target.incremental_cost(remainder)
        key = (target_id, *shape)
        hit = self._bids.get(key)
        if hit is None:
            if not target.admits(remainder):
                hit = (False, 0.0)
            else:
                hit = (True, target.incremental_cost(remainder))
            self._bids[key] = hit
        return hit

    def commit(self, move: "PlannedMove") -> None:
        """Reflect a committed move: the full piece leaves its source
        (the head ends before the tick), the remainder lands on the
        target; both servers' memoised bids go stale."""
        cpu, mem = demand_at(move.vm, self.time)
        self.free_cpu[move.source_id] += cpu
        self.free_mem[move.source_id] += mem
        cpu, mem = demand_at(move.remainder, self.time)
        self.free_cpu[move.target_id] -= cpu
        self.free_mem[move.target_id] -= mem
        touched = (move.source_id, move.target_id)
        for key in [key for key in self._bids if key[0] in touched]:
            del self._bids[key]


@dataclass(frozen=True)
class PlannedMove:
    """One planned live migration at tick ``time == remainder.start``.

    ``vm`` is the piece as currently placed on ``source_id``; ``head``
    is its already-run prefix that stays behind, ``remainder`` the part
    that moves to ``target_id``. ``saving`` is the (negative) net
    Eq.-17 delta of the move *including* the migration energy ``cost``.
    """

    vm: VM
    head: VM
    remainder: VM
    source_id: int
    target_id: int
    saving: float
    cost: float

    @property
    def time(self) -> int:
        """The migration tick (the remainder's first tick)."""
        return self.remainder.start

    def to_record(self) -> dict[str, object]:
        return {
            "vm": vm_to_record(self.vm),
            "head": vm_to_record(self.head),
            "remainder": vm_to_record(self.remainder),
            "source_id": self.source_id,
            "target_id": self.target_id,
            "saving": self.saving,
            "cost": self.cost,
        }

    @classmethod
    def from_record(cls, record: Mapping[str, object]) -> "PlannedMove":
        try:
            return cls(
                vm=vm_from_record(record["vm"]),
                head=vm_from_record(record["head"]),
                remainder=vm_from_record(record["remainder"]),
                source_id=int(record["source_id"]),
                target_id=int(record["target_id"]),
                saving=float(record.get("saving", 0.0)),
                cost=float(record.get("cost", 0.0)),
            )
        except (TypeError, KeyError, ValueError) as exc:
            raise ValidationError(
                f"malformed migration record: {exc}") from exc


@dataclass(frozen=True)
class ConsolidationPlan:
    """Every move one planning episode decided on, in apply order."""

    time: int
    moves: tuple[PlannedMove, ...]

    @property
    def migration_energy(self) -> float:
        """Total migration cost charged by the plan's moves."""
        return sum(move.cost for move in self.moves)

    @property
    def total_saving(self) -> float:
        """Net Eq.-17 delta of the plan (negative: energy saved)."""
        return sum(move.saving for move in self.moves)


@dataclass(frozen=True)
class ConsolidationReport:
    """What one live :meth:`ClusterStateStore.consolidate` episode did."""

    time: int
    moves: tuple[PlannedMove, ...]
    #: drained servers left with no live VM — they power down at the
    #: close of the migration tick
    servers_freed: int

    @property
    def migrations(self) -> int:
        return len(self.moves)

    @property
    def migration_energy(self) -> float:
        return sum(move.cost for move in self.moves)

    @property
    def energy_saved(self) -> float:
        """Net Eq.-17 energy the episode saved (>= 0 by construction:
        only strictly-saving moves are planned)."""
        return -sum(move.saving for move in self.moves)

    @cached_property
    def records(self) -> list[dict[str, object]]:
        """The moves as JSON records, encoded once, as the daemon
        journals them."""
        return [move.to_record() for move in self.moves]


class MigrationPlanner:
    """Plans net-energy-positive migrations over planning states.

    Parameters
    ----------
    migration_cost_per_gb:
        Energy charged per GByte of VM memory per move, in the same
        watt-time-unit currency as the rest of the model.
    k_sample:
        When set, each remainder is bid to at most this many
        probe-feasible candidate targets (scanned in ascending server
        id) instead of the whole fleet — bounded episode latency at the
        price of possibly missing a cheaper target. ``None`` bids to
        every feasible server (the offline default).
    selector:
        The :class:`~repro.consolidation.victim.VictimSelector` ranking
        drain order (default: fewest residents, largest reclaim).
    """

    def __init__(self, migration_cost_per_gb: float = 5.0,
                 k_sample: int | None = None,
                 selector: VictimSelector | None = None) -> None:
        if migration_cost_per_gb < 0:
            raise ValidationError(
                "migration_cost_per_gb must be non-negative, got "
                f"{migration_cost_per_gb}")
        if k_sample is not None and k_sample < 1:
            raise ValidationError(
                f"k_sample must be >= 1 (or None), got {k_sample}")
        self.migration_cost_per_gb = float(migration_cost_per_gb)
        self.k_sample = k_sample
        self.selector = selector if selector is not None \
            else VictimSelector()

    def move_cost(self, vm: VM) -> float:
        """The per-move migration energy: cost per GB times VM memory."""
        return self.migration_cost_per_gb * vm.memory

    def best_move(self, piece: VM, time: int, source_id: int,
                  states: Sequence[ServerState], next_id: int, *,
                  skip: frozenset[int] = frozenset(),
                  cache: _EpisodeCache | None = None
                  ) -> PlannedMove | None:
        """The best migration for ``piece`` at tick ``time``, if any saves.

        Pure — the states are never touched: the stay-put price is read
        off a hypothetical source book with the piece cut down to its
        head (:meth:`~repro.allocators.state.ServerState.
        incremental_cost_swapped`), and candidates are only probed.
        Commit a returned move with :meth:`apply`. Returns ``None``
        when keeping the piece in place is cheapest (or the piece has
        not started yet — nothing runs, so there is no RAM to migrate).
        ``cache`` is :meth:`plan_episode`'s scan accelerator; it never
        changes which move wins.
        """
        head, remainder, _ = split_remainder(piece, time, next_id)
        if head is None:
            return None
        source = states[source_id]
        # Staying put costs the remainder's incremental on the source
        # shrunk to the head — the same for every candidate, so priced
        # once, and hypothetically, so the book stays untouched.
        stay_cost = source.incremental_cost_swapped(
            remainder, without=piece, time=time)
        need_cpu, need_mem = demand_at(remainder, time)
        shape = ((remainder.start, remainder.end, remainder.cpu,
                  remainder.memory) if type(remainder) is VM else None)
        best_target: int | None = None
        best_saving = 0.0
        move_cost = self.move_cost(piece)
        examined = 0
        for target_id, target in enumerate(states):
            if target_id == source_id or target_id in skip:
                continue
            if cache is not None:
                if not cache.admits(target_id, need_cpu, need_mem):
                    continue
                feasible, inc = cache.bid(target_id, target, remainder,
                                          shape)
            else:
                feasible = target.admits(remainder)
                inc = target.incremental_cost(remainder) if feasible \
                    else 0.0
            if not feasible:
                continue
            examined += 1
            saving = inc + move_cost - stay_cost
            if saving < best_saving - _SAVING_BAND:
                best_saving = saving
                best_target = target_id
            if self.k_sample is not None and examined >= self.k_sample:
                break
        if best_target is None:
            return None
        return PlannedMove(vm=piece, head=head, remainder=remainder,
                           source_id=source_id, target_id=best_target,
                           saving=best_saving, cost=move_cost)

    def apply(self, move: PlannedMove,
              states: Sequence[ServerState]) -> tuple[float, float]:
        """Commit ``move`` on planning states.

        Returns ``(source_delta, target_delta)`` — the Eq.-17 change of
        each book (the source delta is the piece cut down to its head,
        usually negative). The move must have been produced by
        :meth:`best_move` against these states: the target was
        probe-checked during the scan, so the remainder lands without
        re-validation.
        """
        cut = states[move.source_id].cut(move.vm, move.time, move.head)
        target_delta = states[move.target_id].place_trusted(move.remainder)
        return -cut, target_delta

    def plan_episode(self, states: Sequence[ServerState], time: int,
                     next_id: int, *,
                     skip: frozenset[int] = frozenset()
                     ) -> ConsolidationPlan:
        """One consolidation episode at tick ``time``, applied to
        ``states`` as it goes.

        Victims are ranked once (by the selector), then drained in rank
        order: each spanning resident — ``start < time <= end``, in
        ``(start, vm_id)`` order — is offered its :meth:`best_move`,
        and saving moves are committed immediately so later decisions
        see them. Remainders placed during the episode start *at*
        ``time`` and are therefore never re-moved within it: the queue
        drains in one sweep. ``skip`` names servers that may neither be
        drained nor targeted (the store passes its dead set).
        """
        moves: list[PlannedMove] = []
        cache = _EpisodeCache(states, time)
        for victim in self.selector.rank(states, time, skip=skip):
            residents = sorted(
                (vm for vm in states[victim.server_id].vms
                 if vm.start < time <= vm.end),
                key=lambda v: (v.start, v.vm_id))
            for piece in residents:
                move = self.best_move(piece, time, victim.server_id,
                                      states, next_id, skip=skip,
                                      cache=cache)
                if move is None:
                    continue
                self.apply(move, states)
                cache.commit(move)
                next_id += 2
                moves.append(move)
        return ConsolidationPlan(time=time, moves=tuple(moves))
