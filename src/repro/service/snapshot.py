"""The snapshot codec: a :class:`~repro.service.state.ClusterStateStore`
as one JSON document, and back.

Format 4 records **state, not history**, so a snapshot costs what is
live, however long the daemon has run:

* ``store``: ``energy_accumulated`` and ``migration_energy``, the dead
  servers, ``_next_vm_id``, the vm-id runs, the placement count, the
  last commit since the fleet last changed (all ``Allocator.replayed``
  reads), the fleet's float totals and the closed-tick running totals;
* ``servers``: each server a fresh store would not build as it is — its
  book (the residents still live, in book order; the busy-segment tail
  :meth:`~repro.allocators.state.ServerState.compact` keeps; the running
  Eq.-17 cost; the occupancy rows: skyline breakpoints and values, plus
  the radius multisets and their cached accumulators on a Γ fleet) and
  its machine (power state, resident demand, transition counters);
* ``schedule``: the live schedule's open demand pieces and their
  pending start and end ticks, verbatim and in order;
* ``ticks``: the newest window of the closed-tick series.

Every float is written as ``float.hex`` and read back verbatim, never
recomputed: the occupancy rows in particular carry the residue a
:meth:`~repro.allocators.state.ServerState.cut` subtracted, which
re-adding the residents would not reproduce. A restore therefore lands
on the writer's bits in O(live VMs + servers written + window).

Formats 1–3 recorded history — every commit with the clock it was made
at, and the failure, recovery and consolidation events between them —
and still restore by replaying it through
:meth:`~repro.service.state.ClusterStateStore.apply`.
"""

from __future__ import annotations

import json
from collections import deque
from itertools import islice
from typing import TYPE_CHECKING, Iterator, Mapping

from repro.allocators.state import ServerState
from repro.energy.cost import SleepPolicy
from repro.exceptions import ValidationError
from repro.model.cluster import Cluster
from repro.model.server import ServerSpec
from repro.placement.config import EngineConfig
from repro.simulation.power_state import PowerState
from repro.workload.trace import vm_from_record, vm_to_record

if TYPE_CHECKING:
    from repro.service.state import ClusterStateStore

__all__ = ["SNAPSHOT_FORMAT_VERSION", "load", "snapshot_meta",
           "snapshot_parts", "to_snapshot"]

#: The snapshot format this build writes. Versions 1–3 (the commit log,
#: then failure/recovery events, then consolidation episodes) are read
#: by replay; version 4 holds the live state itself.
SNAPSHOT_FORMAT_VERSION = 4

_REPLAYED_VERSIONS = (1, 2, 3)

_SPEC_FIELDS = ("name", "cpu_capacity", "memory_capacity", "p_idle",
                "p_peak", "transition_time")

#: occupancy rows of ints, and of descending radius tuples; every other
#: row holds floats
_INT_ROWS = ("xs",)
_RADIUS_ROWS = ("rc", "rm")

#: array items per chunk of :func:`snapshot_parts`
_CHUNK = 32


def _hex(values) -> str:
    """Floats as one string of ``float.hex`` words: exact, and one JSON
    string to encode instead of one per value."""
    return " ".join(map(float.hex, values))


def _unhex(text: str) -> list[float]:
    return list(map(float.fromhex, text.split()))


def _encode_rows(rows: Mapping[str, list]) -> dict[str, object]:
    return {name: list(row) if name in _INT_ROWS
            else list(map(_hex, row)) if name in _RADIUS_ROWS
            else _hex(row) for name, row in rows.items()}


def _decode_rows(rows: Mapping[str, object]) -> dict[str, list]:
    return {name: [int(x) for x in row] if name in _INT_ROWS
            else [tuple(_unhex(radii)) for radii in row]
            if name in _RADIUS_ROWS else _unhex(row)
            for name, row in rows.items()}


# -- writing -------------------------------------------------------------------

def _cluster(store: "ClusterStateStore") -> list[dict[str, object]]:
    return [{field: getattr(server.spec, field) for field in _SPEC_FIELDS}
            for server in store.cluster]


def _store_record(store: "ClusterStateStore") -> dict[str, object]:
    fleet, last = store.fleet, store._last_commit
    return {
        "energy_accumulated": store.energy_accumulated.hex(),
        "migration_energy": store.migration_energy.hex(),
        "dead": [[sid, tick] for sid, tick in store._dead.items()],
        "next_vm_id": store._next_vm_id, "vm_ids": store._vm_ids.runs(),
        "placements": store._placed,
        "last_commit": None if last is None
        else {"server_id": last[1], "vm": vm_to_record(last[0])},
        "next_piece": store._next_piece, "max_end": store._max_end,
        "fleet": _hex((fleet.power, fleet.resident_cpu, fleet.resident_mem)),
        "busy_energy": store.busy_energy.hex(),
        "power_peak": store.power_peak.hex()}


def _servers(store: "ClusterStateStore") -> Iterator[list]:
    """``[server_id, record]`` of every server not as a fresh store
    builds it: its book (residents, busy segments, cost, occupancy
    rows) and its machine (state, resident demand, transitions)."""
    for server_id in sorted(store._touched):   # the rest are fresh
        book, machine = store.states[server_id], store.machines[server_id]
        if machine.transitions == 0 and not book.vms \
                and machine.state is PowerState.POWER_SAVING \
                and book.cost == 0.0 and book.is_pristine \
                and book.occupancy_points() == 0 \
                and machine.transition_energy == 0.0 \
                and machine.resident_cpu == 0.0 == machine.resident_mem:
            continue
        busy_starts, busy_ends, rows = book.book()
        yield [server_id, {
            "vms": [vm_to_record(vm) for vm in book.vms],
            "busy": [list(busy_starts), list(busy_ends)],
            "cost": book.cost.hex(),
            "rows": _encode_rows(rows),
            "machine": [machine.state.value, machine.resident_cpu.hex(),
                        machine.resident_mem.hex(), machine.transitions,
                        machine.transition_energy.hex()]}]


def _schedule(store: "ClusterStateStore") -> list[tuple[str, Iterator, int]]:
    """The live schedule verbatim, in its dicts' order: pending starts
    and ends as ``[tick, [[piece_id, server_id], ...]]``, and every
    open piece as ``[piece_id, vm_id, cpu, mem]`` — each array with the
    items :func:`snapshot_parts` writes a chunk."""
    demand, owner = store._piece_demand, store._piece_vm
    return [
        ("starts", ([tick, [list(entry) for entry in entries]]
                    for tick, entries in store._starts.items()), _CHUNK),
        ("ends", ([tick, [list(entry) for entry in entries]]
                  for tick, entries in store._ends.items()), _CHUNK),
        ("pieces", ([piece_id, owner[piece_id], cpu.hex(), memory.hex()]
                    for piece_id, (cpu, memory) in demand.items()), _CHUNK)]


def _ticks(store: "ClusterStateStore") -> list[tuple[str, Iterator, int]]:
    """The closed-tick window: power as blocks of hex words (one block
    a chunk), active servers and running VMs as ints."""
    _, active, running = store.telemetry_window()
    return [("power", _power_blocks(store), 1),
            ("active", active, 4 * _CHUNK), ("running", running, 4 * _CHUNK)]


def _power_blocks(store: "ClusterStateStore") -> Iterator[str]:
    """The window's power in blocks aligned on tick numbers — ticks
    ``b*_CHUNK + 1 .. (b+1)*_CHUNK`` — so that a block the window holds
    whole never changes: it is encoded once and kept
    (``store._power_blocks``), and a snapshot encodes only the window's
    two ragged ends."""
    power, cache = store._power, store._power_blocks
    if not power:
        return
    first = store.clock - len(power)      # the window's oldest tick
    low = (first - 1) // _CHUNK
    for block in [b for b in cache if b < low]:
        del cache[block]
    for block in range(low, (store.clock - 2) // _CHUNK + 1):
        start = max(block * _CHUNK + 1, first) - first
        stop = min((block + 1) * _CHUNK + 1, store.clock) - first
        if stop - start < _CHUNK:
            yield _hex(power[start:stop])
        else:
            if block not in cache:
                cache[block] = _hex(power[start:stop])
            yield cache[block]


def _head(store: "ClusterStateStore") -> dict[str, object]:
    return {"format_version": SNAPSHOT_FORMAT_VERSION,
            "policy": store.policy.value,
            "engine": store.engine_config.spec, "clock": store.clock}


def to_snapshot(store: "ClusterStateStore",
                meta: Mapping[str, object] | None = None
                ) -> dict[str, object]:
    """The format-4 document of ``store``, with ``meta`` riding along
    uninterpreted (the daemon keeps its counters and journal sequence
    there)."""
    return {**_head(store), "cluster": _cluster(store),
            "store": _store_record(store), "servers": list(_servers(store)),
            "schedule": {key: list(items)
                         for key, items, _ in _schedule(store)},
            "ticks": {key: list(items) for key, items, _ in _ticks(store)},
            "meta": dict(meta) if meta else {}}


def _array(items: Iterator, size: int = _CHUNK) -> Iterator[bytes]:
    """``json.dumps(list(items))``, ``size`` items a chunk."""
    lead = "["
    while chunk := list(islice(items, size)):
        yield (lead + json.dumps(chunk)[1:-1]).encode()
        lead = ", "
    yield b"[]" if lead == "[" else b"]"


def snapshot_parts(store: "ClusterStateStore",
                   meta: Mapping[str, object] | None = None
                   ) -> Iterator[bytes]:
    """``json.dumps(to_snapshot(store, meta))`` as UTF-8 chunks whose
    join is the document byte for byte. Servers are written one record
    a chunk, the power window one block a chunk, every other array
    :data:`_CHUNK` items at a time, and the cluster's JSON is encoded
    once per store, so no chunk, and nothing behind one, is more than a
    slice of the document. Meant to be written as they come, never
    joined."""
    if store._cluster_json is None:
        store._cluster_json = json.dumps(_cluster(store)).encode()
    yield json.dumps(_head(store))[:-1].encode()
    yield b', "cluster": '
    yield store._cluster_json
    yield f', "store": {json.dumps(_store_record(store))}'.encode()
    yield b', "servers": '
    yield from _array(_servers(store), 1)     # a book can be large
    for section, arrays in (("schedule", _schedule(store)),
                            ("ticks", _ticks(store))):
        lead = f', "{section}": {{'
        for key, items, size in arrays:
            yield f'{lead}"{key}": '.encode()
            lead = ", "
            yield from _array(items, size)
        yield b"}"
    yield f', "meta": {json.dumps(dict(meta) if meta else {})}}}'.encode()


# -- reading -------------------------------------------------------------------

def load(cls: type["ClusterStateStore"],
         document: Mapping[str, object]) -> "ClusterStateStore":
    """Rebuild a store from a snapshot document of any supported
    format: format 4 is loaded as written, formats 1–3 are replayed."""
    version = document.get("format_version")
    if version != SNAPSHOT_FORMAT_VERSION and \
            version not in _REPLAYED_VERSIONS:
        raise ValidationError(
            f"unsupported snapshot format version {version!r}")
    try:
        specs = [ServerSpec(**record) for record in document["cluster"]]
        policy = SleepPolicy(document["policy"])
        # Pre-engine snapshots carry no field: replay is
        # engine-agnostic, so the default config restores them
        # bit-exactly.
        engine = EngineConfig.parse(str(document.get("engine", "indexed")))
        clock = int(document["clock"])
    except (TypeError, KeyError, ValueError) as exc:
        raise ValidationError(f"malformed snapshot: {exc}") from exc
    store = cls(Cluster.from_specs(specs), policy=policy, engine=engine)
    if version in _REPLAYED_VERSIONS:
        _replay(store, document, clock)
        return store
    try:
        _load_state(store, document, clock)
    except (TypeError, KeyError, ValueError, IndexError) as exc:
        raise ValidationError(f"malformed snapshot: {exc!r}") from exc
    return store


def _load_state(store: "ClusterStateStore", document: Mapping,
                clock: int) -> None:
    record = document["store"]
    store.clock = clock
    store.energy_accumulated = float.fromhex(record["energy_accumulated"])
    store.migration_energy = float.fromhex(record["migration_energy"])
    store._dead = {int(sid): int(tick) for sid, tick in record["dead"]}
    store._next_vm_id = int(record["next_vm_id"])
    store._vm_ids.load(record["vm_ids"])
    store._placed = int(record["placements"])
    last = record["last_commit"]
    store._last_commit = None if last is None \
        else (vm_from_record(last["vm"]), int(last["server_id"]))
    store._next_piece = int(record["next_piece"])
    store._max_end = int(record["max_end"])
    store.busy_energy = float.fromhex(record["busy_energy"])
    store.power_peak = float.fromhex(record["power_peak"])
    fleet, owners = store.fleet, {}
    for server_id, server in document["servers"]:
        busy_starts, busy_ends = server["busy"]
        book = ServerState.restored(
            store.cluster[server_id], policy=store.policy,
            engine=store.engine_config,
            vms=[vm_from_record(vm) for vm in server["vms"]],
            busy_starts=[int(t) for t in busy_starts],
            busy_ends=[int(t) for t in busy_ends],
            cost=float.fromhex(server["cost"]),
            rows=_decode_rows(server["rows"]))
        store.states[server_id] = book
        store._touched[server_id] = None
        for vm in book.vms:
            owners[vm.vm_id] = vm
        machine = store.machines[server_id]
        state, cpu, memory, transitions, energy = server["machine"]
        machine.state = PowerState(state)
        machine.resident_cpu = float.fromhex(cpu)
        machine.resident_mem = float.fromhex(memory)
        machine.transitions = int(transitions)
        machine.transition_energy = float.fromhex(energy)
        # as built: asleep, hosting nothing
        fleet.changed(machine, PowerState.POWER_SAVING, 0.0, 0.0, 0)
    schedule = document["schedule"]
    for piece_id, vm_id, cpu, memory in schedule["pieces"]:
        store._piece_demand[piece_id] = (float.fromhex(cpu),
                                         float.fromhex(memory))
        store._piece_vm[piece_id] = vm_id
    for name, table in (("starts", store._starts), ("ends", store._ends)):
        for tick, entries in schedule[name]:
            table[int(tick)] = [(int(piece_id), int(server_id))
                                for piece_id, server_id in entries]
    pending = {piece_id for entries in store._starts.values()
               for piece_id, _ in entries}
    for entries in store._ends.values():
        for piece_id, server_id in entries:
            if piece_id not in pending:
                machine = store.machines[server_id]
                machine.resident_vms.add(piece_id)
                fleet.changed(machine, machine.state, machine.resident_cpu,
                              machine.resident_mem, 1)
            vm_id = store._piece_vm[piece_id]
            entry = store._open_pieces.get(vm_id)
            if entry is None:
                store._open_pieces[vm_id] = [owners[vm_id], server_id, 1]
            else:
                entry[2] += 1
    fleet.power, fleet.resident_cpu, fleet.resident_mem = \
        _unhex(record["fleet"])
    ticks = document["ticks"]
    store._power = [value for block in ticks["power"]
                    for value in _unhex(block)]
    store._active = [int(n) for n in ticks["active"]]
    store._running = [int(n) for n in ticks["running"]]


def _replay(store: "ClusterStateStore", document: Mapping,
            clock: int) -> None:
    """Formats 1–3: re-commit every placement in its original order,
    each at its recorded ``committed_at`` clock, with the failure /
    recovery / consolidation events interleaved at their recorded
    positions (each event's ``after`` counts the commits preceding it)
    and applied with their *recorded* re-placements and moves — the
    allocator and the planner are never re-run — so the live sequence
    of commits, clock advances and episodes is reproduced exactly."""
    try:
        entries = list(document["placements"])
        events = deque(document.get("events", ()))
    except (TypeError, KeyError, ValueError) as exc:
        raise ValidationError(f"malformed snapshot: {exc}") from exc
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


def snapshot_meta(document: Mapping[str, object]) -> dict[str, object]:
    """The ``meta`` payload of a snapshot document (empty when absent)."""
    meta = document.get("meta")
    return dict(meta) if isinstance(meta, Mapping) else {}
