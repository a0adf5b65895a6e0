"""Property-based tests for service snapshots and journal replay.

Two durability invariants backstop the daemon: (1) a snapshot is a
lossless serialization — rebuilding a :class:`ClusterStateStore` from
``to_snapshot()`` yields a store whose own snapshot, clock, energy and
machine power states are identical; (2) replaying the request journal
after a hard kill reconstructs the exact pre-crash state, whatever the
workload looked like.

A third backstops what the store derives instead of recomputing —
*derived structures == recomputed from scratch* under arbitrary
interleavings of every mutating op: the awake set and the integer
fleet totals against a scan of the machines, the closed-tick series
against a twin store that closes ticks by walking the whole fleet
twice (:class:`TwoWalkStore`, the oracle), the streamed snapshot
chunks against ``json.dumps(to_snapshot(meta))``, and
(slice three) the allocator's candidate queues and kernel planes
against a partition of the scan list and the skylines they mirror, and
each fact in a type's refusal table against the skyline rows of its
book (:func:`assert_refusal_tables_are_true`, on a fleet large enough
for min-energy's prefetch to fill the tables).
After every step no live server holds more than its capacity at any
time unit, summed by brute force from its residents' demand pieces,
nominal and Γ-robust (:func:`assert_no_unit_over_capacity`).

Slice two holds the planning books to the same standard. A book that
was cut in place (a migration, a failure) must answer, from the clock
on, exactly like one rebuilt from the placement log —
:func:`book_from_log` keeps that rebuild, which the store itself no
longer runs, as the oracle, over the log a :class:`HistoryStore`
keeps beside the store — a consolidation plan made on the O(live)
copies must be the plan made on full-history replicas, and the books'
running costs must sum to the from-scratch Eq.-17 total of that log.

Slice four holds the one door in place: a recorded mutation has one
reader (:meth:`ClusterStateStore.apply`) and one writer
(``AllocationDaemon._journal``), so the live store, a restore from the
newest snapshot plus the journal tail and a restore from the journal
alone are one state, and a crash at any byte of the final journal group
loses that group and nothing else — as a crash at any byte of a
snapshot write loses nothing at all.
"""

from __future__ import annotations

import importlib
import inspect
import json
import math
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.allocators.state import ServerState
from repro.energy.cost import server_cost
from repro.model.cluster import Cluster
from repro.model.intervals import TimeInterval
from repro.model.phases import demand_profile
from repro.model.server import ServerSpec
from repro.model.vm import VM, VMSpec
from repro.obs.tracer import Tracer, use_tracer
from repro.placement.feasibility import TOL
from repro.service import (
    SNAPSHOT_FORMAT_VERSION,
    AllocationDaemon,
    ClusterStateStore,
    SnapshotManager,
    consolidate_request,
    fail_server_request,
    place_batch_request,
    place_request,
    read_journal,
    recover_server_request,
)
from repro.service import snapshot
from repro.simulation.power_state import PowerState
from repro.workload.generator import PoissonWorkload

from conftest import HistoryStore, book_answers, make_vm

SLOW = settings(max_examples=20, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


def workload_strategy():
    return st.tuples(
        st.integers(0, 30),                  # vm count (0 = empty store)
        st.floats(0.5, 6.0),                 # mean inter-arrival
        st.floats(1.0, 10.0),                # mean duration
        st.integers(0, 10_000),              # seed
        st.integers(0, 8),                   # extra clock advance at end
    )


def build_store(params) -> ClusterStateStore:
    count, ia, dur, seed, extra = params
    wl = PoissonWorkload(mean_interarrival=ia, mean_duration=dur)
    vms = wl.generate(count, rng=seed)
    store = ClusterStateStore(Cluster.paper_all_types(max(5, count)))
    daemon = AllocationDaemon(store)
    for vm in sorted(vms, key=lambda v: (v.start, v.end, v.vm_id)):
        response = daemon.handle(place_request(vm))
        # A full fleet may reject; the protocol request must still be ok.
        assert response["ok"]
    if extra:
        store.advance_to(store.clock + extra)
    return store


@SLOW
@given(workload_strategy())
def test_snapshot_round_trip_is_identity(params):
    store = build_store(params)
    document = store.to_snapshot()
    restored = ClusterStateStore.from_snapshot(document)
    assert restored.to_snapshot() == document
    assert restored.clock == store.clock
    assert restored.energy_accumulated == store.energy_accumulated
    assert restored.energy_total() == store.energy_total()
    assert restored.telemetry().power.tolist() == \
        store.telemetry().power.tolist()
    for server_id, machine in store.machines.items():
        twin = restored.machines[server_id]
        assert twin.state is machine.state
        assert twin.resident_vms == machine.resident_vms
        assert twin.transitions == machine.transitions
        assert twin.transition_energy == machine.transition_energy


@SLOW
@given(workload_strategy(), st.integers(0, 200))
def test_journal_replay_is_deterministic(tmp_path_factory, params, cut):
    count, ia, dur, seed, extra = params
    wl = PoissonWorkload(mean_interarrival=ia, mean_duration=dur)
    vms = sorted(wl.generate(count, rng=seed),
                 key=lambda v: (v.start, v.end, v.vm_id))
    cut = min(cut, len(vms))
    data_dir = tmp_path_factory.mktemp("journal")

    store = ClusterStateStore(Cluster.paper_all_types(max(5, count)))
    daemon = AllocationDaemon(store, data_dir=data_dir,
                              snapshot_every=7, fsync=False)
    for vm in vms[:cut]:
        assert daemon.handle(place_request(vm))["ok"]
    if extra:
        daemon.handle({"op": "tick", "now": store.clock + extra})
    expected = store.to_snapshot()
    expected_counters = dict(daemon.metrics.requests)
    del daemon  # hard kill: no shutdown snapshot

    restored = AllocationDaemon.restore(data_dir, fsync=False)
    assert restored.store.to_snapshot() == expected
    assert dict(restored.metrics.requests) == expected_counters
    # the survivor keeps serving: remaining VMs place identically to a
    # daemon that never crashed
    witness_store = ClusterStateStore(
        Cluster.paper_all_types(max(5, count)))
    witness = AllocationDaemon(witness_store)
    for vm in vms[:cut]:
        witness.handle(place_request(vm))
    if extra:
        witness.handle({"op": "tick", "now": witness_store.clock + extra})
    for vm in vms[cut:]:
        a = restored.handle(place_request(vm))
        b = witness.handle(place_request(vm))
        assert a["decision"] == b["decision"]
        assert a.get("server_id") == b.get("server_id")
    assert restored.store.to_snapshot() == witness_store.to_snapshot()


# -- derived structures == recomputed from scratch ---------------------------

#: Powers and demands that are not dyadic rationals: every float sum
#: over them depends on its order, so a walk in another order shows.
SPEC = ServerSpec("s", cpu_capacity=10.0, memory_capacity=10.0,
                  p_idle=51.3, p_peak=103.9, transition_time=1.0)
HEAVY, LIGHT, SMALL = (6.7, 5.0), (2.3, 4.0), (1.1, 1.0)
SERVERS = 4


class TwoWalkStore(ClusterStateStore):
    """The oracle for the closed-tick series: ``_close_tick`` as it was
    before the awake set — both walks enumerate every machine, and the
    sample reads the machines, never :class:`FleetAggregates`."""

    def _close_tick(self, tick: int) -> None:
        power = 0.0
        active = 0
        running = 0
        for machine in self.machines.values():
            power += machine.power_draw()
            if machine.state is PowerState.ACTIVE:
                active += 1
            running += len(machine.resident_vms)
        self._power.append(power)
        self._active.append(active)
        self._running.append(running)
        for piece_id, server_id in self._ends.pop(tick, ()):
            cpu, memory = self._piece_demand.pop(piece_id)
            self.machines[server_id].end_vm(piece_id, cpu, memory)
            vm_id = self._piece_vm.pop(piece_id)
            entry = self._open_pieces[vm_id]
            entry[2] -= 1
            if entry[2] == 0:
                del self._open_pieces[vm_id]
                self.states[entry[1]].retire(entry[0], before=tick)
        imminent = {server_id
                    for _, server_id in self._starts.get(tick + 1, ())}
        for machine in self.machines.values():
            if machine.state is PowerState.ACTIVE and \
                    not machine.resident_vms and \
                    machine.server.server_id not in imminent:
                machine.sleep()


#: (start - clock, length, (cpu, memory)): offset 0 starts on the open
#: tick, offset 1 is the zero-length-gap slot; the heavy/light shapes
#: are the ones that fragment this fleet, so ``consolidate`` has moves.
VM_SHAPE = st.tuples(st.integers(0, 3), st.integers(1, 9),
                     st.sampled_from([HEAVY, LIGHT, SMALL]))
OP = st.one_of(
    st.tuples(st.just("place"), VM_SHAPE),
    st.tuples(st.just("place_batch"),
              st.lists(VM_SHAPE, min_size=1, max_size=4)),
    st.tuples(st.just("tick"), st.integers(1, 4)),
    st.tuples(st.just("fail_server"), st.integers(0, SERVERS - 1)),
    st.tuples(st.just("recover_server"), st.integers(0, SERVERS - 1)),
    st.tuples(st.just("consolidate"), st.none()),
)


def request_for(kind, arg, clock: int, step: int,
                radius: float = 0.0) -> dict:
    """The wire request of one drawn op. VM ids are ``step * 1000 + j``:
    failure and consolidation splits take ids just above the highest
    committed one and must not collide with a later step's. ``radius``
    is the demand uncertainty every VM declares, as a share of its
    demand (read by a Γ engine only)."""
    def vm(j, shape):
        offset, length, (cpu, memory) = shape
        start = max(1, clock + offset)
        spec = VMSpec("t", cpu=cpu, memory=memory,
                      cpu_radius=radius * cpu, mem_radius=radius * memory)
        return VM(vm_id=step * 1000 + j, spec=spec,
                  interval=TimeInterval(start, start + length - 1))
    if kind == "place":
        return place_request(vm(0, arg))
    if kind == "place_batch":
        return place_batch_request(vm(j, shape)
                                   for j, shape in enumerate(arg))
    if kind == "tick":
        return {"op": "tick", "now": clock + arg}
    if kind == "fail_server":
        return fail_server_request(arg)
    if kind == "recover_server":
        return recover_server_request(arg)
    return consolidate_request()


def assert_aggregates_match_a_scan(store: ClusterStateStore) -> None:
    machines = store.machines
    fleet = store.fleet

    def count(state):
        return sum(1 for m in machines.values() if m.state is state)
    # server id -> the draw its machine had when last add()-ed: what a
    # tick sums must be what a fresh power_draw() of each would give,
    # in the order a fresh sort would put them.
    assert fleet.awake == {sid: m.power_draw() for sid, m in machines.items()
                           if m.state is PowerState.ACTIVE}
    assert fleet.awake_ids() == sorted(fleet.awake)
    assert fleet.active == count(PowerState.ACTIVE)
    assert fleet.asleep == count(PowerState.POWER_SAVING)
    assert fleet.failed == count(PowerState.FAILED)
    assert fleet.running_vms == sum(len(m.resident_vms)
                                    for m in machines.values())
    # repr: an all-asleep fleet draws 0.0, not the int 0 of an empty sum
    assert repr(store.fleet_power()) == \
        repr(sum(m.power_draw() for m in machines.values()))
    # the servers a tick may put to sleep: ACTIVE and hosting nothing
    assert fleet.idle.keys() == {
        sid for sid, m in machines.items()
        if m.state is PowerState.ACTIVE and not m.resident_vms}
    # a snapshot reads only the servers the store marked touched, and
    # writes the rows a read of every server would
    touched = store._touched
    try:
        store._touched = dict.fromkeys(range(len(store.states)))
        every_server = list(snapshot._servers(store))
    finally:
        store._touched = touched
    assert list(snapshot._servers(store)) == every_server


def closed_ticks(store: ClusterStateStore):
    """The closed-tick series, plus ``fleet.power`` — whose rounding
    drift records the order machines were put to sleep in."""
    return store._power, store._active, store._running, store.fleet.power


def snapshot_bytes(store: ClusterStateStore, meta) -> bytes:
    return b"".join(store.snapshot_parts(meta))


def assert_parts_are_the_document(store: ClusterStateStore, meta) -> bytes:
    data = snapshot_bytes(store, meta)
    assert data == json.dumps(store.to_snapshot(meta)).encode()
    return data


def assert_index_matches_the_scan_list(daemon: AllocationDaemon) -> None:
    """The candidate queues are the scan list partitioned by server type
    and ``is_pristine``, in ascending position; the kernel (built by
    the first check when no walk built it, then kept in sync by its
    watchers) holds every skyline verbatim in the live cells of its
    row's slot, pad keys after them, the key plane sorted end to end."""
    index = daemon.allocator._index
    engine = daemon.allocator.engine_config
    live = daemon._live
    # No index without a book to read the engine off: every server failed.
    assert (index is None) == (not live)
    if index is None:
        return
    assert index.covers(live)
    queues: dict[int, tuple[list[int], list[int]]] = {}
    for pos, book in enumerate(live):
        busy, pristine = queues.setdefault(id(book.server.spec), ([], []))
        (pristine if book.is_pristine else busy).append(pos)
    assert {key: (group.busy, group.pristine)
            for key, group in index._groups.items()} == queues
    # busy = warm + dormant, cut where the group last settled; the heap
    # of warm quiet ticks compacted
    assert index._quiet == [book.quiet_after for book in live]
    for group in index._groups.values():
        assert group.dormant == [pos for pos in group.busy
                                 if index._quiet[pos] <= group.horizon]
        assert len(group._ends or ()) <= 2 * len(group.warm) + 1
    assert_refusal_tables_are_true(daemon)
    kernel = index.kernel
    kernel.sync()
    keys, off = kernel._keys.tolist(), kernel._off
    assert keys == sorted(keys)
    assert (off[0], off[-1]) == (0, len(keys))
    assert {plane.size for plane in kernel._planes} == {len(keys)}
    for pos, book in enumerate(live):
        xs, *values = (book._occ.export_rows()
                       if engine.active_robustness is None
                       else book._occ.export_robust_rows())
        lo, hi, end = off[pos], off[pos] + len(xs), off[pos + 1]
        assert hi <= end
        assert keys[lo:hi] == [(pos << 40) + (1 << 39) + x for x in xs]
        assert keys[hi:end] == [(pos << 40) + (1 << 40) - 1] * (end - hi)
        assert len(kernel._planes) == len(values)
        for plane, column in zip(kernel._planes, values):
            assert plane[lo:hi].tolist() == column


def assert_refusal_tables_are_true(daemon: AllocationDaemon) -> int:
    """Each fact in a type's refusal table is a segment of its book's
    skyline rows as they are now, with the charge those rows give it at
    radius 0 (``cpu + (drop + threshold)`` on a Γ book); only busy
    positions hold one; the cpu order and both eviction heaps are the
    facts', each heap compacted to at most ``2 * facts + 1``. Returns
    how many facts the tables hold."""
    index = daemon.allocator._index
    if index is None:
        return 0
    held = 0
    for group in index._groups.values():
        table = group.refusals
        facts = table.facts
        held += len(facts)
        assert set(facts) <= set(group.busy)
        assert table._keys == sorted(table._keys)
        assert sorted(zip(table._keys, table._positions)) \
            == sorted((fact[2], pos) for pos, fact in facts.items())
        for heap, entries in ((table._his, {(fact[1], pos) for pos, fact
                                            in facts.items()}),
                              (table._los, {(-fact[0], pos) for pos, fact
                                            in facts.items()})):
            assert len(heap) <= 2 * len(facts) + 1
            assert entries <= set(heap)
        for pos, (lo, hi, cpu, mem) in facts.items():
            rows = daemon._live[pos]._occ.rows()
            xs = rows["xs"]
            assert lo in xs, (pos, lo, xs)
            k = xs.index(lo)
            assert hi == (xs[k + 1] if k + 1 < len(xs) else math.inf)
            if "dc" in rows:
                assert cpu == rows["cpu"][k] + (rows["dc"][k] + rows["tc"][k])
                assert mem == rows["mem"][k] + (rows["dm"][k] + rows["tm"][k])
            else:
                assert (cpu, mem) == (rows["cpu"][k], rows["mem"][k])
    return held


def assert_no_unit_over_capacity(store: ClusterStateStore) -> None:
    """Eqs. 9–10 by brute force: on every live server, each time unit's
    summed resident demand pieces — plus, under Γ, the Γ largest cpu
    and the Γ largest mem radii among the residents running then — stay
    within capacity + ``TOL``."""
    robust = store.engine_config.active_robustness
    for server_id, book in enumerate(store.states):
        if server_id in store._dead:
            continue
        spec = book.server.spec
        units: dict[int, list[float]] = {}
        radii: dict[int, list[tuple[float, float]]] = {}
        for vm in book.vms:
            for piece, cpu, mem in demand_profile(vm):
                for t in range(piece.start, piece.end + 1):
                    unit = units.setdefault(t, [0.0, 0.0])
                    unit[0] += cpu
                    unit[1] += mem
            for t in range(vm.start, vm.end + 1):
                radii.setdefault(t, []).append((vm.cpu_radius,
                                                vm.mem_radius))
        for t, (cpu, mem) in units.items():
            if robust is not None:
                cpu += sum(sorted((r for r, _ in radii[t]),
                                  reverse=True)[:robust.gamma])
                mem += sum(sorted((r for _, r in radii[t]),
                                  reverse=True)[:robust.gamma])
            assert cpu <= spec.cpu_capacity + TOL, (server_id, t, cpu)
            assert mem <= spec.memory_capacity + TOL, (server_id, t, mem)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(["indexed", "indexed:gamma=2"]),
       st.lists(OP, max_size=25))
# A recovered server comes back pristine at a position *below* a busy
# one of its type: the next commit must insert, not append.
@example("indexed",
         [("place", (0, 9, HEAVY))] * 3 + [("fail_server", 0),
                                          ("recover_server", 0),
                                          ("place", (0, 9, HEAVY))])
# Every server failed: the scan list is empty and nothing is indexed.
@example("indexed", [("fail_server", i) for i in range(SERVERS)])
# A cut moves a warm server to dormant and leaves its heap entry stale:
# the heap compacts on the shrink, not only on the next push.
@example("indexed", [("place", (0, 2, (6.7, 5.0))),
                     ("place", (1, 1, (6.7, 5.0))),
                     ("place", (0, 2, (6.7, 5.0))),
                     ("tick", 1),
                     ("place_batch", [(0, 2, (2.3, 4.0)),
                                      (1, 2, (6.7, 5.0)),
                                      (2, 2, (2.3, 4.0)),
                                      (3, 1, (6.7, 5.0))])])
def test_derived_structures_equal_a_recomputation(engine, ops):
    # Two server types with equal numbers: the books, the energy and the
    # tick series are a homogeneous fleet's, the index keeps two groups.
    cluster = Cluster.mixed([SPEC, replace(SPEC, name="s2")], SERVERS)
    daemon = AllocationDaemon(ClusterStateStore(cluster, engine=engine),
                              algo_params={"engine": engine})
    twin = AllocationDaemon(TwoWalkStore(cluster, engine=engine),
                            algo_params={"engine": engine})
    store = daemon.store
    radius = 0.1 if "gamma" in engine else 0.0
    for step, (kind, arg) in enumerate(ops):
        request = request_for(kind, arg, store.clock, step, radius)
        response = daemon.handle(request)
        # Refusals (a dead server failed again, a full fleet) are part
        # of the interleaving; the oracle must refuse the same way.
        assert twin.handle(request)["ok"] == response["ok"]
        assert_no_unit_over_capacity(store)
        assert_aggregates_match_a_scan(store)
        assert_index_matches_the_scan_list(daemon)
        assert closed_ticks(store) == closed_ticks(twin.store)  # floats ==
        assert_parts_are_the_document(store, {"seq": step})
    store.run_to_completion()
    twin.store.run_to_completion()
    assert_aggregates_match_a_scan(store)
    assert closed_ticks(store) == closed_ticks(twin.store)
    data = assert_parts_are_the_document(store, {"seq": len(ops)})
    rebuilt = ClusterStateStore.from_snapshot(json.loads(data))
    assert snapshot_bytes(rebuilt, {"seq": len(ops)}) == data


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(["indexed", "indexed:gamma=2"]),
       st.lists(OP, max_size=20))
def test_a_refusal_table_holds_only_true_facts(engine, ops):
    # Forty servers, thirty of them holding a long heavy VM: the
    # thirty-first refuses sixteen and prefetches, so the tables fill.
    # Light VMs then fill the first sixteen, and the seventeenth lands
    # past them, on a book the table holds a fact for. The drawn ops
    # place, tick, fail, recover and consolidate around them, and every
    # fact left must be true of its book.
    cluster = Cluster.mixed([SPEC, replace(SPEC, name="s2")], 40)
    daemon = AllocationDaemon(ClusterStateStore(cluster, engine=engine),
                              algo_params={"engine": engine})
    radius = 0.1 if "gamma" in engine else 0.0
    fill = [VM(vm_id=500_000 + j,
               spec=VMSpec("t", cpu=cpu, memory=mem,
                           cpu_radius=radius * cpu, mem_radius=radius * mem),
               interval=TimeInterval(1, 40))
            for j, (cpu, mem) in enumerate([HEAVY] * 31 + [LIGHT] * 20)]
    assert daemon.handle(place_batch_request(fill))["ok"]
    assert assert_refusal_tables_are_true(daemon) > 0
    for step, (kind, arg) in enumerate(ops):
        daemon.handle(request_for(kind, arg, daemon.store.clock, step,
                                  radius))
        assert_refusal_tables_are_true(daemon)


# -- cut books == books rebuilt from the placement log ------------------------

def book_from_log(store: HistoryStore, server_id: int, *,
                  retire: bool) -> ServerState:
    """The rebuild the store ran per episode before books were cut in
    place: every placement this server ever took, re-placed into a
    fresh book in log order; ``retire`` then forgets what ended before
    the clock, as the live book has."""
    book = ServerState(store.states[server_id].server, policy=store.policy,
                       engine=store.engine_config)
    mine = [vm for vm, sid in store.history if sid == server_id]
    for vm in mine:
        book.place_trusted(vm)
    if retire:
        for vm in mine:
            if vm.end < store.clock:
                book.retire(vm, before=store.clock)
    return book


def plan_of(daemon: AllocationDaemon, books) -> list[tuple]:
    store = daemon.store
    plan = daemon.planner.plan_episode(books, store.clock,
                                       store._next_vm_id,
                                       skip=frozenset(store._dead))
    return [(m.vm, m.head, m.remainder, m.source_id, m.target_id,
             m.saving.hex(), m.cost.hex()) for m in plan.moves]


def assert_books_answer_like_the_log(daemon: AllocationDaemon) -> None:
    store = daemon.store
    clock = store.clock
    for server_id, book in enumerate(store.states):
        rebuilt = book_from_log(store, server_id, retire=True)
        assert [vm.vm_id for vm in book.vms] == \
            [vm.vm_id for vm in rebuilt.vms]
        assert book_answers(book, clock) == book_answers(rebuilt, clock)
        scratch = server_cost(
            book.server.spec,
            [vm for vm, sid in store.history if sid == server_id],
            policy=store.policy).total
        assert book.cost == pytest.approx(scratch, rel=1e-12, abs=1e-9)
    assert store.energy_accumulated == pytest.approx(
        store.energy_total(), rel=1e-12, abs=1e-9)
    assert store.energy_total() == pytest.approx(
        store.energy_from_scratch(), rel=1e-12, abs=1e-9)
    if clock >= 1:
        fleet = range(len(store.states))
        assert plan_of(daemon, [store.states[sid].live_copy(clock)
                                for sid in fleet]) == \
            plan_of(daemon, [book_from_log(store, sid, retire=False)
                             for sid in fleet])


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(["indexed", "indexed:gamma=2"]),
       st.lists(OP, max_size=25))
def test_cut_books_answer_like_a_rebuild_from_the_log(
        tmp_path_factory, engine, ops):
    data_dir = tmp_path_factory.mktemp("books")
    store = HistoryStore(Cluster.homogeneous(SPEC, SERVERS), engine=engine)
    daemon = AllocationDaemon(store, algo_params={"engine": engine},
                              data_dir=data_dir, snapshot_every=7,
                              fsync=False)
    radius = 0.1 if "gamma" in engine else 0.0
    # Start fragmented and past the first retirements, so that the
    # drawn episodes have residents to move and heads to leave behind.
    fragment(daemon)
    for step, (kind, arg) in enumerate(ops, start=1):
        daemon.handle(request_for(kind, arg, store.clock, step, radius))
        assert_no_unit_over_capacity(store)
        assert_books_answer_like_the_log(daemon)
    # The running sums are rounded as they go; a restore must land on
    # the same bits, whichever way it rebuilds.
    costs = [book.cost for book in store.states]
    del daemon      # hard kill: the journal tail replays
    for again in (ClusterStateStore.from_snapshot(store.to_snapshot()),
                  AllocationDaemon.restore(data_dir, fsync=False).store):
        assert again.energy_accumulated == store.energy_accumulated
        assert [book.cost for book in again.states] == costs


def fragment(daemon: AllocationDaemon) -> None:
    """A short heavy and a long light VM per server, then past the
    shorts: every server idles under one small VM."""
    for sid in range(len(daemon.store.cluster)):
        for j, ((cpu, memory), end) in enumerate(((HEAVY, 8),
                                                  (LIGHT, 200))):
            response = daemon.handle(place_request(
                make_vm(2 * sid + j, 1, end, cpu=cpu, memory=memory)))
            assert response["decision"] == "placed", response
    assert daemon.handle({"op": "tick", "now": 10})["ok"]


@pytest.mark.parametrize("version", [1, 2, 3])
def test_snapshot_file_is_the_document_for_every_format(tmp_path, version):
    # ``version`` is the history the parent wrote each old format for —
    # commits only (1), a failure and a recovery (2), a consolidation
    # (3) — and this build writes format 4 for every one of them.
    daemon = AllocationDaemon(
        ClusterStateStore(Cluster.homogeneous(SPEC, SERVERS)),
        data_dir=tmp_path, snapshot_every=3, fsync=False)
    store = daemon.store

    def file_is_the_document():
        path = daemon.write_snapshot()
        meta = daemon._meta(daemon._last_seq())
        assert path.read_bytes() == \
            json.dumps(store.to_snapshot(meta)).encode()

    fragment(daemon)            # periodic snapshots warmed the cache
    file_is_the_document()
    if version >= 2:
        assert daemon.handle(fail_server_request(0))["ok"]
        file_is_the_document()
        assert daemon.handle(recover_server_request(0))["ok"]
    if version == 3:
        assert daemon.handle(consolidate_request())["migrations"] > 0
    assert daemon.handle(place_request(make_vm(5000, 12, 30)))["ok"]
    file_is_the_document()      # a consecutive snapshot
    assert store.to_snapshot()["format_version"] == SNAPSHOT_FORMAT_VERSION
    del daemon                  # hard kill: the journal tail replays

    restored = AllocationDaemon.restore(tmp_path, fsync=False)
    meta = {"seq": 0}
    assert assert_parts_are_the_document(restored.store, meta) == \
        snapshot_bytes(store, meta)
    assert restored.handle(place_request(make_vm(5001, 12, 30)))["ok"]
    assert_parts_are_the_document(restored.store, meta)


def test_zero_length_gap_bridges_one_close_and_sleeps_at_the_next():
    stores = [cls(Cluster.homogeneous(SPEC, 2))
              for cls in (ClusterStateStore, TwoWalkStore)]
    for store in stores:
        store.advance_to(1)
        store.commit(make_vm(0, 1, 3), 0)
        store.commit(make_vm(1, 4, 4), 0)   # starts the tick after vm 0
        machine = store.machines[0]
        store.advance_to(4)     # closes tick 3: emptied, start imminent
        assert machine.state is PowerState.ACTIVE
        assert machine.transitions == 1     # bridged, not re-woken
        assert_aggregates_match_a_scan(store)
        store.advance_to(5)     # closes tick 4: emptied, nothing due
        assert machine.state is PowerState.POWER_SAVING
        assert not store.fleet.awake
        store.advance_to(7)
        assert_parts_are_the_document(store, None)
    assert closed_ticks(stores[0]) == closed_ticks(stores[1])
    assert stores[0]._active == [1, 1, 1, 1, 0, 0]


# -- one door: the snapshot stream and the journal are one history ------------

def durable_state(daemon: AllocationDaemon) -> tuple:
    """Everything a restore must land on bit for bit: the snapshot
    bytes, the running energy sums, every machine, and the counters the
    journal carries (a refused request is counted but never journaled)."""
    store = daemon.store
    counters = {key: value for key, value in daemon.metrics.to_meta().items()
                if key not in ("errors", "overloaded")}
    return (snapshot_bytes(store, {"seq": 0}), store.energy_accumulated,
            store.migration_energy, counters, daemon._last_consolidated_tick,
            [(m.state, set(m.resident_vms), m.transitions, m.transition_energy)
             for m in store.machines.values()])


def restored_state(data_dir) -> tuple:
    restored = AllocationDaemon.restore(data_dir, fsync=False)
    restored.journal.close()
    return durable_state(restored)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(["indexed", "indexed:gamma=2"]),
       st.lists(OP, max_size=20))
def test_live_snapshot_and_journal_alone_are_one_history(
        tmp_path_factory, engine, ops):
    data_dir = tmp_path_factory.mktemp("history")
    store = ClusterStateStore(Cluster.homogeneous(SPEC, SERVERS),
                              engine=engine)
    daemon = AllocationDaemon(store, algo_params={"engine": engine},
                              data_dir=data_dir, snapshot_every=3,
                              fsync=False)
    radius = 0.1 if "gamma" in engine else 0.0
    fragment(daemon)
    for step, (kind, arg) in enumerate(ops, start=1):
        daemon.handle(request_for(kind, arg, store.clock, step, radius))
    live = durable_state(daemon)
    daemon.journal.close()      # hard kill: no shutdown, no final snapshot
    snapshots = list(data_dir.glob("snapshot-*.json"))
    assert snapshots            # the events replay out of a snapshot ...
    assert restored_state(data_dir) == live
    for path in snapshots:
        path.unlink()           # ... and out of the journal, from ``init``
    assert restored_state(data_dir) == live


def answers(daemon: AllocationDaemon, requests) -> list[dict]:
    """The responses to ``requests``, stopwatch readings dropped."""
    return [{key: value for key, value in daemon.handle(request).items()
             if key != "latency_ms"} for request in requests]


@pytest.mark.parametrize("final, proof", [
    # the request of the final group, and the response field that shows
    # the group records something
    (place_request(make_vm(7000, 12, 30, cpu=LIGHT[0], memory=LIGHT[1])),
     "decision"),
    (place_batch_request([make_vm(7000, 12, 30, cpu=1.1, memory=1.0),
                          make_vm(7001, 11, 14, cpu=1.1, memory=1.0)]),
     "placed"),
    (fail_server_request(1), "replaced"),
    (consolidate_request(), "migrations"),
], ids=["place", "place_batch", "fail_server", "consolidate"])
def test_a_crash_at_any_byte_of_the_final_group_loses_only_that_group(
        tmp_path, final, proof):
    """ROADMAP oracle (iv): truncate ``journal.jsonl`` at every byte
    offset of its final group. A restore lands on the state before the
    group, reopens the journal cut back to the last whole entry, and
    serves on exactly like a daemon that never crashed."""
    def build(**durability) -> AllocationDaemon:
        daemon = AllocationDaemon(
            ClusterStateStore(Cluster.homogeneous(SPEC, 2)),
            snapshot_every=4, **durability)
        fragment(daemon)
        return daemon

    rest = [place_request(make_vm(8000, 12, 40, cpu=1.1, memory=1.0)),
            {"op": "tick", "now": 16}]
    witness = build()           # never crashed, never saw the lost group
    before = durable_state(witness)
    expected = answers(witness, rest)
    after = durable_state(witness)

    daemon = build(data_dir=tmp_path, fsync=False)
    journal = tmp_path / "journal.jsonl"
    prefix = journal.read_bytes()
    entries = len(list(read_journal(journal)))
    done = daemon.handle(final)
    assert done["ok"] and done[proof], done
    daemon.journal.close()
    whole = journal.read_bytes()
    assert whole.startswith(prefix) and whole.count(b"\n", len(prefix)) == 1
    # The tail replays onto a snapshot, and no snapshot covers the lost
    # group (one is only written once its entry is whole).
    [snapshot] = tmp_path.glob("snapshot-*.json")
    assert int(snapshot.stem.partition("-")[2]) < entries

    for cut in range(len(prefix), len(whole)):
        journal.write_bytes(whole[:cut])
        restored = AllocationDaemon.restore(tmp_path, fsync=False)
        try:
            assert durable_state(restored) == before, cut
            assert journal.read_bytes() == prefix, cut
            assert answers(restored, rest) == expected, cut
            assert durable_state(restored) == after, cut
        finally:
            restored.journal.close()
        assert [entry["seq"] for entry in read_journal(journal)] == \
            list(range(1, entries + len(rest) + 1)), cut


def files_of(directory: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in directory.iterdir()}


def lay_out(directory: Path, files: dict[str, bytes]) -> None:
    """Make ``directory`` hold exactly ``files``."""
    for path in directory.iterdir():
        if path.name not in files:
            path.unlink()
    for name, data in files.items():
        (directory / name).write_bytes(data)


@pytest.mark.parametrize("torn", ["tmp", "newest"])
def test_a_crash_inside_a_snapshot_write_restores_like_its_twin(
        tmp_path, monkeypatch, torn):
    """A snapshot file is not fsynced before its rename, so a crash can
    leave it cut at any byte: as the ``.tmp`` the rename never reached
    (``tmp``), or as the newest ``snapshot-*.json`` (``newest``). Cut at
    every chunk boundary and at sampled offsets, the restore skips the
    torn file and lands, through an older snapshot and the journal, on
    the state, energy and counters of the daemon that never crashed."""
    written: list[list[bytes]] = []
    save = SnapshotManager.save

    def recording(self, parts, seq):
        parts = list(parts)
        written.append(parts)
        return save(self, parts, seq)
    monkeypatch.setattr(SnapshotManager, "save", recording)

    daemon = AllocationDaemon(
        ClusterStateStore(Cluster.homogeneous(SPEC, SERVERS)),
        data_dir=tmp_path, snapshot_every=3, fsync=False)
    fragment(daemon)
    for request in (fail_server_request(1), consolidate_request(),
                    recover_server_request(1),
                    place_batch_request([make_vm(9000, 12, 30, cpu=1.1),
                                         make_vm(9001, 13, 20, cpu=1.1)]),
                    {"op": "tick", "now": 14}):   # journaled, not covered
        assert daemon.handle(request)["ok"], request
    before = files_of(tmp_path)
    path = daemon.write_snapshot()      # the write the crash tears
    twin = durable_state(daemon)        # never crashed
    daemon.journal.close()
    after = files_of(tmp_path)
    parts = written[-1]
    document = b"".join(parts)
    assert len(written) > 2 and after[path.name] == document
    covered = json.loads(document)["meta"]["seq"]

    boundaries, offset = {0}, 0
    for part in parts:
        offset += len(part)
        boundaries.add(offset)
    cuts = sorted(boundaries | set(range(1, len(document), 97)))
    assert len(cuts) > 20
    for cut in cuts:
        if torn == "tmp":
            lay_out(tmp_path, {**before, path.name + ".tmp": document[:cut]})
        else:
            lay_out(tmp_path, {**after, path.name: document[:cut]})
        latest = SnapshotManager(tmp_path).load_latest()
        assert (latest["meta"]["seq"] < covered) == \
            (torn == "tmp" or cut < len(document)), cut
        restored = AllocationDaemon.restore(tmp_path, fsync=False)
        try:
            assert durable_state(restored) == twin, cut
        finally:
            restored.journal.close()


class TestARecordedMutationHasOneReaderAndOneWriter:
    SERVICE = Path(inspect.getsourcefile(ClusterStateStore)).parent

    def test_the_replica_driver_is_gone(self):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.service.replication")

    @pytest.mark.parametrize("decoder", ["Replacement.from_record(",
                                         "PlannedMove.from_record("])
    def test_a_record_is_decoded_at_one_site(self, decoder):
        sites = [path.name for path in sorted(self.SERVICE.glob("*.py"))
                 for _ in range(path.read_text().count(decoder))]
        assert sites == ["state.py"]
        assert decoder in inspect.getsource(ClusterStateStore.apply)

    def test_a_snapshot_event_is_renamed_not_dispatched(self):
        source = inspect.getsource(ClusterStateStore._apply_event)
        assert "self.apply(" in source
        for call in (".fail_server(", ".recover_server(", ".consolidate("):
            assert call not in source

    @pytest.mark.parametrize("durable", [True, False])
    def test_every_journaled_mutation_is_one_journal_span(
            self, tmp_path, durable):
        # ``tick`` and ``recover_server`` used to append outside a span.
        daemon = AllocationDaemon(
            ClusterStateStore(Cluster.homogeneous(SPEC, 2)),
            **({"data_dir": tmp_path, "fsync": False} if durable else {}))
        fragment(daemon)
        for request in (place_request(make_vm(9, 10, 20, cpu=1.1)),
                        place_batch_request([make_vm(10, 10, 20, cpu=1.1)]),
                        {"op": "tick", "now": 11}, fail_server_request(0),
                        consolidate_request(), recover_server_request(0)):
            tracer = Tracer()
            with use_tracer(tracer):
                assert daemon.handle(request)["ok"], request
            assert [event.name for event in tracer.events].count(
                "service.journal") == int(durable), request["op"]

    def test_the_daemon_appends_through_one_journal_hop(self):
        source = (self.SERVICE / "daemon.py").read_text()
        assert source.count("journal.append(") <= 2   # ``init``, _journal
        assert "journal.append(" in inspect.getsource(
            AllocationDaemon._journal)
