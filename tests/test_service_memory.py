"""Long-horizon memory regression for the online service.

Before the skyline engine, every ServerState carried dense numpy arrays
covering ``[0, horizon)`` — a daemon running for a simulated month held
millions of float slots per server, and the ``vms`` lists grew without
bound. Now finished VMs are retired as their last piece ends and the
occupancy index is compacted, so planning-state memory tracks *live*
load, not elapsed time — and so does the rest of the daemon: the store
keeps no placement log, a snapshot records state, and a restore loads
it (:class:`TestUptime`).
"""

from __future__ import annotations

import gc
import shutil
import sys
import tracemalloc
from contextlib import nullcontext
from types import BuiltinFunctionType, FunctionType, ModuleType
from unittest import mock

import pytest

from repro.allocators.state import ServerState
from repro.model.cluster import Cluster
from repro.model.intervals import TimeInterval
from repro.model.vm import VM, VMSpec
from repro.service import (
    AllocationDaemon,
    consolidate_request,
    fail_server_request,
    place_batch_request,
    place_request,
    recover_server_request,
)
from repro.service.state import ClusterStateStore
from repro.workload.generator import generate_vms

SPEC = VMSpec("t", cpu=1.0, memory=1.0)


def _vm(vm_id: int, start: int, end: int) -> VM:
    return VM(vm_id=vm_id, spec=SPEC, interval=TimeInterval(start, end))


def _keep(state: ServerState, before: int) -> None:
    """``ServerState.compact`` that forgets nothing."""


def _stream(store: ClusterStateStore, count: int, spacing: int,
            length: int = 5) -> None:
    """Commit ``count`` sequential VMs marching to a far horizon."""
    n = len(store.cluster)
    for i in range(count):
        start = 1 + i * spacing
        store.advance_to(start)
        store.commit(_vm(i, start, start + length - 1), i % n)


class TestDaemonMemory:
    def test_occupancy_does_not_grow_with_horizon(self):
        store = ClusterStateStore(Cluster.paper_all_types(4))
        _stream(store, count=400, spacing=50)  # horizon ~ 20,000 ticks
        store.run_to_completion()
        for state in store.states:
            assert state.occupancy_points() < 20
            assert len(state.vms) == 0  # everything retired

    def test_live_vms_bounded_by_concurrency_not_total(self):
        store = ClusterStateStore(Cluster.paper_all_types(4))
        peak_live = 0
        n = len(store.cluster)
        for i in range(300):
            start = 1 + i * 10
            store.advance_to(start)
            store.commit(_vm(i, start, start + 25), i % n)
            peak_live = max(peak_live,
                            sum(len(st.vms) for st in store.states))
        # ~3 VMs overlap at any instant; 300 were committed in total.
        assert peak_live < 20

    def test_retirement_does_not_change_energy_accounting(self):
        store = ClusterStateStore(Cluster.paper_all_types(4))
        _stream(store, count=60, spacing=12)
        store.run_to_completion()
        accumulated = sum(state.cost for state in store.states)
        assert accumulated == pytest.approx(store.energy_accumulated,
                                            rel=1e-12)
        # The from-scratch Eq.-17 total over all (retired) placements
        # agrees with the per-delta accumulation.
        assert abs(store.energy_total() - accumulated) \
            <= 1e-6 * max(1.0, abs(accumulated))

    def test_retirement_event_maps_are_drained(self):
        store = ClusterStateStore(Cluster.paper_all_types(2))
        _stream(store, count=50, spacing=8)
        store.run_to_completion()
        assert not store._open_pieces
        assert not store._piece_vm
        assert not store._piece_demand

    def test_future_placements_unaffected_by_compaction(self):
        compacted = ClusterStateStore(Cluster.paper_all_types(2))
        control = ClusterStateStore(Cluster.paper_all_types(2))
        for store in (compacted, control):
            # the control's books keep their whole past
            with mock.patch.object(ServerState, "compact", _keep) \
                    if store is control else nullcontext():
                _stream(store, 30, spacing=10)
                store.run_to_completion()
            late = _vm(1000, store.clock + 5, store.clock + 12)
            store.commit(late, 0)
        assert len(control.states[0].busy_segments()) \
            > len(compacted.states[0].busy_segments())
        verdict_c = compacted.states[0].probe(_vm(1001, 400, 404))
        verdict_d = control.states[0].probe(_vm(1001, 400, 404))
        assert verdict_c == verdict_d

    def test_snapshot_roundtrip_after_retirement(self):
        store = ClusterStateStore(Cluster.paper_all_types(3))
        _stream(store, count=40, spacing=15)
        store.run_to_completion()
        restored = ClusterStateStore.from_snapshot(store.to_snapshot())
        assert restored.clock == store.clock
        assert restored.energy_accumulated == store.energy_accumulated
        for mine, theirs in zip(store.states, restored.states):
            assert mine.cost == theirs.cost
            assert len(mine.vms) == len(theirs.vms)
            assert mine.occupancy_points() == theirs.occupancy_points()

    def test_candidate_queues_stay_bounded_by_the_fleet(self):
        # Long VMs keep servers warm while later commits move their last
        # busy tick on: each move files a fresh heap entry and strands
        # the old one until the clock passes it. Compaction keeps the
        # index's heaps within twice the warm servers — O(fleet), not
        # O(commits).
        servers = 30
        daemon = AllocationDaemon(
            ClusterStateStore(Cluster.paper_all_types(servers)))
        vms = sorted(generate_vms(2000, mean_interarrival=0.5,
                                  mean_duration=100.0, seed=1),
                     key=lambda v: (v.start, v.end, v.vm_id))
        placed = peak = 0
        for vm in vms:
            response = daemon.handle(place_request(vm))
            placed += response["decision"] == "placed"
            heaps = [(len(g._ends or ()), len(g.warm))
                     for g in daemon.allocator._index._groups.values()]
            assert all(size <= 2 * warm + 1 for size, warm in heaps)
            peak = max(peak, sum(size for size, _ in heaps))
        assert placed > 1000
        assert peak <= 2 * servers + len(heaps)

    def test_an_idle_book_keeps_no_dead_watcher(self):
        # Every fleet rebuild registers the new index with every book;
        # a book never touched again used to keep each replaced one's
        # dead reference (~160 a book after 80 fail/recover pairs). The
        # generation being replaced is still alive when its successor
        # registers, so at most one dead one per live one is left.
        daemon = AllocationDaemon(
            ClusterStateStore(Cluster.paper_all_types(4)),
            algorithm="first-fit")
        daemon.handle(place_request(_vm(0, 1, 900)))
        for _ in range(40):
            assert daemon.handle(fail_server_request(3))["ok"]
            assert daemon.handle(recover_server_request(3))["ok"]
        for book in daemon.store.states:
            live = sum(ref() is not None for ref in book._watchers)
            assert len(book._watchers) <= 2 * live

    def test_past_commit_is_retired_immediately(self):
        store = ClusterStateStore(Cluster.paper_all_types(2))
        store.advance_to(100)
        store.commit(_vm(0, 5, 9), 0)  # entirely in the past
        assert store.states[0].vms == []
        assert store.energy_accumulated > 0


class TestSnapshotMemory:
    def test_a_snapshot_allocates_a_fraction_of_its_file(self, tmp_path):
        # The kept chunks go to disk as they are: a snapshot encodes the
        # head, the commits since the last one (one record at a time)
        # and the tail, never the whole document as one str or bytes —
        # which read twice the file.
        daemon = AllocationDaemon(
            ClusterStateStore(Cluster.paper_all_types(300)),
            algorithm="first-fit", data_dir=tmp_path, snapshot_every=200,
            fsync=False)
        vms = sorted(generate_vms(5150, mean_interarrival=0.2, seed=3),
                     key=lambda v: (v.start, v.end, v.vm_id))
        # 25 periodic snapshots, then 150 commits none has covered
        for first in range(0, len(vms), 200):
            response = daemon.handle(
                place_batch_request(vms[first:first + 200]))
            assert response["placed"] == response["count"], response
        assert daemon.store.placement_count() == 5150
        tracemalloc.start()
        try:
            path = daemon.write_snapshot()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            daemon.journal.close()
        size = path.stat().st_size
        assert peak < size / 4, (peak, size)


def retained(root) -> int:
    """Bytes of every object reachable from ``root`` (``sys.getsizeof``
    each, once), stopping at classes, modules and functions — which
    reach the whole interpreter."""
    seen, todo, size = set(), [root], 0
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, _SHARED):
            continue
        seen.add(id(obj))
        size += sys.getsizeof(obj)
        todo.extend(gc.get_referents(obj))
    return size


_SHARED = (type, ModuleType, FunctionType, BuiltinFunctionType)


class TestUptime:
    """From N to 5N commits — failures and consolidations interleaved —
    what the daemon retains, what its newest snapshot weighs and how
    many VM records a restore decodes each grow by at most 1.2x, the
    way ``candidate_index_scaling`` gates growth: a daemon's cost
    tracks its live load, not its uptime. Every ring is full by N: the
    latency reservoir's 4096 samples, and the flight and telemetry
    rings, sized to 16 here (they bound the records they keep, not what
    a record holds). A build that keeps the commit log grows ~4x, ~5x
    and ~5x here."""

    N, BATCH = 4_100, 50

    def drive(self, daemon, start: int, stop: int) -> None:
        """Commits ``start .. stop-1``: 1.5 arrivals a tick, 4–19 ticks
        long; a consolidation every 250 commits, a failure and a
        recovery of the busiest server every 1000. Each batch's ids
        leave room above for the ids an episode mints."""
        store = daemon.store
        for first in range(start, stop, self.BATCH):
            vms = [VM(vm_id=first // self.BATCH * 1000 + j, spec=SPEC,
                      interval=TimeInterval(1 + i * 2 // 3,
                                            4 + i * 2 // 3 + i % 16))
                   for j, i in enumerate(range(first, first + self.BATCH))]
            assert daemon.handle(place_batch_request(vms))["ok"]
            done = first + self.BATCH
            if done % 250 == 0:
                assert daemon.handle(consolidate_request())["ok"]
            if done % 1000 == 0:
                victim = max(range(len(store.states)),
                             key=lambda sid: len(store.states[sid].vms))
                assert daemon.handle(fail_server_request(victim))["ok"]
                assert daemon.handle(recover_server_request(victim))["ok"]

    def reading(self, daemon, data_dir, restore_dir,
                monkeypatch) -> tuple[int, int, int]:
        """(bytes retained, newest snapshot bytes, VM records a restore
        of a copy of ``data_dir`` decodes)."""
        gc.collect()
        held = retained(daemon)
        newest = max(data_dir.glob("snapshot-*.json")).stat().st_size
        shutil.copytree(data_dir, restore_dir)
        decoded = [0]
        made = VM.__init__

        def counting(vm, *args, **kwargs):
            decoded[0] += 1
            made(vm, *args, **kwargs)
        with monkeypatch.context() as patch:
            patch.setattr(VM, "__init__", counting)
            AllocationDaemon.restore(restore_dir, fsync=False).journal.close()
        return held, newest, decoded[0]

    def test_memory_snapshot_and_restore_track_live_load(
            self, tmp_path, monkeypatch):
        data_dir = tmp_path / "data"
        daemon = AllocationDaemon(
            ClusterStateStore(Cluster.paper_all_types(8)),
            algorithm="first-fit", data_dir=data_dir, fsync=False,
            flight_capacity=16, telemetry_capacity=16)
        self.drive(daemon, 0, self.N)
        early = self.reading(daemon, data_dir, tmp_path / "at-n",
                             monkeypatch)
        self.drive(daemon, self.N, 5 * self.N)
        late = self.reading(daemon, data_dir, tmp_path / "at-5n",
                            monkeypatch)
        daemon.journal.close()
        assert daemon.store.placement_count() >= 5 * self.N
        assert max(b / a for a, b in zip(early, late)) <= 1.2, (early, late)
