"""Long-horizon memory regression for the online service.

Before the skyline engine, every ServerState carried dense numpy arrays
covering ``[0, horizon)`` — a daemon running for a simulated month held
millions of float slots per server, and the ``vms`` lists grew without
bound. Now finished VMs are retired as their last piece ends and the
occupancy index is compacted, so planning-state memory tracks *live*
load, not elapsed time.
"""

from __future__ import annotations

import tracemalloc

import pytest

from repro.model.cluster import Cluster
from repro.model.intervals import TimeInterval
from repro.model.vm import VM, VMSpec
from repro.service import (
    AllocationDaemon,
    place_batch_request,
    place_request,
)
from repro.service.state import ClusterStateStore
from repro.workload.generator import generate_vms

SPEC = VMSpec("t", cpu=1.0, memory=1.0)


def _vm(vm_id: int, start: int, end: int) -> VM:
    return VM(vm_id=vm_id, spec=SPEC, interval=TimeInterval(start, end))


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
        control = ClusterStateStore(Cluster.paper_all_types(2),
                                    engine="dense")
        for store in (compacted, control):
            _stream(store, 30, spacing=10)
            store.run_to_completion()
            late = _vm(1000, store.clock + 5, store.clock + 12)
            store.commit(late, 0)
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
