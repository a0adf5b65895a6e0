"""The live consolidation subsystem: fragmentation readings, victim
ranking, the shared migration planner, journaled episodes on the store
and the daemon, trigger rules, the chaos schedule, torn-group rollback,
and the live-versus-offline equivalence with the epoch consolidator."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.consolidation import (
    FragmentationMonitor,
    MigrationPlanner,
    PlannedMove,
    VictimSelector,
)
from repro.allocators.state import ServerState
from repro.energy import allocation_cost
from repro.exceptions import ValidationError
from repro.extensions import EpochConsolidator
from repro.model.cluster import Cluster
from repro.model.server import ServerSpec
from repro.service import (
    SNAPSHOT_FORMAT_VERSION,
    AllocationDaemon,
    ClusterStateStore,
    FaultEvent,
    FaultInjector,
    consolidate_request,
    fail_server_request,
    place_request,
    read_journal,
    recover_server_request,
)
from repro.workload.generator import generate_vms

from conftest import HistoryStore, make_vm

SPEC = ServerSpec("s", cpu_capacity=10.0, memory_capacity=10.0,
                  p_idle=50.0, p_peak=100.0, transition_time=1.0)

JOURNAL = "journal.jsonl"


def online_order(vms):
    return sorted(vms, key=lambda v: (v.start, v.end, v.vm_id))


def fragmented_store(servers=4, *, short_end=8, long_end=200):
    """One short (heavy) and one long (light) VM per server: once the
    shorts retire, every server idles under a small long-running VM —
    the canonical defragmentation opportunity."""
    store = HistoryStore(Cluster.homogeneous(SPEC, servers))
    vid = 0
    for sid in range(servers):
        store.commit(make_vm(vid, 1, short_end, cpu=7.0, memory=5.0), sid)
        store.commit(make_vm(vid + 1, 1, long_end, cpu=2.0, memory=4.0),
                     sid)
        vid += 2
    return store


def planner_states(servers=4, *, short_end=8, long_end=200):
    """Uncompacted planning books for the same fragmented fleet (what
    the offline pass plans on; :meth:`ClusterStateStore.consolidate`
    feeds the planner O(live) copies that answer the same)."""
    from repro.model.server import Server
    states, longs = [], []
    vid = 0
    for sid in range(servers):
        state = ServerState(Server(sid, SPEC))
        state.place(make_vm(vid, 1, short_end, cpu=7.0, memory=5.0))
        long_vm = make_vm(vid + 1, 1, long_end, cpu=2.0, memory=4.0)
        state.place(long_vm)
        states.append(state)
        longs.append(long_vm)
        vid += 2
    return states, longs


def fragment_daemon(daemon, servers=4, *, short_end=8, long_end=200):
    vid = 0
    for _ in range(servers):
        for cpu, mem, end in ((7.0, 5.0, short_end),
                              (2.0, 4.0, long_end)):
            response = daemon.handle(place_request(
                make_vm(vid, 1, end, cpu=cpu, memory=mem)))
            assert response["decision"] == "placed", response
            vid += 1


class TestFragmentationMonitor:
    def test_empty_fleet_reads_zero(self):
        store = ClusterStateStore(Cluster.homogeneous(SPEC, 3))
        reading = FragmentationMonitor().reading(store)
        assert reading.active_servers == 0
        assert reading.fragmentation == 0.0

    def test_fragmented_fleet_reading(self):
        store = fragmented_store(4)
        store.advance_to(10)  # the shorts are gone; 4 servers, load 8/16
        reading = FragmentationMonitor().reading(store)
        assert reading.active_servers == 4
        assert reading.resident_cpu == pytest.approx(8.0)
        assert reading.resident_mem == pytest.approx(16.0)
        assert reading.packed_lower_bound == 2  # ceil(16 mem / 10)
        assert reading.fragmentation == pytest.approx(0.5)

    def test_perfectly_packed_fleet_reads_zero(self):
        store = ClusterStateStore(Cluster.homogeneous(SPEC, 2))
        store.commit(make_vm(0, 1, 9, cpu=10.0, memory=10.0), 0)
        store.advance_to(2)
        assert FragmentationMonitor().reading(store).fragmentation == 0.0


class TestVictimSelector:
    def make_state(self, server_id=0):
        from repro.model.server import Server
        return ServerState(Server(server_id, SPEC))

    def test_no_spanning_resident_scores_none(self):
        state = self.make_state()
        state.place(make_vm(0, 1, 4))
        assert VictimSelector().score(state, 0, 10) is None  # retired
        assert VictimSelector().score(self.make_state(), 0, 5) is None

    def test_rank_prefers_fewer_residents_then_bigger_reclaim(self):
        light = self.make_state(0)
        light.place(make_vm(0, 1, 50))
        busy = self.make_state(1)
        busy.place(make_vm(1, 1, 50))
        busy.place(make_vm(2, 1, 60))
        ranked = VictimSelector().rank([light, busy], 10)
        assert [score.server_id for score in ranked] == [0, 1]
        assert ranked[0].residents == 1 and ranked[1].residents == 2

    def test_rank_skips_requested_servers(self):
        state = self.make_state(0)
        state.place(make_vm(0, 1, 50))
        assert VictimSelector().rank([state], 10,
                                     skip=frozenset({0})) == []


class TestMigrationPlanner:
    def test_constructor_validation(self):
        with pytest.raises(ValidationError):
            MigrationPlanner(-1.0)
        with pytest.raises(ValidationError):
            MigrationPlanner(1.0, k_sample=0)
        assert MigrationPlanner(0.0, k_sample=1).k_sample == 1

    def test_move_cost_is_per_gb(self):
        planner = MigrationPlanner(2.5)
        assert planner.move_cost(make_vm(0, 1, 5, memory=4.0)) == \
            pytest.approx(10.0)

    def test_best_move_leaves_states_untouched(self):
        states, longs = planner_states(2)
        before = [state.cost for state in states]
        move = MigrationPlanner(0.1).best_move(
            longs[0], 10, 0, states, 1000)
        assert move is not None and move.target_id == 1
        assert [state.cost for state in states] == before
        # planning is pure; apply() commits

    def test_prohibitive_cost_kills_every_move(self):
        states, _ = planner_states(4)
        plan = MigrationPlanner(1e9).plan_episode(states, 10, 1000)
        assert plan.moves == ()

    def test_plan_episode_drains_underpacked_servers(self):
        states, _ = planner_states(4)
        plan = MigrationPlanner(0.1).plan_episode(states, 10, 1000)
        assert len(plan.moves) == 2
        assert plan.total_saving < 0  # net: every move paid for itself
        assert plan.migration_energy == pytest.approx(
            2 * 0.1 * 4.0)  # two 4-GB remainders moved
        # Fresh head/remainder ids come from the caller's counter.
        assert sorted(piece.vm_id for move in plan.moves
                      for piece in (move.head, move.remainder)) == \
            [1000, 1001, 1002, 1003]

    def test_k_sample_bounds_the_target_scan(self):
        states, longs = planner_states(4)
        wide = MigrationPlanner(0.1).best_move(
            longs[3], 10, 3, states, 1000)
        narrow = MigrationPlanner(0.1, k_sample=1).best_move(
            longs[3], 10, 3, states, 1000)
        assert wide is not None and narrow is not None
        assert narrow.target_id == 0  # only the first feasible server bid
        assert narrow.saving >= wide.saving

    def test_planned_move_record_round_trip(self):
        states, _ = planner_states(2)
        plan = MigrationPlanner(0.1).plan_episode(states, 10, 1000)
        [move] = plan.moves
        restored = PlannedMove.from_record(
            json.loads(json.dumps(move.to_record())))
        assert restored == move
        with pytest.raises(ValidationError):
            PlannedMove.from_record({"vm": {"bad": True}})


class TestStoreConsolidate:
    def test_episode_moves_frees_and_accounts(self):
        store = fragmented_store(4)
        report = store.consolidate(10)
        assert report.time == 10 and store.clock == 10
        assert report.migrations == 2
        assert report.servers_freed == 2
        assert report.energy_saved > 0
        assert store.migration_energy == pytest.approx(
            report.migration_energy)
        # Every head stays behind; every remainder runs on its target.
        placed = {vm.vm_id: sid for vm, sid in store.history}
        for move in report.moves:
            assert placed[move.head.vm_id] == move.source_id
            assert placed[move.remainder.vm_id] == move.target_id
            assert move.vm.vm_id not in placed
        store.run_to_completion()
        assert store.energy_accumulated == pytest.approx(
            store.energy_total(), rel=1e-12)

    def test_consolidation_actually_saves_energy(self):
        idle = fragmented_store(4)
        idle.run_to_completion()
        packed = fragmented_store(4)
        report = packed.consolidate(10)
        packed.run_to_completion()
        assert packed.energy_total() + packed.migration_energy < \
            idle.energy_total()
        assert idle.energy_total() - packed.energy_total() - \
            packed.migration_energy == pytest.approx(
                report.energy_saved, rel=1e-12)

    def test_zero_move_episode_still_advances_the_clock(self):
        store = ClusterStateStore(Cluster.homogeneous(SPEC, 2))
        store.commit(make_vm(0, 1, 9), 0)
        report = store.consolidate(5)
        assert report.moves == () and report.servers_freed == 0
        assert store.clock == 5
        assert store.migration_energy == 0.0

    def test_validation(self):
        store = ClusterStateStore(Cluster.homogeneous(SPEC, 2))
        with pytest.raises(ValidationError):
            store.consolidate(0)
        store.advance_to(6)
        with pytest.raises(ValidationError):
            store.consolidate(3)  # in the past

    def test_dead_servers_neither_drain_nor_receive(self):
        store = fragmented_store(4)
        store.fail_server(3, 9)
        report = store.consolidate(10)
        touched = {move.source_id for move in report.moves} | \
            {move.target_id for move in report.moves}
        assert 3 not in touched
        assert report.migrations >= 1

    def test_snapshot_roundtrip_with_consolidate_event(self):
        store = fragmented_store(4)
        store.consolidate(10)
        document = json.loads(json.dumps(store.to_snapshot()))
        assert document["format_version"] == SNAPSHOT_FORMAT_VERSION
        restored = ClusterStateStore.from_snapshot(document)
        assert restored.to_snapshot() == store.to_snapshot()
        assert restored.migration_energy == store.migration_energy
        assert restored.energy_accumulated == store.energy_accumulated
        assert {vm.vm_id: sid for vm, sid in restored.placements} == \
            {vm.vm_id: sid for vm, sid in store.placements}
        restored.run_to_completion()
        store.run_to_completion()
        assert restored.energy_total() == store.energy_total()

    def test_zero_move_episode_keeps_the_snapshot_version(self):
        store = ClusterStateStore(Cluster.homogeneous(SPEC, 1))
        store.commit(make_vm(0, 1, 3), 0)
        store.consolidate(2)
        assert store.to_snapshot()["format_version"] == \
            SNAPSHOT_FORMAT_VERSION

    def test_replay_applies_recorded_moves_verbatim(self):
        live = fragmented_store(4)
        report = live.consolidate(10)
        replayed = fragmented_store(4)
        replayed.consolidate(10, moves=[
            PlannedMove.from_record(move.to_record())
            for move in report.moves])
        assert replayed.to_snapshot() == live.to_snapshot()

    @pytest.mark.parametrize("change", [
        lambda move: {"vm": make_vm(move.vm.vm_id, 1, 200, cpu=2.5,
                                    memory=4.0)},   # right id only
        lambda move: {"source_id": move.target_id},
        lambda move: {"source_id": 9},
        lambda move: {"source_id": -1},
    ])
    def test_bad_replayed_move_raises_before_anything_is_applied(
            self, change):
        [good, other] = fragmented_store(4).consolidate(10).moves
        bad = dataclasses.replace(other, **change(other))
        store = fragmented_store(4)
        untouched = fragmented_store(4)
        untouched.advance_to(10)
        with pytest.raises(ValidationError, match="is not placed on server"):
            store.consolidate(10, moves=[good, bad])
        assert store.to_snapshot() == untouched.to_snapshot()
        assert store.energy_accumulated == untouched.energy_accumulated
        assert store.migration_energy == 0.0
        assert [s.vms for s in store.states] == \
            [s.vms for s in untouched.states]


class TestDaemonConsolidateOp:
    def test_response_shape(self):
        store = ClusterStateStore(Cluster.homogeneous(SPEC, 4))
        daemon = AllocationDaemon(store, algorithm="first-fit",
                                  migration_cost_per_gb=0.1)
        fragment_daemon(daemon)
        daemon.handle({"op": "tick", "now": 10})
        response = json.loads(daemon.handle_line(
            json.dumps(consolidate_request())))
        assert response["ok"] is True and response["op"] == "consolidate"
        assert response["time"] == 10
        assert response["migrations"] == 2
        assert response["servers_freed"] == 2
        assert response["energy_saved"] > 0
        assert response["migration_energy"] == pytest.approx(0.8)
        assert response["latency_ms"] >= 0
        for item in response["moves"]:
            assert set(item) == {"vm_id", "head_id", "remainder_id",
                                 "source_id", "target_id", "saving",
                                 "cost"}

    def test_protocol_gating_and_validation(self):
        store = ClusterStateStore(Cluster.homogeneous(SPEC, 2))
        daemon = AllocationDaemon(store)
        v1 = json.loads(daemon.handle_line('{"op": "consolidate"}'))
        assert v1["ok"] is False and "version 2" in v1["error"]
        bad = json.loads(daemon.handle_line(
            '{"op": "consolidate", "v": 2, "time": 0}'))
        assert bad["ok"] is False and "time" in bad["error"]
        bad_type = daemon.handle({"op": "consolidate", "v": 2,
                                  "time": True})
        assert bad_type["ok"] is False

    def test_default_time_is_the_clock(self):
        store = ClusterStateStore(Cluster.homogeneous(SPEC, 2))
        daemon = AllocationDaemon(store)
        daemon.handle(place_request(make_vm(0, 4, 8)))
        response = daemon.handle(consolidate_request())
        assert response["time"] == store.clock == 4
        # On a fresh daemon the clock rounds up to the first real tick.
        fresh = AllocationDaemon(
            ClusterStateStore(Cluster.homogeneous(SPEC, 1)))
        assert fresh.handle(consolidate_request())["time"] == 1

    def test_epoch_trigger_fires_on_tick(self):
        store = ClusterStateStore(Cluster.homogeneous(SPEC, 4))
        daemon = AllocationDaemon(store, algorithm="first-fit",
                                  migration_cost_per_gb=0.1,
                                  consolidate_every=10)
        fragment_daemon(daemon)
        daemon.handle({"op": "tick", "now": 9})
        assert daemon.metrics.migrations == 0  # below the boundary
        daemon.handle({"op": "tick", "now": 12})
        assert daemon.metrics.migrations == 2
        assert store.migration_energy > 0
        freed = daemon.metrics.servers_freed
        # The next boundary has nothing left to drain but still counts
        # at most one episode per tick.
        daemon.handle({"op": "tick", "now": 20})
        assert daemon.metrics.servers_freed == freed

    def test_threshold_trigger_fires_after_placement(self):
        store = ClusterStateStore(Cluster.homogeneous(SPEC, 4))
        daemon = AllocationDaemon(store, algorithm="first-fit",
                                  migration_cost_per_gb=0.1,
                                  frag_threshold=0.4)
        fragment_daemon(daemon)
        daemon.handle({"op": "tick", "now": 10})  # frag jumps to 0.5
        assert daemon.metrics.migrations == 2
        # Drained sources power down when the tick closes; the next
        # tick reads a defragmented fleet and stays quiet.
        daemon.handle({"op": "tick", "now": 11})
        assert FragmentationMonitor().reading(store).fragmentation == 0.0
        assert daemon.metrics.migrations == 2

    def test_trigger_config_validation(self):
        store = ClusterStateStore(Cluster.homogeneous(SPEC, 1))
        with pytest.raises(ValidationError):
            AllocationDaemon(store, consolidate_every=-1)
        with pytest.raises(ValidationError):
            AllocationDaemon(store, frag_threshold=0.0)
        with pytest.raises(ValidationError):
            AllocationDaemon(store, frag_threshold=1.5)

    def test_stats_and_metrics_report_consolidation(self):
        store = ClusterStateStore(Cluster.homogeneous(SPEC, 4))
        daemon = AllocationDaemon(store, algorithm="first-fit",
                                  migration_cost_per_gb=0.1)
        fragment_daemon(daemon)
        daemon.handle({"op": "tick", "now": 10})
        daemon.handle(consolidate_request())
        stats = daemon.handle({"op": "stats"})
        assert stats["migrations"] == 2
        assert stats["migration_energy"] == pytest.approx(0.8)
        text = daemon.handle({"op": "metrics"})["text"]
        assert "repro_migrations_total 2" in text
        assert "repro_servers_freed_total 2" in text
        assert "repro_consolidation_duration_seconds_count 1" in text

    def test_episode_is_one_atomic_journal_group(self, tmp_path):
        store = ClusterStateStore(Cluster.homogeneous(SPEC, 4))
        daemon = AllocationDaemon(store, algorithm="first-fit",
                                  migration_cost_per_gb=0.1,
                                  data_dir=tmp_path, fsync=False)
        fragment_daemon(daemon)
        daemon.handle({"op": "tick", "now": 10})
        response = daemon.handle(consolidate_request())
        entries = list(read_journal(tmp_path / JOURNAL))
        [group] = [e for e in entries if e["op"] == "consolidate"]
        assert group["time"] == 10
        # Every move of the episode travels inside the group — no
        # separate place entries for remainders.
        assert len(group["moves"]) == response["migrations"] == 2
        assert [e["op"] for e in entries] == \
            ["init"] + ["place"] * 8 + ["tick", "consolidate"]

    def test_kill_and_restore_reproduces_post_episode_state(
            self, tmp_path):
        store = ClusterStateStore(Cluster.homogeneous(SPEC, 4))
        first = AllocationDaemon(store, algorithm="first-fit",
                                 migration_cost_per_gb=0.1,
                                 data_dir=tmp_path, fsync=False)
        fragment_daemon(first)
        first.handle({"op": "tick", "now": 10})
        first.handle(consolidate_request())
        expected = store.to_snapshot()
        expected_counters = (first.metrics.migrations,
                             first.metrics.servers_freed,
                             first.metrics.consolidation_energy_saved)
        del first  # hard kill: no shutdown snapshot

        second = AllocationDaemon.restore(tmp_path, fsync=False)
        assert second.store.to_snapshot() == expected
        assert second.store.migration_energy == store.migration_energy
        assert (second.metrics.migrations, second.metrics.servers_freed,
                second.metrics.consolidation_energy_saved) == \
            expected_counters
        # The watermark survives too: the next trigger check at the
        # same tick stays quiet.
        assert second._last_consolidated_tick == 10


class TestFaultInjectorConsolidate:
    class Recorder:
        def __init__(self):
            self.calls = []

        def fail_server(self, server_id, time=None):
            self.calls.append(("fail", server_id, time))
            return {"ok": True}

        def recover_server(self, server_id):
            self.calls.append(("recover", server_id))
            return {"ok": True}

        def consolidate(self, time=None):
            self.calls.append(("consolidate", time))
            return {"ok": True}

    def test_consolidate_event_needs_no_server_id(self):
        target = self.Recorder()
        injector = FaultInjector([
            FaultEvent(after=0, kind="consolidate", time=7),
            FaultEvent(after=1, kind="consolidate"),
        ], target)
        injector.drain()
        assert target.calls == [("consolidate", 7), ("consolidate", None)]
        assert len(injector.responses) == 2

    def test_chaos_schedule_with_failure_mid_consolidation(
            self, tmp_path):
        """A ``fail_server`` landing between consolidation episodes:
        both episodes fully apply, the failure re-places what it must,
        and a hard kill+restore reproduces the whole braid bit-exact."""
        store = ClusterStateStore(Cluster.homogeneous(SPEC, 6))
        daemon = AllocationDaemon(store, algorithm="first-fit",
                                  migration_cost_per_gb=0.1,
                                  data_dir=tmp_path, fsync=False)
        fragment_daemon(daemon, servers=6)
        daemon.handle({"op": "tick", "now": 10})

        class Target:
            def fail_server(self, server_id, time=None):
                return daemon.handle(
                    fail_server_request(server_id, time))

            def recover_server(self, server_id):
                return daemon.handle(recover_server_request(server_id))

            def consolidate(self, time=None):
                return daemon.handle(consolidate_request(time))

        injector = FaultInjector([
            FaultEvent(after=0, kind="consolidate", time=11),
            FaultEvent(after=1, kind="fail", server_id=0, time=12),
            FaultEvent(after=2, kind="consolidate", time=13),
        ], Target())
        fired = injector.drain()
        assert all(r["ok"] for r in fired), fired
        first, fail, second = fired
        assert first["migrations"] >= 1
        # The failure killed the consolidation target's new tenants or
        # missed them — either way each journal group stands alone.
        entries = list(read_journal(tmp_path / JOURNAL))
        kinds = [e["op"] for e in entries]
        assert kinds.count("consolidate") == 2
        assert kinds.count("fail_server") == 1
        assert kinds.index("fail_server") > kinds.index("consolidate")
        expected = store.to_snapshot()
        del daemon

        restored = AllocationDaemon.restore(tmp_path, fsync=False)
        assert restored.store.to_snapshot() == expected
        restored.store.run_to_completion()
        assert restored.store.energy_accumulated == pytest.approx(
            restored.store.energy_total(), rel=1e-12)


class TestLiveMatchesOffline:
    def test_live_episodes_equal_epoch_consolidator(self):
        """The shared-planner guarantee: the daemon's live episodes and
        the offline :class:`EpochConsolidator` post-pass pick the same
        migrations and land on the same Eq.-17 energy (rel 1e-12) for
        the same trace and epoch grid. The trace arrives entirely
        before the first boundary — the offline pass places everything
        up front, so that is the regime where the two are comparable.
        """
        epoch = 30
        cost = 2.0
        vms = [vm for vm in generate_vms(60, mean_interarrival=0.4,
                                         mean_duration=25.0, seed=21)
               if vm.start <= epoch]
        assert len(vms) >= 40
        horizon = max(vm.end for vm in vms)
        cluster_size = 40

        store = HistoryStore(Cluster.paper_all_types(cluster_size))
        daemon = AllocationDaemon(store, migration_cost_per_gb=cost)
        for vm in online_order(vms):
            assert daemon.handle(place_request(vm))["decision"] == \
                "placed"
        live_moves = []
        for boundary in range(epoch, horizon + 1, epoch):
            daemon.handle({"op": "tick", "now": boundary})
            response = daemon.handle(consolidate_request(boundary))
            assert response["ok"], response
            live_moves.extend(
                (boundary, item["source_id"], item["target_id"],
                 item["cost"])
                for item in response["moves"])
        store.run_to_completion()

        offline = EpochConsolidator(
            epoch_length=epoch, migration_cost_per_gb=cost,
            planner=daemon.planner).allocate(
                vms, Cluster.paper_all_types(cluster_size))
        assert live_moves == [
            (m.time, m.source, m.target, m.cost)
            for m in offline.migrations]
        assert len(live_moves) >= 1  # the trace genuinely consolidates
        assert store.energy_total() == pytest.approx(
            offline.placement_energy, rel=1e-12)
        assert store.migration_energy == pytest.approx(
            offline.migration_energy, rel=1e-12)
        live_map = {vm.vm_id: sid for vm, sid in store.history}
        offline_map = {vm.vm_id: sid
                       for vm, sid in offline.allocation.items()}
        assert live_map == offline_map  # split piece ids included


class TestEndToEndTornEpisode:
    def test_two_kill_restores_one_mid_episode(self, tmp_path):
        """The acceptance scenario: a stream with live consolidation, a
        hard kill+restore mid-stream, then a kill *mid-episode* (the
        journal's consolidate group torn mid-write). The torn group
        must roll back whole — never a half-applied episode — and after
        re-running it the final map and Eq.-17 energy equal a reference
        daemon that never crashed (rel 1e-12)."""
        vms = generate_vms(80, mean_interarrival=1.0,
                           mean_duration=30.0, seed=13)
        ordered = online_order(vms)
        cut = len(ordered) // 2

        store = ClusterStateStore(Cluster.paper_all_types(40))
        first = AllocationDaemon(store, data_dir=tmp_path,
                                 migration_cost_per_gb=1.0,
                                 snapshot_every=0, fsync=False)
        for vm in ordered[:cut]:
            assert first.handle(place_request(vm))["decision"] == "placed"
        del first  # kill+restore #1: mid-stream

        second = AllocationDaemon.restore(tmp_path, fsync=False)
        for vm in ordered[cut:]:
            assert second.handle(
                place_request(vm))["decision"] == "placed"
        boundary = second.store.clock + 5
        second.handle({"op": "tick", "now": boundary})
        pre_episode = second.store.to_snapshot()
        response = second.handle(consolidate_request(boundary))
        assert response["migrations"] >= 1, response
        del second  # kill #2 lands mid-episode below

        # Tear the consolidate group mid-write: the journal's final
        # line is half on disk, exactly what a crash during append
        # leaves behind.
        journal = tmp_path / JOURNAL
        lines = journal.read_text(encoding="utf-8").splitlines(True)
        assert '"op": "consolidate"' in lines[-1] or \
            '"op":"consolidate"' in lines[-1]
        journal.write_text("".join(lines[:-1]) +
                           lines[-1][:len(lines[-1]) // 2],
                           encoding="utf-8")

        third = AllocationDaemon.restore(tmp_path, fsync=False)
        # The torn episode rolled back whole: bit-exact pre-episode
        # state, no half-applied moves, zero migration energy.
        assert third.store.to_snapshot() == pre_episode
        assert third.store.migration_energy == 0.0
        assert third.metrics.migrations == 0

        # Re-running the episode reconverges with a daemon that never
        # crashed: same moves, same map, same energy.
        rerun = third.handle(consolidate_request(boundary))
        assert rerun["moves"] == response["moves"]
        third.store.run_to_completion()

        reference_store = ClusterStateStore(Cluster.paper_all_types(40))
        reference = AllocationDaemon(reference_store,
                                     migration_cost_per_gb=1.0)
        for vm in ordered:
            reference.handle(place_request(vm))
        reference.handle({"op": "tick", "now": boundary})
        reference.handle(consolidate_request(boundary))
        reference_store.run_to_completion()
        assert {vm.vm_id: sid
                for vm, sid in third.store.allocation().items()} == \
            {vm.vm_id: sid
             for vm, sid in reference_store.allocation().items()}
        assert third.store.energy_total() == pytest.approx(
            reference_store.energy_total(), rel=1e-12)
        assert third.store.migration_energy == pytest.approx(
            reference_store.migration_energy, rel=1e-12)
