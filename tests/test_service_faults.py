"""Fault tolerance of the online allocation service: live ``fail_server``
/ ``recover_server`` events, atomic journal groups, kill+restore of the
post-failure state, the deterministic fault-injection harness, and the
end-to-end live-versus-offline energy equality."""

from __future__ import annotations

import json

import pytest

from repro.allocators import (
    MinIncrementalEnergy,
    allocator_names,
    make_allocator,
)
from repro.energy import allocation_cost
from repro.exceptions import ValidationError
from repro.model.cluster import Cluster
from repro.model.server import ServerSpec
from repro.model.vm import VM
from repro.service import (
    SNAPSHOT_FORMAT_VERSION,
    AllocationDaemon,
    ClusterStateStore,
    FaultEvent,
    FaultInjector,
    Replacement,
    dump_debug_request,
    fail_server_request,
    place_request,
    read_journal,
    recover_server_request,
)
from repro.simulation import simulate_online
from repro.simulation.failures import ServerFailure, inject_failures
from repro.simulation.power_state import PowerState
from repro.workload.generator import generate_vms

from conftest import HistoryStore, make_vm

SPEC = ServerSpec("s", cpu_capacity=10.0, memory_capacity=10.0,
                  p_idle=50.0, p_peak=100.0, transition_time=1.0)


def online_order(vms):
    return sorted(vms, key=lambda v: (v.start, v.end, v.vm_id))


class DictApiTarget:
    """Adapts the daemon's in-process dict API to the injector's
    client-shaped surface, so one fault schedule drives both."""

    def __init__(self, daemon):
        self._daemon = daemon

    def fail_server(self, server_id, time=None):
        return self._daemon.handle(fail_server_request(server_id, time))

    def recover_server(self, server_id):
        return self._daemon.handle(recover_server_request(server_id))

    def dump_debug(self):
        return self._daemon.handle(dump_debug_request())


class TestStoreFailServer:
    def test_running_vm_splits_and_replaces(self):
        store = HistoryStore(Cluster.homogeneous(SPEC, 3))
        store.commit(make_vm(0, 1, 8, cpu=4.0), 0)
        store.advance_to(3)
        report = store.fail_server(0, 4)
        assert (report.server_id, report.time) == (0, 4)
        assert store.clock == 4  # the failure advanced the clock
        [r] = report.replacements
        assert r.vm.vm_id == 0
        assert (r.head.start, r.head.end) == (1, 3)
        assert (r.remainder.start, r.remainder.end) == (4, 8)
        assert r.server_id in (1, 2)
        assert report.killed == 1 and report.replaced == 1
        assert report.lost == ()
        assert store.is_failed(0)
        assert store.servers_failed() == 1
        assert store.dead_servers() == {0: 4}
        # Head stays on the victim's books, remainder on the target.
        placed = {vm.vm_id: sid for vm, sid in store.history}
        assert placed[r.head.vm_id] == 0
        assert placed[r.remainder.vm_id] == r.server_id
        assert 0 not in placed  # the original entry was replaced
        # Live, only the remainder runs: the head ended before the cut.
        assert store.placements == ((r.remainder, r.server_id),)
        assert store.placement_count() == 2

    def test_not_started_vm_moves_whole(self):
        store = ClusterStateStore(Cluster.homogeneous(SPEC, 2))
        store.commit(make_vm(7, 5, 9), 0)
        report = store.fail_server(0, 2)
        [r] = report.replacements
        assert r.head is None
        assert r.remainder.vm_id == 7  # id kept: nothing ran
        assert report.killed == 0 and report.replaced == 1

    def test_remainder_lost_when_nothing_fits(self):
        store = ClusterStateStore(Cluster.homogeneous(SPEC, 2))
        store.commit(make_vm(0, 1, 6, cpu=8.0), 0)
        store.commit(make_vm(1, 1, 6, cpu=8.0), 1)
        report = store.fail_server(0, 3)
        [r] = report.replacements
        assert r.lost and r.server_id is None
        assert report.lost == (r.vm,)
        # The head's waste is still accounted on the dead server.
        assert r.head is not None

    def test_dead_server_rejects_commits(self):
        store = ClusterStateStore(Cluster.homogeneous(SPEC, 2))
        store.fail_server(0, 1)
        with pytest.raises(ValidationError, match="failed at tick"):
            store.commit(make_vm(0, 2, 4), 0)
        store.commit(make_vm(0, 2, 4), 1)  # survivors still accept

    def test_failure_validation(self):
        store = ClusterStateStore(Cluster.homogeneous(SPEC, 2))
        with pytest.raises(ValidationError):
            store.fail_server(9, 1)  # unknown server
        store.advance_to(5)
        with pytest.raises(ValidationError):
            store.fail_server(0, 3)  # in the past
        store.fail_server(0, 5)
        with pytest.raises(ValidationError):
            store.fail_server(0, 6)  # already failed
        with pytest.raises(ValidationError):
            store.recover_server(1)  # not failed
        with pytest.raises(ValidationError):
            store.recover_server(9)  # unknown server

    @pytest.mark.parametrize("bad, sid", [
        (make_vm(1, 1, 8, cpu=4.0), 0),     # lives on server 1
        (make_vm(0, 1, 8, cpu=3.0), 0),     # right id, another VM
        (make_vm(2, 1, 2, cpu=1.0), 0),     # was there, ended at tick 2
    ])
    def test_bad_replayed_record_raises_before_anything_is_booked(
            self, bad, sid):
        """A replayed episode naming a VM that is not (field for field)
        a resident of the victim used to fail at that record — after
        the earlier replacements of the episode were booked. Every
        record is now checked against the victim's book up front: the
        clock has moved to the failure tick, nothing else has."""
        store = ClusterStateStore(Cluster.homogeneous(SPEC, 3))
        store.commit(make_vm(0, 1, 8, cpu=4.0), 0)
        store.commit(make_vm(1, 1, 8, cpu=4.0), 1)
        store.commit(make_vm(2, 1, 2, cpu=1.0), 0)
        store.advance_to(3)
        twin = ClusterStateStore.from_snapshot(store.to_snapshot())
        [good] = twin.fail_server(0, 4).replacements
        untouched = ClusterStateStore.from_snapshot(store.to_snapshot())
        untouched.advance_to(4)
        with pytest.raises(ValidationError, match=f"vm {bad.vm_id} is "
                           f"not placed on server {sid}"):
            store.fail_server(sid, 4, replacements=[
                good, Replacement(vm=bad, head=None, remainder=bad,
                                  server_id=2)])
        assert not store.is_failed(0) and store.states[2].is_pristine
        assert store.clock == 4
        assert store.to_snapshot() == untouched.to_snapshot()
        assert store.energy_accumulated == untouched.energy_accumulated
        assert [s.cost for s in store.states] == \
            [s.cost for s in untouched.states]
        # ... and the same episode without the bad record still replays.
        assert store.fail_server(0, 4, replacements=[good]) \
            .replacements[0].server_id == good.server_id
        assert store.placements == twin.placements
        assert store.energy_accumulated == twin.energy_accumulated

    def test_failed_machine_draws_no_power(self):
        store = ClusterStateStore(Cluster.homogeneous(SPEC, 1))
        store.commit(make_vm(0, 1, 6, cpu=5.0), 0)
        store.advance_to(2)
        assert store.fleet_power() > 0
        store.fail_server(0, 3)
        assert store.machines[0].state is PowerState.FAILED
        assert store.fleet_power() == 0.0
        assert store.servers_active() == 0

    def test_recover_readmits_and_next_wake_pays_alpha(self):
        store = ClusterStateStore(Cluster.homogeneous(SPEC, 1))
        store.fail_server(0, 2)
        store.recover_server(0)
        assert not store.is_failed(0)
        assert store.machines[0].state is PowerState.POWER_SAVING
        transitions = store.machines[0].transitions
        store.commit(make_vm(0, 3, 5), 0)
        store.advance_to(3)
        assert store.machines[0].state is PowerState.ACTIVE
        assert store.machines[0].transitions == transitions + 1

    def test_energy_accumulated_stays_consistent(self):
        vms = generate_vms(60, mean_interarrival=2.0, seed=3)
        store = ClusterStateStore(Cluster.paper_all_types(30))
        daemon = AllocationDaemon(store)
        for vm in online_order(vms):
            assert daemon.handle(place_request(vm))["decision"] == "placed"
        victims = sorted({sid for vm, sid in store.placements
                          if vm.end >= store.clock + 2})[:2]
        for offset, sid in enumerate(victims):
            daemon.handle(fail_server_request(sid, store.clock + 1))
        store.run_to_completion()
        assert store.energy_accumulated == pytest.approx(
            store.energy_total(), rel=1e-12)

    def test_live_failures_match_offline_inject_failures(self):
        vms = generate_vms(80, mean_interarrival=2.0, seed=5)
        cluster = Cluster.paper_all_types(40)
        store = HistoryStore(cluster)
        daemon = AllocationDaemon(store)
        for vm in online_order(vms):
            assert daemon.handle(place_request(vm))["decision"] == "placed"
        clock = store.clock
        by_server = {}
        for vm, sid in store.history:
            by_server[sid] = max(by_server.get(sid, -1), vm.end)
        victims = [sid for sid, end in sorted(by_server.items())
                   if end >= clock + 2][:2]
        assert len(victims) == 2
        schedule = [ServerFailure(server_id=sid, time=clock + 1 + i)
                    for i, sid in enumerate(victims)]
        for failure in schedule:
            response = daemon.handle(
                fail_server_request(failure.server_id, failure.time))
            assert response["ok"], response
        store.run_to_completion()

        alloc, _ = simulate_online(vms, Cluster.paper_all_types(40),
                                   MinIncrementalEnergy())
        outcome = inject_failures(alloc, schedule)
        assert store.energy_total() == pytest.approx(
            allocation_cost(outcome.allocation).total, rel=1e-12)
        offline = {vm.vm_id: sid for vm, sid in outcome.allocation.items()}
        online = {vm.vm_id: sid for vm, sid in store.history}
        assert online == offline  # split ids included
        assert store.energy_total() == pytest.approx(
            store.energy_from_scratch(), rel=1e-12)

    def test_snapshot_roundtrip_with_failure_events(self):
        store = ClusterStateStore(Cluster.homogeneous(SPEC, 3))
        store.commit(make_vm(0, 1, 8, cpu=4.0), 0)
        store.commit(make_vm(1, 2, 6, cpu=2.0), 1)
        store.fail_server(0, 4)
        store.recover_server(0)
        store.commit(make_vm(50, 5, 7), 0)
        document = json.loads(json.dumps(store.to_snapshot()))
        assert document["format_version"] == SNAPSHOT_FORMAT_VERSION
        restored = ClusterStateStore.from_snapshot(document)
        assert restored.to_snapshot() == store.to_snapshot()
        assert restored.clock == store.clock
        assert restored.energy_accumulated == store.energy_accumulated
        assert restored.dead_servers() == store.dead_servers()
        assert {vm.vm_id: sid for vm, sid in restored.placements} == \
            {vm.vm_id: sid for vm, sid in store.placements}

    def test_a_snapshot_records_the_live_state_not_the_log(self):
        # Format 4 whatever happened: a store that saw no failure holds
        # the same kind of document as one that did, and a VM that has
        # ended is in no book — only in the placement count.
        store = ClusterStateStore(Cluster.homogeneous(SPEC, 1))
        store.commit(make_vm(0, 1, 3), 0)
        store.commit(make_vm(1, 2, 9), 0)
        store.advance_to(5)
        document = store.to_snapshot()
        assert document["format_version"] == SNAPSHOT_FORMAT_VERSION
        assert "placements" not in document and "events" not in document
        [(server_id, record)] = document["servers"]
        assert server_id == 0 and [vm["vm_id"] for vm in record["vms"]] == [1]
        assert document["store"]["placements"] == 2


class TestDaemonFailureOps:
    def test_fail_server_response_shape(self):
        store = ClusterStateStore(Cluster.homogeneous(SPEC, 2))
        daemon = AllocationDaemon(store)
        daemon.handle(place_request(make_vm(0, 1, 8, cpu=4.0)))
        response = daemon.handle(fail_server_request(0, 3))
        assert response["ok"] is True
        assert response["op"] == "fail_server"
        assert (response["server_id"], response["time"]) == (0, 3)
        assert response["killed"] == 1
        assert response["replaced"] == 1
        assert response["lost"] == []
        [item] = response["replacements"]
        assert item["vm_id"] == 0
        assert item["server_id"] == 1
        assert item["head_id"] is not None
        assert item["remainder_id"] is not None
        assert response["latency_ms"] >= 0
        assert response["energy_delta"] == pytest.approx(
            response["victim_delta"] + item["energy_delta"])

    def test_fail_server_default_time_is_the_clock(self):
        store = ClusterStateStore(Cluster.homogeneous(SPEC, 2))
        daemon = AllocationDaemon(store)
        daemon.handle(place_request(make_vm(0, 4, 8)))
        response = daemon.handle(fail_server_request(1))
        assert response["time"] == store.clock == 4

    def test_fail_server_protocol_validation(self):
        store = ClusterStateStore(Cluster.homogeneous(SPEC, 2))
        daemon = AllocationDaemon(store)
        # The wire protocol gates the new ops behind v2.
        v1 = json.loads(daemon.handle_line(
            '{"op": "fail_server", "server_id": 0}'))
        assert v1["ok"] is False and "version 2" in v1["error"]
        assert not store.is_failed(0)
        bad = daemon.handle({"op": "fail_server", "v": 2,
                             "server_id": "zero"})
        assert bad["ok"] is False and "server_id" in bad["error"]
        bad_time = daemon.handle({"op": "fail_server", "v": 2,
                                  "server_id": 0, "time": 0})
        assert bad_time["ok"] is False and "time" in bad_time["error"]
        unknown = daemon.handle(fail_server_request(99))
        assert unknown["ok"] is False and "unknown server" in \
            unknown["error"]["message"]

    def test_dead_server_is_excluded_from_placement(self):
        store = ClusterStateStore(Cluster.homogeneous(SPEC, 2))
        daemon = AllocationDaemon(store)
        daemon.handle(fail_server_request(0, 1))
        response = daemon.handle(place_request(make_vm(0, 2, 4)))
        assert response["decision"] == "placed"
        assert response["server_id"] == 1  # only the survivor
        daemon.handle(fail_server_request(1, 2))
        rejected = daemon.handle(place_request(make_vm(1, 3, 5)))
        assert rejected["decision"] == "rejected"

    def test_round_robin_explains_the_rotation_it_walks(self):
        """Once a server is dead a fleet position is not a server id;
        the rotation walks positions, and so must its explain score
        (it ranked by id: the chosen server scored 2.0, another 0.0)."""
        vms = online_order(generate_vms(8, 1.0, seed=1))
        daemon = AllocationDaemon(
            ClusterStateStore(Cluster.paper_all_types(5)),
            algorithm="round-robin")
        daemon.handle(place_request(vms[0]))
        daemon.handle(fail_server_request(1))
        for vm in vms[1:]:
            response = daemon.handle(place_request(vm, explain=True))
            assert response["decision"] == "placed"
            scores = {c["server_id"]: c["score"]
                      for c in response["explanation"]["candidates"]
                      if c["feasible"]}
            best = min(scores.values())
            assert [sid for sid, score in scores.items()
                    if score == best] == [response["server_id"]]

    def test_recover_server_readmits(self):
        store = ClusterStateStore(Cluster.homogeneous(SPEC, 1))
        daemon = AllocationDaemon(store)
        daemon.handle(fail_server_request(0, 1))
        assert daemon.handle(
            place_request(make_vm(0, 2, 4)))["decision"] == "rejected"
        response = daemon.handle(recover_server_request(0))
        assert response["ok"] is True
        assert response["servers_failed"] == 0
        assert daemon.handle(
            place_request(make_vm(1, 3, 5)))["decision"] == "placed"

    def test_stats_and_metrics_report_failures(self):
        store = ClusterStateStore(Cluster.homogeneous(SPEC, 2))
        daemon = AllocationDaemon(store)
        daemon.handle(place_request(make_vm(0, 1, 8, cpu=4.0)))
        daemon.handle(fail_server_request(0, 3))
        stats = daemon.handle({"op": "stats"})
        assert stats["servers_failed"] == 1
        text = daemon.handle({"op": "metrics"})["text"]
        assert "repro_failures_total 1" in text
        assert "repro_replacements_total 1" in text
        assert "repro_vms_lost_total 0" in text
        assert "repro_servers_failed 1" in text

    def test_failure_is_one_atomic_journal_group(self, tmp_path):
        store = ClusterStateStore(Cluster.homogeneous(SPEC, 3))
        daemon = AllocationDaemon(store, data_dir=tmp_path, fsync=False)
        daemon.handle(place_request(make_vm(0, 1, 8, cpu=4.0)))
        daemon.handle(place_request(make_vm(1, 2, 9, cpu=3.0)))
        response = daemon.handle(fail_server_request(0, 4))
        entries = list(read_journal(tmp_path / "journal.jsonl"))
        fails = [e for e in entries if e["op"] == "fail_server"]
        assert len(fails) == 1
        [group] = fails
        assert group["server_id"] == 0 and group["time"] == 4
        # Every re-placement of the episode travels inside the group —
        # no separate place entries for remainders.
        assert len(group["replacements"]) == len(
            response["replacements"]) >= 1
        assert [e["op"] for e in entries] == \
            ["init", "place", "place", "fail_server"]

    def test_kill_and_restore_reproduces_post_failure_state(self,
                                                            tmp_path):
        store = ClusterStateStore(Cluster.paper_all_types(10))
        first = AllocationDaemon(store, data_dir=tmp_path, fsync=False)
        vms = generate_vms(30, mean_interarrival=2.0, seed=9)
        for vm in online_order(vms):
            first.handle(place_request(vm))
        victim = next(sid for vm, sid in store.placements
                      if vm.end >= store.clock + 1)
        first.handle(fail_server_request(victim, store.clock + 1))
        first.handle(recover_server_request(victim))
        expected = store.to_snapshot()
        expected_metrics = (first.metrics.failures,
                            first.metrics.replacements,
                            first.metrics.vms_lost)
        del first  # hard kill: no shutdown snapshot

        second = AllocationDaemon.restore(tmp_path, fsync=False)
        assert second.store.to_snapshot() == expected
        assert (second.metrics.failures, second.metrics.replacements,
                second.metrics.vms_lost) == expected_metrics
        assert second.store.dead_servers() == {}
        # The restored daemon keeps serving.
        assert second.handle(place_request(make_vm(
            900, second.store.clock + 1,
            second.store.clock + 3)))["ok"] is True


class TestFaultInjector:
    class Recorder:
        def __init__(self):
            self.calls = []

        def fail_server(self, server_id, time=None):
            self.calls.append(("fail", server_id, time))
            return {"ok": True, "op": "fail_server"}

        def recover_server(self, server_id):
            self.calls.append(("recover", server_id))
            return {"ok": True, "op": "recover_server"}

        def dump_debug(self):
            self.calls.append(("dump_debug",))
            return {"ok": True, "op": "dump_debug", "records": []}

    def test_fires_in_position_order(self):
        target = self.Recorder()
        injector = FaultInjector([
            FaultEvent(after=5, kind="recover", server_id=1),
            FaultEvent(after=2, kind="fail", server_id=1, time=4),
        ], target)
        assert injector.fire_due(1) == []
        assert target.calls == []
        fired = injector.fire_due(3)
        assert len(fired) == 1
        assert target.calls == [("fail", 1, 4)]
        injector.fire_due(5)
        assert target.calls[-1] == ("recover", 1)
        assert injector.pending == ()

    def test_each_event_fires_exactly_once(self):
        target = self.Recorder()
        injector = FaultInjector(
            [FaultEvent(after=0, kind="fail", server_id=0)], target)
        injector.fire_due(0)
        injector.fire_due(0)
        injector.drain()
        assert target.calls == [("fail", 0, None)]

    def test_drain_fires_everything_left(self):
        target = self.Recorder()
        injector = FaultInjector([
            FaultEvent(after=3, kind="fail", server_id=0),
            FaultEvent(after=9, kind="recover", server_id=0),
        ], target)
        injector.drain()
        assert [c[0] for c in target.calls] == ["fail", "recover"]
        assert len(injector.responses) == 2

    def test_stall_sleeps_without_touching_the_daemon(self):
        target = self.Recorder()
        naps = []
        injector = FaultInjector(
            [FaultEvent(after=0, kind="stall", stall_ms=250.0)], target,
            sleep=naps.append)
        assert injector.fire_due(0) == []
        assert naps == [0.25]
        assert target.calls == []
        assert injector.responses == []

    def test_event_validation(self):
        with pytest.raises(ValidationError):
            FaultEvent(after=-1, kind="fail", server_id=0)
        with pytest.raises(ValidationError):
            FaultEvent(after=0, kind="meteor", server_id=0)
        with pytest.raises(ValidationError):
            FaultEvent(after=0, kind="fail")  # no server_id
        with pytest.raises(ValidationError):
            FaultEvent(after=0, kind="stall", stall_ms=-1.0)

    def test_dump_debug_event_pulls_the_flight_recorder(self):
        target = self.Recorder()
        injector = FaultInjector(
            [FaultEvent(after=0, kind="dump_debug")], target)
        fired = injector.fire_due(0)
        assert target.calls == [("dump_debug",)]
        assert fired[0]["op"] == "dump_debug"

    def test_drives_a_live_daemon(self):
        store = ClusterStateStore(Cluster.homogeneous(SPEC, 2))
        daemon = AllocationDaemon(store)
        injector = FaultInjector([
            FaultEvent(after=1, kind="fail", server_id=0, time=2),
            FaultEvent(after=2, kind="recover", server_id=0),
            FaultEvent(after=3, kind="dump_debug"),
        ], DictApiTarget(daemon))
        daemon.handle(place_request(make_vm(0, 1, 6, cpu=4.0)))
        injector.fire_due(1)
        assert store.is_failed(0)
        injector.fire_due(2)
        assert not store.is_failed(0)
        injector.fire_due(3)
        assert all(resp["ok"] for _, resp in injector.responses)
        # The mid-chaos debug pull sees the whole episode so far.
        dump = injector.responses[-1][1]
        ops = [record["op"] for record in dump["records"]]
        assert {"place", "fail_server", "recover_server"} <= set(ops)


class TestEndToEnd:
    def test_stream_with_failures_kill_restore_matches_offline(
            self, tmp_path):
        """The acceptance scenario: >= 200 VMs streamed, a hard daemon
        kill+restore mid-stream, >= 3 live server failures while more
        than half the fleet's VMs are still running, another hard
        kill+restore of the *post-failure* state, and final fleet
        energy identical (rel 1e-12) to the offline
        ``inject_failures`` replay of the same schedule."""
        # Long-lived VMs keep dozens of servers busy past the last
        # arrival, so the failures cut genuinely running load.
        vms = generate_vms(220, mean_interarrival=1.0,
                           mean_duration=40.0, seed=11)
        ordered = online_order(vms)
        store = ClusterStateStore(Cluster.paper_all_types(110))
        first = AllocationDaemon(store, data_dir=tmp_path,
                                 snapshot_every=40, fsync=False)
        # vm_id -> server as acknowledged: the daemons keep no log
        online = {}
        for vm in ordered[:120]:
            response = first.handle(place_request(vm))
            assert response["decision"] == "placed"
            online[vm.vm_id] = response["server_id"]
        del first  # hard kill mid-stream

        second = AllocationDaemon.restore(tmp_path, fsync=False)
        for vm in ordered[120:]:
            response = second.handle(place_request(vm))
            assert response["decision"] == "placed"
            online[vm.vm_id] = response["server_id"]

        # Build the failure schedule from what is actually running:
        # three distinct servers whose load outlives every failure
        # tick, processed in the offline (time, server_id) order.
        clock = second.store.clock
        by_server = {}
        for vm, sid in second.store.placements:
            by_server[sid] = max(by_server.get(sid, -1), vm.end)
        victims = [sid for sid, end in sorted(by_server.items())
                   if end >= clock + 3][:3]
        assert len(victims) == 3
        schedule = [ServerFailure(server_id=sid, time=clock + 1 + i)
                    for i, sid in enumerate(victims)]
        running = sum(1 for vm, _ in second.store.placements
                      if vm.end >= clock + 1)
        assert running >= 3  # the failures genuinely cut live VMs

        injector = FaultInjector(
            [FaultEvent(after=position, kind="fail",
                        server_id=failure.server_id, time=failure.time)
             for position, failure in enumerate(schedule)],
            DictApiTarget(second))
        fired = injector.drain()
        assert len(fired) == 3 and all(r["ok"] for r in fired)
        for failure in fired:   # heads stay, remainders move or are lost
            for r in failure["replacements"]:
                del online[r["vm_id"]]
                if r["head_id"] is not None:
                    online[r["head_id"]] = failure["server_id"]
                if r["server_id"] is not None:
                    online[r["remainder_id"]] = r["server_id"]
        replaced_total = sum(r["replaced"] for r in fired)
        assert any(r["killed"] for r in fired)

        # One atomic journal group per failure, carrying every
        # re-placement of its episode.
        entries = list(read_journal(tmp_path / "journal.jsonl"))
        groups = [e for e in entries if e["op"] == "fail_server"]
        assert [(g["server_id"], g["time"]) for g in groups] == \
            [(f.server_id, f.time) for f in schedule]
        assert sum(len(g["replacements"]) for g in groups) == \
            sum(len(r["replacements"]) for r in fired)
        del second  # hard kill again, now with failure state on disk

        third = AllocationDaemon.restore(tmp_path, fsync=False)
        assert third.store.dead_servers() == \
            {f.server_id: f.time for f in schedule}
        assert third.metrics.failures == 3
        assert third.metrics.replacements == replaced_total
        third.store.run_to_completion()

        alloc, _ = simulate_online(vms, Cluster.paper_all_types(110),
                                   MinIncrementalEnergy())
        outcome = inject_failures(alloc, schedule)
        assert third.store.energy_total() == pytest.approx(
            allocation_cost(outcome.allocation).total, rel=1e-12)
        offline = {vm.vm_id: sid
                   for vm, sid in outcome.allocation.items()}
        assert online == offline  # head/remainder split ids included
        assert third.store.energy_accumulated == pytest.approx(
            third.store.energy_total(), rel=1e-12)


#: The registry allocators a restore does not bring back to the decision
#: a daemon that never stopped makes next: replay applies recorded
#: decisions and draws nothing (``docs/service.md``). A new allocator is
#: expected to be restore-exact, or to be named here with its reason.
NOT_RESTORE_EXACT = {
    "random-fit": "draws its server from the allocator's RNG per decision",
    "ffps": "re-shuffles its scan order from the RNG at each fleet change",
}

#: ~10 VMs alive at once on 40 servers: every allocator spreads enough
#: that a rotation or a draw would show. Ids count down, so the ids a
#: failure mints (above every id placed) never meet a later request's.
RESTORE_VMS = [VM(vm_id=10_000 - i, spec=vm.spec, interval=vm.interval)
               for i, vm in enumerate(online_order(generate_vms(
                   120, mean_interarrival=1.0, mean_duration=10.0,
                   seed=7)))]


class TestARestoredDaemonDecidesLikeItsTwin:
    """Kill and restore twice — after a snapshot, then after a fail /
    recover that a later snapshot covers and a failure it does not —
    and the restored daemon decides every later VM like a twin that
    never stopped."""

    #: requests sent before the VM at that position
    EVENTS = {40: [fail_server_request(3)], 45: [recover_server_request(3)],
              55: [fail_server_request(11)]}
    #: kill + restore before the VM at these positions (snapshots every
    #: 25 placements: the first restore starts from the one at 25, the
    #: second from one written after the fail / recover, and replays the
    #: second failure)
    CRASHES = (30, 60)

    def _decisions(self, algorithm, data_dir, crashes=()):
        # the store books with the allocator's engine (gamma-ff's Γ), as
        # ``repro serve`` builds it
        daemon = AllocationDaemon(
            ClusterStateStore(Cluster.paper_all_types(40),
                              engine=make_allocator(
                                  algorithm).engine_config.spec),
            algorithm=algorithm, seed=7, data_dir=data_dir, fsync=False,
            snapshot_every=25)
        decided = []
        for i, vm in enumerate(RESTORE_VMS):
            if i in crashes:
                daemon.journal.close()  # kill -9: no shutdown snapshot
                daemon = AllocationDaemon.restore(data_dir, fsync=False)
            for request in self.EVENTS.get(i, ()):
                assert daemon.handle(request)["ok"]
            decided.append(daemon.handle(place_request(vm))["server_id"])
        daemon.journal.close()
        return decided

    @pytest.mark.parametrize("algorithm", allocator_names())
    def test_every_later_decision_is_the_twins(self, algorithm, tmp_path):
        twin = self._decisions(algorithm, tmp_path / "twin")
        restored = self._decisions(algorithm, tmp_path / "crashed",
                                   self.CRASHES)
        assert None not in twin
        if algorithm in NOT_RESTORE_EXACT:
            assert restored != twin  # else it is exact: drop it above
        else:
            assert restored == twin
