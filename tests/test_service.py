"""Tests for the online allocation service subsystem."""

from __future__ import annotations

import inspect
import json
import re
import urllib.request

import pytest

from repro.allocators import MinIncrementalEnergy
from repro.exceptions import ServiceError, ValidationError
from repro.model.cluster import Cluster
from repro.model.phases import DemandPhase, PhasedVM
from repro.model.server import ServerSpec
from repro.service import (
    OPS,
    AllocationDaemon,
    ClusterStateStore,
    AllocationClient,
    RequestJournal,
    SnapshotManager,
    parse_request,
    place_request,
    read_journal,
    replay_trace,
    serve_stdio,
    start_gateway,
)
from repro.simulation import simulate_online
from repro.workload.generator import generate_vms

from conftest import HistoryStore, make_vm, serving

SPEC = ServerSpec("s", cpu_capacity=10.0, memory_capacity=10.0,
                  p_idle=50.0, p_peak=100.0, transition_time=1.0)


def online_order(vms):
    """The paper's arrival order: start time, ties by end then id."""
    return sorted(vms, key=lambda v: (v.start, v.end, v.vm_id))


def stream(daemon, vms):
    for vm in online_order(vms):
        response = daemon.handle(place_request(vm))
        assert response["ok"], response
        yield response


class TestProtocol:
    def test_roundtrip_place(self):
        vm = make_vm(3, 2, 7, cpu=1.5)
        message = parse_request(json.dumps(place_request(vm)))
        assert message["_vm"] == vm
        assert message["_vm"].interval == vm.interval

    def test_rejects_bad_json(self):
        with pytest.raises(ServiceError):
            parse_request("{nope")

    @pytest.mark.parametrize("line", [
        ' {"op": "ping"}\r\n', '{"op": "ping"}', '\ufeff{"op": "ping"}\n',
        '{"op": "ping"} {}\n', '{"op": "ping"\n', '[]\n'])
    def test_a_line_reads_as_json_loads_reads_it(self, line):
        """One decoder for every line: what ``json.loads`` reads is
        read, and what it refuses (a BOM too) is refused in its words."""
        try:
            expected = json.loads(line)
        except json.JSONDecodeError as exc:
            with pytest.raises(ServiceError) as refused:
                parse_request(line)
            assert str(refused.value) == f"malformed request line: {exc}"
        else:
            if not isinstance(expected, dict):
                with pytest.raises(ServiceError, match="JSON object"):
                    parse_request(line)
            else:
                assert parse_request(line) == expected

    def test_rejects_unknown_op(self):
        with pytest.raises(ServiceError):
            parse_request('{"op": "frobnicate"}')

    def test_rejects_bad_vm_record(self):
        with pytest.raises(ServiceError):
            parse_request('{"op": "place", "vm": {"vm_id": 1}}')

    def test_rejects_future_protocol_version(self):
        with pytest.raises(ServiceError):
            parse_request('{"op": "ping", "v": 99}')

    def test_rejects_bad_tick(self):
        with pytest.raises(ServiceError):
            parse_request('{"op": "tick", "now": -1}')


class TestClusterStateStore:
    def test_commit_and_advance_power_states(self):
        store = ClusterStateStore(Cluster.homogeneous(SPEC, 2))
        vm = make_vm(0, 2, 4, cpu=5.0)
        store.commit(vm, 0)
        assert store.servers_active() == 0
        store.advance_to(2)
        assert store.servers_active() == 1
        assert store.fleet_power() == pytest.approx(75.0)  # 50 + 5 cu * 5
        store.advance_to(5)  # vm retired at end of tick 4
        assert store.servers_active() == 0
        assert store.running_vms() == 0

    def test_telemetry_series(self):
        store = ClusterStateStore(Cluster.homogeneous(SPEC, 1))
        store.commit(make_vm(0, 1, 2, cpu=10.0), 0)
        store.run_to_completion()
        telemetry = store.telemetry()
        assert list(telemetry.power) == [100.0, 100.0]
        assert list(telemetry.active_servers) == [1, 1]

    def test_adjacent_vms_bridge_without_sleeping(self):
        store = ClusterStateStore(Cluster.homogeneous(SPEC, 1))
        store.commit(make_vm(0, 1, 2), 0)
        store.commit(make_vm(1, 3, 4), 0)
        store.advance_to(3)
        assert store.machines[0].transitions == 1  # stayed awake at t=2->3

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP.md, 'The live fleet's energy has no oracle': the "
        "one-tick lookahead reads the next tick's starts before a VM "
        "committed at its own start tick is among them"))
    def test_adjacent_vms_committed_at_their_start_bridge_too(self):
        # The twin above commits both VMs ahead; the daemon advances the
        # clock to each VM's start before it commits it.
        store = ClusterStateStore(Cluster.homogeneous(SPEC, 1))
        for vm in (make_vm(0, 1, 3), make_vm(1, 4, 8)):
            store.advance_to(vm.start)
            store.commit(vm, 0)
        store.run_to_completion()
        machine = store.machines[0]
        assert store.energy_total() == 540.0
        # live: 640.0 — the server slept at t=3->4 and paid a second wake
        assert store.busy_energy + machine.transition_energy \
            == store.energy_total()
        assert machine.transitions == 1

    def test_clock_cannot_move_backwards(self):
        store = ClusterStateStore(Cluster.homogeneous(SPEC, 1))
        store.advance_to(5)
        with pytest.raises(ValidationError):
            store.advance_to(4)

    def test_energy_accumulated_matches_from_scratch(self):
        vms = generate_vms(40, mean_interarrival=2.0, seed=4)
        store = ClusterStateStore(Cluster.paper_all_types(20))
        allocator = MinIncrementalEnergy()
        allocator.prepare(store.states)
        for vm in online_order(vms):
            chosen = allocator.select(vm, store.states)
            store.commit(vm, chosen.server.server_id)
        assert store.energy_accumulated == pytest.approx(
            store.energy_total(), rel=1e-9)

    def test_snapshot_roundtrip_identity(self):
        vms = generate_vms(30, mean_interarrival=1.5, seed=2)
        store = ClusterStateStore(Cluster.paper_all_types(15))
        daemon = AllocationDaemon(store)
        for _ in stream(daemon, vms):
            pass
        document = json.loads(json.dumps(store.to_snapshot()))
        restored = ClusterStateStore.from_snapshot(document)
        assert restored.to_snapshot() == store.to_snapshot()
        assert restored.clock == store.clock
        assert restored.energy_accumulated == store.energy_accumulated
        for server_id, machine in store.machines.items():
            twin = restored.machines[server_id]
            # replay re-commits each placement at its recorded clock,
            # so even path statistics (transition counts) match
            assert twin.state is machine.state
            assert twin.resident_vms == machine.resident_vms
            assert twin.transitions == machine.transitions
            assert twin.transition_energy == machine.transition_energy

    def test_snapshot_save_load_file(self, tmp_path):
        store = ClusterStateStore(Cluster.homogeneous(SPEC, 2))
        store.commit(make_vm(0, 1, 3), 0)
        store.advance_to(2)
        manager = SnapshotManager(tmp_path)
        manager.save(store.snapshot_parts(), 1)
        restored = ClusterStateStore.from_snapshot(manager.load_latest())
        assert restored.to_snapshot() == store.to_snapshot()

    def test_rejects_unknown_snapshot_version(self):
        with pytest.raises(ValidationError):
            ClusterStateStore.from_snapshot({"format_version": 99})

    def test_snapshot_replays_out_of_order_arrival_identically(self):
        store = ClusterStateStore(Cluster.homogeneous(SPEC, 2))
        store.commit(make_vm(0, 1, 3), 0)
        store.advance_to(5)
        # late arrival: nominal start is in the past, so the live store
        # admits it at the current clock — replay must do the same, not
        # start it at tick 2
        store.commit(make_vm(1, 2, 8), 1)
        store.advance_to(6)
        restored = ClusterStateStore.from_snapshot(store.to_snapshot())
        assert restored.telemetry().power.tolist() == \
            store.telemetry().power.tolist()
        assert restored.telemetry().active_servers.tolist() == \
            store.telemetry().active_servers.tolist()

    def test_snapshot_replays_sleep_wake_cycle_identically(self):
        store = ClusterStateStore(Cluster.homogeneous(SPEC, 1))
        store.commit(make_vm(0, 1, 2), 0)
        store.advance_to(3)  # emptied at close of tick 2 -> slept
        # the arrival was unknown when the server slept, so the live
        # path pays a second wake; a replay that schedules all starts
        # up front would bridge the gap and undercount transitions
        store.commit(make_vm(1, 3, 5), 0)
        store.advance_to(4)
        assert store.machines[0].transitions == 2
        restored = ClusterStateStore.from_snapshot(store.to_snapshot())
        assert restored.machines[0].transitions == 2
        assert restored.machines[0].transition_energy == \
            store.machines[0].transition_energy

    @pytest.mark.parametrize("engine", ["indexed", "indexed:gamma=2"])
    def test_pieces_ending_at_tick_zero_end(self, engine):
        # Tick 0 is closed like any other, minus its sample: pieces that
        # end there leave the live server, so a later admission does not
        # meet a phantom overcommit.
        store = ClusterStateStore(Cluster.paper_all_types(4), engine=engine)
        daemon = AllocationDaemon(store)
        for vm in (make_vm(1, 0, 0), make_vm(2, 0, 0),
                   PhasedVM.from_phases(3, 0, [DemandPhase(1, 4.0, 1.0),
                                               DemandPhase(1, 2.0, 1.0)])):
            assert daemon.handle(place_request(vm))["ok"]
        assert daemon.handle({"op": "tick", "now": 1})["ok"]
        assert store.running_vms() == 1
        reply = daemon.handle(place_request(make_vm(4, 1, 1)))
        assert reply["ok"] and reply["decision"] == "placed", reply
        store.run_to_completion()
        assert store.running_vms() == 0 and store.servers_active() == 0
        assert len(store.telemetry().power) == 1  # tick 1; tick 0 unsampled
        restored = ClusterStateStore.from_snapshot(store.to_snapshot())
        assert restored.to_snapshot() == store.to_snapshot()



def edit_journal_init(data_dir, edit) -> None:
    """Rewrite the journal's ``init`` entry with ``edit(snapshot)``
    applied to the snapshot document it carries."""
    journal = data_dir / "journal.jsonl"
    lines = journal.read_text().splitlines()
    init = json.loads(lines[0])
    assert init["op"] == "init"
    edit(init["snapshot"])
    lines[0] = json.dumps(init, separators=(",", ":"))
    journal.write_text("\n".join(lines) + "\n")

class TestDaemon:
    def test_stream_matches_offline_simulation(self):
        vms = generate_vms(80, mean_interarrival=2.0, seed=5)
        store = HistoryStore(Cluster.paper_all_types(40))
        daemon = AllocationDaemon(store)
        responses = list(stream(daemon, vms))
        assert all(r["decision"] == "placed" for r in responses)
        store.run_to_completion()
        alloc, result = simulate_online(
            vms, Cluster.paper_all_types(40), MinIncrementalEnergy())
        assert store.energy_total() == pytest.approx(
            result.total_energy, rel=1e-12)
        offline = {vm.vm_id: sid for vm, sid in alloc.items()}
        online = {vm.vm_id: sid for vm, sid in store.history}
        assert online == offline

    def test_rejects_when_fleet_full(self):
        store = ClusterStateStore(Cluster.homogeneous(SPEC, 1))
        daemon = AllocationDaemon(store)
        placed = daemon.handle(place_request(make_vm(0, 1, 5, cpu=8.0)))
        assert placed["decision"] == "placed"
        overflow = daemon.handle(place_request(make_vm(1, 2, 4, cpu=8.0)))
        assert overflow["ok"] and overflow["decision"] == "rejected"
        assert daemon.metrics.requests["rejected"] == 1

    def test_queue_mode_delays_instead_of_rejecting(self):
        store = ClusterStateStore(Cluster.homogeneous(SPEC, 1))
        daemon = AllocationDaemon(store, max_delay=10)
        daemon.handle(place_request(make_vm(0, 1, 3, cpu=8.0)))
        response = daemon.handle(place_request(make_vm(1, 2, 4, cpu=8.0)))
        assert response["decision"] == "placed"
        assert response["delay"] == 2  # shifted past the blocker's end
        assert daemon.metrics.delayed == 1

    def test_domain_error_becomes_error_response(self):
        store = ClusterStateStore(Cluster.homogeneous(SPEC, 1))
        daemon = AllocationDaemon(store)
        daemon.handle({"op": "tick", "now": 9})
        response = daemon.handle({"op": "tick", "now": 9})  # no-op is ok
        assert response["ok"]
        bad = daemon.handle_line('{"op": "nope"}')
        payload = json.loads(bad)
        assert payload["ok"] is False
        assert "'nope'" in payload["error"]
        # Unknown ops answer with the structured self-describing shape
        # (same idea as supported_versions on a version mismatch).
        assert payload["supported_ops"] == list(OPS)
        assert daemon.metrics.errors == 1

    def test_direct_tick_with_bad_now_is_domain_error(self):
        """handle() must not raise even when the dict API bypasses
        parse_request with a missing or malformed 'now'."""
        store = ClusterStateStore(Cluster.homogeneous(SPEC, 1))
        daemon = AllocationDaemon(store)
        for message in ({"op": "tick"},
                        {"op": "tick", "now": "soon"},
                        {"op": "tick", "now": None},
                        {"op": "tick", "now": True},
                        {"op": "tick", "now": -1}):
            response = daemon.handle(message)
            assert response["ok"] is False
            assert "now" in response["error"]
        assert daemon.metrics.errors == 5
        assert store.clock == 0

    def test_duplicate_vm_id_is_refused(self):
        store = ClusterStateStore(Cluster.homogeneous(SPEC, 2))
        daemon = AllocationDaemon(store)
        assert daemon.handle(
            place_request(make_vm(5, 1, 3)))["decision"] == "placed"
        # same id again — even with identical spec/interval, which would
        # collide as a key in the Allocation view and undercount energy
        response = daemon.handle(place_request(make_vm(5, 1, 3)))
        assert response["ok"] is False
        assert "vm_id 5" in response["error"]
        assert len(store.placements) == 1
        assert store.energy_accumulated == pytest.approx(
            store.energy_total(), rel=1e-12)

    def test_kill_and_restore_matches_offline(self, tmp_path):
        """The acceptance scenario: >= 200 VMs streamed, a hard kill and
        restore mid-stream, and final energy identical to the offline
        simulate_online run (same tolerance as the engine tests)."""
        vms = generate_vms(220, mean_interarrival=2.0, seed=7)
        ordered = online_order(vms)
        store = ClusterStateStore(Cluster.paper_all_types(110))
        first = AllocationDaemon(store, data_dir=tmp_path,
                                 snapshot_every=40, fsync=False)
        online = {}
        for vm in ordered[:130]:
            response = first.handle(place_request(vm))
            assert response["decision"] == "placed"
            online[vm.vm_id] = response["server_id"]
        del first  # hard kill: no shutdown, no final snapshot

        second = AllocationDaemon.restore(tmp_path, fsync=False)
        assert second.metrics.requests["placed"] == 130
        assert second.store.placement_count() == 130
        for vm in ordered[130:]:
            response = second.handle(place_request(vm))
            assert response["decision"] == "placed"
            online[vm.vm_id] = response["server_id"]
        second.store.run_to_completion()

        alloc, result = simulate_online(
            vms, Cluster.paper_all_types(110), MinIncrementalEnergy())
        assert second.store.energy_total() == pytest.approx(
            result.total_energy, rel=1e-12)
        offline = {vm.vm_id: sid for vm, sid in alloc.items()}
        assert online == offline
        assert second.metrics.requests["rejected"] == 0

    def test_restore_drops_removed_scan_keys(self, tmp_path):
        """Durable state that still carries ``shards`` /
        ``scan_processes`` (config keys and engine-spec token) and a
        ``kernel`` engine-spec token loads,
        keeps placing exactly like an uninterrupted run, and the next
        snapshot no longer carries them."""
        vms = online_order(generate_vms(120, mean_interarrival=2.0,
                                        seed=13))

        def build(**kwargs):
            return AllocationDaemon(
                ClusterStateStore(Cluster.paper_all_types(60)),
                algorithm="first-fit", fsync=False,
                algo_params={"engine": "indexed"}, **kwargs)

        def trail(responses):
            return [(r["vm_id"], r["decision"], r.get("server_id"))
                    for r in responses]

        whole = build()
        expected = trail(stream(whole, vms))

        first = build(data_dir=tmp_path, snapshot_every=30)
        got = trail(stream(first, vms[:70]))
        del first  # hard kill: no shutdown, no final snapshot

        def stamp(document):
            spec = "indexed:kernel=on,shards=4"
            document["engine"] = spec
            config = document["meta"]["config"]
            config.update(shards=4, scan_processes=2)
            config["algo_params"]["engine"] = spec

        for path in tmp_path.glob("snapshot-*.json"):
            document = json.loads(path.read_text())
            stamp(document)
            path.write_text(json.dumps(document))
        edit_journal_init(tmp_path, stamp)

        second = AllocationDaemon.restore(tmp_path, fsync=False)
        got += trail(stream(second, vms[70:]))
        assert got == expected
        assert second.store.energy_total() == whole.store.energy_total()
        document = json.loads(second.write_snapshot().read_text())
        config = document["meta"]["config"]
        assert "shards" not in config and "scan_processes" not in config
        assert document["engine"] == "indexed"
        assert config["algo_params"]["engine"] == "indexed"

    def test_restore_takes_unrecorded_keys_from_the_signature(
            self, tmp_path):
        """A recorded config that lacks a key (a build that did not
        have it yet) restores with the constructor's own default — the
        value is written once, in the signature."""
        first = AllocationDaemon(
            ClusterStateStore(Cluster.homogeneous(SPEC, 2)),
            algorithm="first-fit", max_delay=3, snapshot_every=7,
            max_inflight=5, data_dir=tmp_path, fsync=False)
        first.handle(place_request(make_vm(0, 1, 5)))
        del first

        def forget(document):
            for key in ("snapshot_every", "max_inflight"):
                del document["meta"]["config"][key]

        edit_journal_init(tmp_path, forget)
        restored = AllocationDaemon.restore(tmp_path, fsync=False)
        defaults = inspect.signature(AllocationDaemon).parameters
        assert restored.config["snapshot_every"] == \
            defaults["snapshot_every"].default
        assert restored.config["max_inflight"] == \
            defaults["max_inflight"].default
        assert restored.config["algorithm"] == "first-fit"
        assert restored.config["max_delay"] == 3
        assert restored.store.placement_count() == 1

    def test_restore_preserves_counters_and_rejections(self, tmp_path):
        store = ClusterStateStore(Cluster.homogeneous(SPEC, 1))
        daemon = AllocationDaemon(store, data_dir=tmp_path, fsync=False)
        daemon.handle(place_request(make_vm(0, 1, 5, cpu=8.0)))
        daemon.handle(place_request(make_vm(1, 2, 4, cpu=8.0)))  # rejected
        restored = AllocationDaemon.restore(tmp_path, fsync=False)
        assert restored.metrics.requests == {"placed": 1, "rejected": 1}
        assert restored.store.clock == daemon.store.clock

    def test_fresh_daemon_refuses_existing_journal(self, tmp_path):
        store = ClusterStateStore(Cluster.homogeneous(SPEC, 1))
        AllocationDaemon(store, data_dir=tmp_path, fsync=False)
        with pytest.raises(ValidationError):
            AllocationDaemon(ClusterStateStore(
                Cluster.homogeneous(SPEC, 1)), data_dir=tmp_path,
                fsync=False)

    def test_shutdown_writes_final_snapshot(self, tmp_path):
        store = ClusterStateStore(Cluster.homogeneous(SPEC, 2))
        daemon = AllocationDaemon(store, data_dir=tmp_path,
                                  snapshot_every=0, fsync=False)
        daemon.handle(place_request(make_vm(0, 1, 3)))
        response = daemon.handle({"op": "shutdown"})
        assert response["ok"] and daemon.closed
        assert list(tmp_path.glob("snapshot-*.json"))
        refused = daemon.handle({"op": "ping"})
        assert not refused["ok"]


class TestPersistence:
    def test_torn_final_journal_line_is_dropped(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with RequestJournal(path, fsync=False) as journal:
            journal.append({"op": "tick", "now": 3})
        with path.open("a") as fh:
            fh.write('{"seq": 2, "op": "tick", "now"')  # torn write
        entries = list(read_journal(path))
        assert [e["seq"] for e in entries] == [1]
        # reopening continues after the surviving prefix
        assert RequestJournal(path, fsync=False).next_seq == 2

    def test_append_after_torn_line_stays_parseable(self, tmp_path):
        """Crash-restart-crash: reopening truncates the torn tail, so a
        new append starts on a fresh line instead of welding onto the
        partial one (which would lose the new entry and poison every
        later read)."""
        path = tmp_path / "journal.jsonl"
        with RequestJournal(path, fsync=False) as journal:
            journal.append({"op": "tick", "now": 3})
        with path.open("a") as fh:
            fh.write('{"seq": 2, "op": "tick", "now"')  # torn write
        with RequestJournal(path, fsync=False) as journal:
            assert journal.next_seq == 2
            journal.append({"op": "tick", "now": 5})
            journal.append({"op": "tick", "now": 7})
        entries = list(read_journal(path))
        assert [e["seq"] for e in entries] == [1, 2, 3]
        assert [e["now"] for e in entries] == [3, 5, 7]

    def test_unterminated_valid_final_line_is_torn(self, tmp_path):
        """An append is only durable once its newline lands: a final
        line that parses but lacks the terminator was never
        acknowledged, so read and reopen agree it never happened."""
        path = tmp_path / "journal.jsonl"
        with RequestJournal(path, fsync=False) as journal:
            journal.append({"op": "tick", "now": 3})
        with path.open("a") as fh:
            fh.write('{"seq": 2, "op": "tick", "now": 4}')  # no newline
        assert [e["seq"] for e in read_journal(path)] == [1]
        with RequestJournal(path, fsync=False) as journal:
            assert journal.next_seq == 2
            journal.append({"op": "tick", "now": 9})
        assert [e["now"] for e in read_journal(path)] == [3, 9]

    def test_corrupt_middle_line_raises(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text('{"seq": 1, "op": "tick", "now": 1}\n'
                        'garbage\n'
                        '{"seq": 3, "op": "tick", "now": 3}\n')
        with pytest.raises(ValidationError):
            list(read_journal(path))

    def test_snapshot_rotation_keeps_newest(self, tmp_path):
        manager = SnapshotManager(tmp_path, keep=2)
        for seq in (1, 2, 3):
            manager.save([json.dumps({"format_version": 1,
                                      "seq": seq}).encode()], seq)
        remaining = sorted(p.name for p in
                           tmp_path.glob("snapshot-*.json"))
        assert len(remaining) == 2
        assert manager.load_latest()["seq"] == 3

    def test_prune_removes_a_crashed_saves_tmp(self, tmp_path):
        manager = SnapshotManager(tmp_path)
        # A crash between the write and the rename of snapshot 1.
        stale = manager.path_for(1).with_suffix(".json.tmp")
        stale.write_text('{"format_version": 1, "pla')
        assert manager.load_latest() is None
        manager.save([json.dumps({"seq": 2}).encode()], 2)
        assert not stale.exists()
        assert manager.load_latest()["seq"] == 2

    def test_corrupt_latest_snapshot_falls_back(self, tmp_path):
        manager = SnapshotManager(tmp_path)
        manager.save([json.dumps({"marker": "good"}).encode()], 1)
        manager.path_for(2).write_text("{broken")
        assert manager.load_latest()["marker"] == "good"


_PROM_COMMENT = re.compile(r"^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .+$")
_PROM_SAMPLE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\"(,"
    r"[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\")*\})? "
    r"[-+]?([0-9]*\.?[0-9]+([eE][-+]?[0-9]+)?|[0-9]+)$")


class TestEndToEndTCP:
    def test_client_server_and_metrics_endpoint(self):
        vms = generate_vms(60, mean_interarrival=2.0, seed=3)
        store = ClusterStateStore(Cluster.paper_all_types(30))
        daemon = AllocationDaemon(store)
        gateway = start_gateway(daemon)
        http_port = gateway.server_address[1]
        try:
            with serving(daemon) as (host, port), \
                    AllocationClient(host, port) as client:
                assert client.ping()["ok"]
                summary = replay_trace(client, vms)
                assert summary.placed == 60
                assert summary.rejected == 0
                assert summary.energy_delta_total == pytest.approx(
                    store.energy_total(), rel=1e-9)
                body = urllib.request.urlopen(
                    f"http://127.0.0.1:{http_port}/metrics",
                    timeout=10).read().decode()
                for line in body.strip().splitlines():
                    assert _PROM_COMMENT.match(line) or \
                        _PROM_SAMPLE.match(line), line
                assert 'repro_requests_total{decision="placed"} 60' in body
                assert "repro_placement_latency_seconds" in body
                assert "repro_fleet_power_watts" in body
                health = urllib.request.urlopen(
                    f"http://127.0.0.1:{http_port}/healthz",
                    timeout=10).read()
                assert health == b"ok\n"
                # the metrics op serves the same exposition as HTTP
                exposition = client.metrics()
                assert 'repro_requests_total{decision="placed"} 60' \
                    in exposition
                assert "repro_placement_duration_seconds_bucket" \
                    in exposition
                assert client.shutdown()["ok"]
        finally:
            gateway.shutdown()
            gateway.server_close()

    def test_malformed_line_gets_error_response(self):
        store = ClusterStateStore(Cluster.homogeneous(SPEC, 1))
        daemon = AllocationDaemon(store)
        with serving(daemon) as (host, port), \
                AllocationClient(host, port) as client:
            response = client._request({"op": "place"})  # missing vm
            assert response["ok"] is False
            assert "vm" in response["error"]


class TestStdioTransport:
    def test_serve_stdio_round_trip(self):
        import io

        vm = make_vm(0, 1, 3)
        lines = (json.dumps(place_request(vm)) + "\n"
                 + '{"op": "stats"}\n'
                 + '{"op": "shutdown"}\n'
                 + '{"op": "ping"}\n')  # after shutdown: never served
        out = io.StringIO()
        store = ClusterStateStore(Cluster.homogeneous(SPEC, 1))
        daemon = AllocationDaemon(store)
        serve_stdio(daemon, io.StringIO(lines), out)
        responses = [json.loads(line) for line in
                     out.getvalue().splitlines()]
        assert len(responses) == 3  # the loop stopped at shutdown
        assert responses[0]["decision"] == "placed"
        assert responses[1]["placed"] == 1
        assert responses[2]["op"] == "shutdown"


class TestExplainProtocol:
    def test_place_with_explain_returns_candidate_breakdown(self):
        from repro.obs import PlacementExplanation

        store = ClusterStateStore(Cluster.homogeneous(SPEC, 2))
        daemon = AllocationDaemon(store)
        response = daemon.handle(
            place_request(make_vm(0, 1, 5, cpu=2.0), explain=True))
        assert response["ok"] and response["decision"] == "placed"
        explanation = PlacementExplanation.from_record(
            response["explanation"])
        assert explanation.vm_id == 0
        assert explanation.decision == "placed"
        assert explanation.server_id == response["server_id"]
        assert len(explanation.candidates) == 2
        assert explanation.chosen is not None

    def test_rejected_place_explains_every_candidate(self):
        from repro.obs import PlacementExplanation

        store = ClusterStateStore(Cluster.homogeneous(SPEC, 2))
        daemon = AllocationDaemon(store)
        response = daemon.handle(
            place_request(make_vm(0, 1, 5, cpu=99.0), explain=True))
        assert response["ok"] and response["decision"] == "rejected"
        explanation = PlacementExplanation.from_record(
            response["explanation"])
        assert explanation.decision == "rejected"
        assert explanation.feasible_count == 0
        assert all(v.reason == "cpu:capacity"
                   for v in explanation.candidates)

    def test_explain_response_is_json_round_trippable(self):
        store = ClusterStateStore(Cluster.homogeneous(SPEC, 1))
        daemon = AllocationDaemon(store)
        response = daemon.handle(
            place_request(make_vm(0, 1, 3), explain=True))
        assert json.loads(json.dumps(response)) == response

    def test_plain_place_has_no_explanation(self):
        store = ClusterStateStore(Cluster.homogeneous(SPEC, 1))
        daemon = AllocationDaemon(store)
        response = daemon.handle(place_request(make_vm(0, 1, 3)))
        assert "explanation" not in response

    def test_non_boolean_explain_is_rejected(self):
        vm_record = place_request(make_vm(0, 1, 3))["vm"]
        with pytest.raises(ServiceError):
            parse_request(json.dumps(
                {"op": "place", "vm": vm_record, "explain": "yes"}))

    def test_explained_delay_rides_along(self):
        store = ClusterStateStore(Cluster.homogeneous(SPEC, 1))
        daemon = AllocationDaemon(store, max_delay=5)
        first = daemon.handle(place_request(make_vm(0, 1, 4, cpu=8.0)))
        assert first["decision"] == "placed"
        response = daemon.handle(
            place_request(make_vm(1, 2, 4, cpu=8.0), explain=True))
        assert response["decision"] == "placed"
        assert response["delay"] == 3
        assert response["explanation"]["delay"] == 3

    def test_decision_counters_follow_the_stream(self):
        store = ClusterStateStore(Cluster.homogeneous(SPEC, 1))
        daemon = AllocationDaemon(store)
        daemon.handle(place_request(make_vm(0, 1, 5, cpu=8.0)))
        daemon.handle(place_request(make_vm(1, 2, 4, cpu=8.0)))
        key = str(daemon.config["algorithm"])
        assert daemon.metrics.decisions[(key, "placed")] == 1
        assert daemon.metrics.decisions[(key, "rejected")] == 1
        assert daemon.metrics.latency_hist.count == 2
        assert daemon.metrics.candidates.count == 2

    def test_request_spans_recorded_when_tracing(self):
        from repro.obs import Tracer, use_tracer

        store = ClusterStateStore(Cluster.homogeneous(SPEC, 1))
        daemon = AllocationDaemon(store)
        tracer = Tracer()
        with use_tracer(tracer):
            daemon.handle_line(json.dumps(place_request(make_vm(0, 1, 3))))
        names = {e.name for e in tracer.events}
        assert {"service.request", "service.ingest", "service.place",
                "service.allocate", "service.commit",
                "service.respond"} <= names
