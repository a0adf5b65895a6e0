"""Protocol v2: ``place_batch``, version negotiation, backpressure.

The daemon's batch path must be *exactly* the single-``place`` path
with fewer round trips: the same placements, the same Eq.-17 energy,
one journal group per batch (so a crash never replays half of one),
and whole-batch validation before any state changes. Version
negotiation keeps v1 clients working unchanged while rejecting unknown
versions with a structured error.
"""

from __future__ import annotations

import inspect
import json

import pytest

from repro.allocators.base import Allocator
from repro.exceptions import ProtocolVersionError, ServiceError
from repro.model.cluster import Cluster
from repro.model.server import ServerSpec
from repro.obs import Tracer, use_tracer
from repro.service import (
    SUPPORTED_VERSIONS,
    AllocationDaemon,
    ClusterStateStore,
    AllocationClient,
    negotiate_version,
    place_batch_request,
    place_request,
    replay_trace,
)
from repro.service import daemon as daemon_module
from repro.service.metrics import ServiceMetrics
from repro.service.persistence import read_journal
from repro.service.protocol import encode, parse_request
from repro.simulation.admission import AdmissionController
from repro.workload.generator import generate_vms

from conftest import make_vm, serving

SPEC = ServerSpec("s", cpu_capacity=10.0, memory_capacity=10.0,
                  p_idle=50.0, p_peak=100.0, transition_time=1.0)


def fresh_daemon(servers=30, **kwargs):
    store = ClusterStateStore(Cluster.paper_all_types(servers))
    return AllocationDaemon(store, **kwargs)


class TestVersionNegotiation:
    def test_missing_v_means_version_1(self):
        assert negotiate_version({"op": "ping"}) == 1

    def test_supported_versions_accepted(self):
        for version in SUPPORTED_VERSIONS:
            assert negotiate_version({"v": version}) == version

    @pytest.mark.parametrize("bad", [4, 0, -1, "2", 2.0, True, None, []])
    def test_unsupported_or_malformed_rejected(self, bad):
        with pytest.raises(ProtocolVersionError) as excinfo:
            negotiate_version({"v": bad})
        assert excinfo.value.supported == SUPPORTED_VERSIONS

    def test_v1_request_gets_no_version_echo(self):
        daemon = fresh_daemon()
        response = daemon.handle({"op": "ping"})
        assert response["ok"] and "v" not in response

    def test_versioned_request_echoes_v(self):
        daemon = fresh_daemon()
        for version in SUPPORTED_VERSIONS:
            response = daemon.handle({"op": "ping", "v": version})
            assert response["ok"] and response["v"] == version

    def test_unknown_version_gets_structured_error(self):
        daemon = fresh_daemon()
        response = json.loads(
            daemon.handle_line(encode({"op": "ping", "v": 99})))
        assert response["ok"] is False
        assert response["supported_versions"] == list(SUPPORTED_VERSIONS)
        # v >= 3 requests read the typed envelope
        assert response["error"]["code"] == "unsupported_version"
        assert "99" in response["error"]["message"]

    def test_malformed_version_gets_structured_error(self):
        daemon = fresh_daemon()
        response = json.loads(
            daemon.handle_line(encode({"op": "ping", "v": "two"})))
        assert response["ok"] is False
        assert response["supported_versions"] == list(SUPPORTED_VERSIONS)

    def test_place_batch_requires_v2(self):
        with pytest.raises(ServiceError, match="version 2"):
            parse_request(encode({"op": "place_batch", "vms": []}))
        with pytest.raises(ServiceError, match="version 2"):
            parse_request(
                encode({"op": "place_batch", "v": 1, "vms": []}))


def journaled_decisions(daemon) -> list[dict]:
    """The per-VM decision records of ``daemon``'s journal, in order."""
    daemon.journal.close()
    records = []
    for entry in read_journal(daemon.journal.path):
        if entry["op"] == "place":
            records.append({key: entry[key] for key in
                            ("vm", "decision", "server_id", "delay")
                            if key in entry})
        elif entry["op"] == "place_batch":
            records.extend(entry["decisions"])
    return records


class TestPlaceBatch:
    def test_batch_matches_individual_places_bit_exact(self, tmp_path):
        # A 4-server fleet rejects some of the stream; with a queue of
        # two ticks it delays some too. A batch is the same places.
        vms = generate_vms(80, mean_interarrival=0.5, seed=9)
        for max_delay in (0, 2):
            one = fresh_daemon(4, max_delay=max_delay, fsync=False,
                               data_dir=tmp_path / f"one-{max_delay}")
            singles = [one.handle(place_request(vm)) for vm in sorted(
                vms, key=lambda v: (v.start, v.end, v.vm_id))]
            batched = fresh_daemon(4, max_delay=max_delay, fsync=False,
                                   data_dir=tmp_path / f"batch-{max_delay}")
            response = batched.handle(place_batch_request(vms))
            assert response["ok"] and response["count"] == 80
            assert 0 < response["rejected"] < 80
            assert any(item["delay"] for item in response["decisions"]) \
                == bool(max_delay)
            assert dict(batched.store.placements) == \
                dict(one.store.placements)
            assert batched.store.energy_accumulated == \
                one.store.energy_accumulated  # bit-identical
            total = 0.0
            for single in singles:  # decision order, as the batch sums
                total += single.get("energy_delta", 0.0)
            assert response["energy_delta"] == total
            assert journaled_decisions(batched) == journaled_decisions(one)

    def test_an_in_memory_place_builds_no_journal_record(
            self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(daemon_module, "vm_to_record",
                            lambda vm: calls.append(vm) or {})
        vms = generate_vms(20, mean_interarrival=2.0, seed=5)
        in_memory = fresh_daemon(5)
        for vm in vms:
            assert in_memory.handle(place_request(vm))["ok"]
        assert in_memory.handle(place_batch_request(
            [make_vm(100 + i, 50, 60) for i in range(3)]))["ok"]
        assert calls == []
        durable = fresh_daemon(5, data_dir=tmp_path, fsync=False)
        for vm in vms:
            assert durable.handle(place_request(vm))["ok"]
        assert calls == vms     # one record per journaled place

    def test_a_traced_batch_books_each_decisions_stages(self):
        store = ClusterStateStore(Cluster.homogeneous(SPEC, 1))
        daemon = AllocationDaemon(store)
        vms = [make_vm(i, 1 + i, 10, cpu=4.0) for i in range(4)]
        tracer = Tracer()
        with use_tracer(tracer):
            response = daemon.handle(place_batch_request(vms))
        assert (response["placed"], response["rejected"]) == (2, 2)
        names = [span.name for span in tracer.spans()]
        assert names.count("service.advance") == 4   # starts 1, 2, 3, 4
        assert names.count("service.allocate") == 4
        commits = tracer.spans("service.commit")
        assert [span.args["server_id"] for span in commits] == [0, 0]
        [batch] = tracer.spans("service.place_batch")
        for name in ("service.advance", "service.allocate",
                     "service.commit"):
            for span in tracer.spans(name):
                assert batch.ts_ns <= span.ts_ns
                assert span.ts_ns + span.dur_ns <= \
                    batch.ts_ns + batch.dur_ns

    def test_decisions_come_back_in_request_order(self):
        daemon = fresh_daemon()
        vms = list(reversed(generate_vms(20, mean_interarrival=2.0,
                                         seed=1)))
        response = daemon.handle(place_batch_request(vms))
        assert [item["vm_id"] for item in response["decisions"]] == \
            [vm.vm_id for vm in vms]
        for item in response["decisions"]:
            assert item["decision"] in ("placed", "rejected")

    def test_empty_batch_is_ok_and_not_journaled(self, tmp_path):
        daemon = fresh_daemon(5, data_dir=tmp_path, fsync=False)
        before = daemon.journal.next_seq
        response = daemon.handle(place_batch_request([]))
        assert response["ok"] and response["count"] == 0
        assert daemon.journal.next_seq == before

    def test_duplicate_inside_batch_rejects_whole_batch(self):
        daemon = fresh_daemon(5)
        vms = [make_vm(1, 0, 5), make_vm(1, 2, 6)]
        response = daemon.handle(place_batch_request(vms))
        assert response["ok"] is False
        assert "vm_id 1" in response["error"]["message"]
        assert len(daemon.store.placements) == 0  # nothing committed

    def test_duplicate_against_committed_rejects_whole_batch(self):
        daemon = fresh_daemon(5)
        assert daemon.handle(
            place_request(make_vm(7, 0, 4)))["decision"] == "placed"
        response = daemon.handle(
            place_batch_request([make_vm(8, 0, 4), make_vm(7, 5, 9)]))
        assert response["ok"] is False
        assert "vm_id 7" in response["error"]["message"]
        assert len(daemon.store.placements) == 1  # vm8 was not committed

    def test_rejections_are_counted_not_fatal(self):
        store = ClusterStateStore(Cluster.homogeneous(SPEC, 1))
        daemon = AllocationDaemon(store)
        vms = [make_vm(i, 0, 10, cpu=6.0) for i in range(3)]
        response = daemon.handle(place_batch_request(vms))
        assert response["ok"]
        assert response["placed"] == 1 and response["rejected"] == 2
        rejected = [item for item in response["decisions"]
                    if item["decision"] == "rejected"]
        assert all(item["server_id"] is None for item in rejected)

    def test_batch_size_histogram_observed(self):
        daemon = fresh_daemon()
        vms = generate_vms(12, mean_interarrival=2.0, seed=2)
        daemon.handle(place_batch_request(vms))
        assert daemon.metrics.batch_size.count == 1
        assert daemon.metrics.batch_size.sum == 12.0


class TestADecisionIsMadeInOneLoop:
    """``place`` is a ``place_batch`` of one, one recorder counts every
    decision, and the offline twin is one walk as well."""

    def test_the_daemon_offers_from_one_loop(self):
        source = inspect.getsource(daemon_module)
        assert source.count("offer(") == 1
        assert "offer(" in inspect.getsource(AllocationDaemon._decide)
        assert not hasattr(AllocationDaemon, "_offer")
        for handler in (AllocationDaemon._handle_place,
                        AllocationDaemon._handle_place_batch):
            assert "self._decide(" in inspect.getsource(handler)

    def test_one_recorder_counts_every_decision(self):
        for gone in ("observe_items", "count_decisions"):
            assert not hasattr(ServiceMetrics, gone)
        # a live decision (the loop) and a replayed one
        assert inspect.getsource(daemon_module).count(
            "observe_request(") == 2
        assert "observe_request(" in inspect.getsource(
            AllocationDaemon._decide)

    def test_the_offline_twin_selects_from_one_loop(self):
        # the walk decides each VM by the daemon's per-VM rule, ``offer``
        walk = inspect.getsource(Allocator._walk)
        assert walk.count("offer(") == 1 and "select(" not in walk
        for method in (Allocator.allocate, Allocator.allocate_batch,
                       AdmissionController.run):
            source = inspect.getsource(method)
            assert "select(" not in source and "offer(" not in source
            assert "._walk(" in source


class TestBatchDurability:
    def test_batch_is_one_journal_group(self, tmp_path):
        daemon = fresh_daemon(20, data_dir=tmp_path, fsync=False)
        vms = generate_vms(15, mean_interarrival=2.0, seed=4)
        before = daemon.journal.next_seq
        daemon.handle(place_batch_request(vms))
        assert daemon.journal.next_seq == before + 1  # one entry, 15 VMs

    def test_kill_and_restore_replays_batches_bit_exact(self, tmp_path):
        vms = generate_vms(90, mean_interarrival=1.5, seed=6)
        daemon = fresh_daemon(45, data_dir=tmp_path, fsync=False,
                              snapshot_every=0)
        daemon.handle(place_batch_request(vms[:40]))
        daemon.handle(place_batch_request(vms[40:70]))
        placements = dict(daemon.store.placements)
        energy = daemon.store.energy_accumulated
        requests = dict(daemon.metrics.requests)
        del daemon  # hard kill: no shutdown, no final snapshot

        restored = AllocationDaemon.restore(tmp_path, fsync=False)
        assert dict(restored.store.placements) == placements
        assert restored.store.energy_accumulated == energy
        assert restored.metrics.requests == requests
        # the restored daemon keeps serving batches
        response = restored.handle(place_batch_request(vms[70:]))
        assert response["ok"] and response["count"] == 20


class TestBackpressure:
    def test_overloaded_response_when_window_full(self):
        daemon = fresh_daemon(5, max_inflight=1)
        daemon._inflight = 1  # fill the window
        try:
            response = daemon.handle(
                place_request(make_vm(0, 0, 5)))
            assert response["ok"] is False
            assert response["error"] == "overloaded"
            assert 0.01 <= response["retry_after"] <= 5.0
            assert daemon.metrics.overloaded == 1
            assert len(daemon.store.placements) == 0
            # read-only ops are never shed
            assert daemon.handle({"op": "ping"})["ok"]
            assert daemon.handle({"op": "stats"})["ok"]
        finally:
            daemon._inflight = 0
        # window drained: the same request now succeeds
        assert daemon.handle(
            place_request(make_vm(0, 0, 5)))["decision"] == "placed"

    def test_zero_disables_the_bound(self):
        daemon = fresh_daemon(5, max_inflight=0)
        daemon._inflight = 1000  # however many are in flight
        assert daemon.handle(place_request(make_vm(0, 0, 5)))["ok"]

    def test_overload_counter_rendered(self):
        daemon = fresh_daemon(5)
        exposition = daemon.metrics.render(daemon.store)
        assert "repro_requests_overloaded_total 0" in exposition


class StubClient:
    """Answers like a daemon that spends 2 ms on every VM, whether it
    came alone or in a batch."""

    def __init__(self):
        self.ticks = []

    def decision(self, vm):
        return {"vm_id": vm.vm_id, "decision": "placed", "server_id": 0,
                "delay": vm.vm_id % 2, "energy_delta": 1.5}

    def place(self, vm):
        return {"ok": True, "op": "place", **self.decision(vm),
                "latency_ms": 2.0}

    def place_batch(self, vms):
        return {"ok": True, "op": "place_batch",
                "decisions": [self.decision(vm) for vm in vms],
                "latency_ms": 2.0 * len(vms)}

    def tick(self, now):
        self.ticks.append(now)
        return {"ok": True}


class TestReplaySummary:
    def test_the_mean_latency_is_per_offered_vm_in_both_modes(self):
        vms = generate_vms(25, mean_interarrival=2.0, seed=7)
        summaries = {batch: replay_trace(StubClient(), vms, batch=batch)
                     for batch in (None, 1, 10, 25, 100)}
        for summary in summaries.values():
            assert summary.mean_latency_ms == pytest.approx(2.0)
            assert (summary.offered, summary.placed, summary.rejected) \
                == (25, 25, 0)
            assert summary.delayed == sum(vm.vm_id % 2 for vm in vms)
            assert summary.energy_delta_total == pytest.approx(25 * 1.5)

    def test_a_refused_request_names_its_op_and_first_vm(self):
        client = StubClient()
        client.place_batch = lambda vms: {"ok": False, "error": "nope"}
        vms = generate_vms(5, mean_interarrival=2.0, seed=7)
        with pytest.raises(ServiceError, match="place_batch request for "
                           r"vm\d+ \(offset 0\): nope"):
            replay_trace(client, vms, batch=3)
        assert client.ticks == []


class TestBatchOverTCP:
    def test_batch_replay_end_to_end(self):
        vms = generate_vms(100, mean_interarrival=2.0, seed=12)
        batched = fresh_daemon(50)
        sequential = fresh_daemon(50)
        with serving(batched) as (host, port), \
                AllocationClient(host, port) as client:
            summary = replay_trace(client, vms, batch=30)
            assert summary.offered == 100
            assert summary.placed + summary.rejected == 100
        for vm in sorted(vms, key=lambda v: (v.start, v.end, v.vm_id)):
            sequential.handle(place_request(vm))
        sequential.handle({"op": "tick",
                           "now": batched.store.clock})
        assert dict(batched.store.placements) == \
            dict(sequential.store.placements)
        assert batched.store.energy_accumulated == \
            sequential.store.energy_accumulated

    def test_batch_and_v_echo_over_the_wire(self):
        daemon = fresh_daemon(10)
        with serving(daemon) as (host, port), \
                AllocationClient(host, port) as client:
            vms = generate_vms(8, mean_interarrival=2.0, seed=3)
            response = client.place_batch(vms)
            assert response["ok"] and response["v"] == 3
            bad = client._request({"op": "ping", "v": 99})
            assert bad["ok"] is False
            assert bad["supported_versions"] == \
                list(SUPPORTED_VERSIONS)
            # the connection survives the version error
            assert client.ping()["ok"]
