"""The correlated-observability layer of the allocation service: trace
propagation client → daemon → journal → log, span emission per protocol
op, the ``telemetry`` / ``dump_debug`` ops, health endpoints during
restore, the automatic flight dump, and Prometheus conformance of the
``repro_slo_*`` and build-info families."""

from __future__ import annotations

import json
import re
import urllib.error
import urllib.request

import pytest

from repro.model.cluster import Cluster
from repro.model.server import ServerSpec
from repro.obs import JsonLogger, Tracer, use_logger, use_tracer
from repro.obs.tracer import SPAN
from repro.service import (
    AllocationClient,
    AllocationDaemon,
    ClusterStateStore,
    consolidate_request,
    dump_debug_request,
    fail_server_request,
    place_batch_request,
    place_request,
    read_journal,
    recover_server_request,
    start_gateway,
    telemetry_request,
)
from repro.workload.generator import generate_vms

from conftest import make_vm, serving
from test_service_metrics import conformant_families

SPEC = ServerSpec("s", cpu_capacity=10.0, memory_capacity=10.0,
                  p_idle=50.0, p_peak=100.0, transition_time=1.0)

HEX_TRACE = re.compile(r"[0-9a-f]{16}")


def make_daemon(n_servers=4, **kwargs):
    store = ClusterStateStore(Cluster.homogeneous(SPEC, n_servers))
    return AllocationDaemon(store, **kwargs)


def request_spans(tracer):
    return [e for e in tracer.events
            if e.kind == SPAN and e.name == "service.request"]


class TestSpanEmission:
    """Every protocol op yields a ``service.request`` span tree carrying
    the op name and the request's trace id."""

    def handle_traced(self, daemon, request):
        request = dict(request, trace_id="feedc0de" * 2,
                       request_id="cafe0001")
        tracer = Tracer()
        with use_tracer(tracer):
            response = daemon.handle(request)
        assert response["ok"], response
        return response, tracer

    def assert_span(self, tracer, op):
        spans = request_spans(tracer)
        assert len(spans) == 1
        span = spans[0]
        assert span.args["op"] == op
        assert span.args["trace_id"] == "feedc0de" * 2
        assert span.args["request_id"] == "cafe0001"
        assert span.args["ok"] is True
        return span

    def test_place_span(self):
        daemon = make_daemon()
        _, tracer = self.handle_traced(daemon,
                                       place_request(make_vm(0, 1, 4)))
        self.assert_span(tracer, "place")
        names = {e.name for e in tracer.events}
        assert {"service.place", "service.allocate",
                "service.commit"} <= names

    def test_place_batch_span(self):
        daemon = make_daemon()
        _, tracer = self.handle_traced(
            daemon, place_batch_request([make_vm(0, 1, 4),
                                         make_vm(1, 2, 5)]))
        self.assert_span(tracer, "place_batch")

    def test_fail_server_span(self):
        daemon = make_daemon()
        daemon.handle(place_request(make_vm(0, 1, 6)))
        _, tracer = self.handle_traced(daemon, fail_server_request(0, 2))
        self.assert_span(tracer, "fail_server")

    def test_recover_server_span(self):
        daemon = make_daemon()
        daemon.handle(fail_server_request(0, 1))
        _, tracer = self.handle_traced(daemon, recover_server_request(0))
        self.assert_span(tracer, "recover_server")

    def test_consolidate_span(self):
        daemon = make_daemon()
        daemon.handle(place_request(make_vm(0, 1, 9)))
        _, tracer = self.handle_traced(daemon, consolidate_request(3))
        span = self.assert_span(tracer, "consolidate")
        assert span.args["trace_id"] == "feedc0de" * 2

    def test_consolidate_span_tells_residents_from_history(self):
        """An episode's cost follows ``residents`` (what the planner
        was shown), not ``placements`` (how long the log has grown)."""
        daemon = make_daemon()
        for i in range(6):      # five retire before the episode
            daemon.handle(place_request(make_vm(i, 1 + i, 2 + i)))
        _, tracer = self.handle_traced(daemon, consolidate_request(7))
        [episode] = [e for e in tracer.events
                     if e.name == "service.consolidate"]
        assert (episode.args["residents"],
                episode.args["placements"]) == (1, 6)

    def test_failed_request_span_carries_ok_false(self):
        daemon = make_daemon(n_servers=1)
        daemon.handle(place_request(make_vm(0, 1, 5, cpu=8.0)))
        tracer = Tracer()
        with use_tracer(tracer):
            response = daemon.handle(dict(
                place_request(make_vm(0, 2, 4)),  # duplicate id
                trace_id="feedc0de" * 2))
        assert not response["ok"]
        assert request_spans(tracer)[0].args["ok"] is False


class TestTraceEnvelope:
    def test_idless_v1_response_stays_bare(self):
        """An id-less v1 client keeps byte-identical replies: the
        daemon mints ids internally but never adds fields to the
        response."""
        daemon = make_daemon()
        response = daemon.handle({"op": "ping"})
        assert "trace_id" not in response
        assert "request_id" not in response

    def test_carried_ids_are_echoed(self):
        daemon = make_daemon()
        response = daemon.handle({"op": "ping", "trace_id": "abc",
                                  "request_id": "def"})
        assert response["trace_id"] == "abc"
        assert response["request_id"] == "def"

    def test_malformed_id_is_an_error_response(self):
        daemon = make_daemon()
        response = daemon.handle({"op": "ping", "trace_id": ""})
        assert response["ok"] is False
        assert "trace_id" in response["error"]

    def test_daemon_side_minting_reaches_journal(self, tmp_path):
        daemon = make_daemon(data_dir=tmp_path, fsync=False)
        assert daemon.handle(place_request(make_vm(0, 1, 4)))["ok"]
        entries = [e for e in read_journal(tmp_path / "journal.jsonl")
                   if e.get("op") == "place"]
        assert HEX_TRACE.fullmatch(entries[0]["trace_id"])

    def test_client_stamps_ids_before_sending(self):
        sent = []

        class _Conn:
            def makefile(self, mode, encoding=None):
                if "w" in mode:
                    class _W:
                        def write(self, data):
                            sent.append(data)

                        def flush(self):
                            pass

                        def close(self):
                            pass
                    return _W()

                class _R:
                    def readline(self):
                        return json.dumps({"ok": True}) + "\n"

                    def close(self):
                        pass
                return _R()

            def close(self):
                pass

        client = AllocationClient(connect=lambda: _Conn())
        client.ping()
        message = json.loads(sent[0])
        assert HEX_TRACE.fullmatch(message["trace_id"])
        assert re.fullmatch(r"[0-9a-f]{8}", message["request_id"])

    def test_explicit_trace_id_rides_place_and_batch(self):
        daemon = make_daemon()
        with AllocationClientOverDaemon(daemon) as client:
            response = client.place(make_vm(0, 1, 4), trace_id="t-123")
            assert response["trace_id"] == "t-123"
            response = client.place_batch([make_vm(1, 2, 5)],
                                          trace_id="t-456")
            assert response["trace_id"] == "t-456"


class AllocationClientOverDaemon:
    """An AllocationClient talking to an in-process daemon through an
    injected loopback connection (no sockets)."""

    def __init__(self, daemon):
        self._daemon = daemon

    def __enter__(self):
        daemon = self._daemon
        responses = []

        class _Conn:
            def makefile(self, mode, encoding=None):
                if "w" in mode:
                    class _W:
                        def write(self, data):
                            responses.append(
                                daemon.handle_line(data.rstrip("\n")))

                        def flush(self):
                            pass

                        def close(self):
                            pass
                    return _W()

                class _R:
                    def readline(self):
                        return responses.pop(0) + "\n"

                    def close(self):
                        pass
                return _R()

            def close(self):
                pass

        self._client = AllocationClient(connect=lambda: _Conn())
        return self._client

    def __exit__(self, *exc):
        self._client.close()
        return False


class TestTelemetryOp:
    def test_telemetry_reports_samples_and_slo(self):
        daemon = make_daemon()
        for i in range(3):
            daemon.handle(place_request(make_vm(i, i + 1, i + 5)))
        response = daemon.handle(telemetry_request())
        assert response["ok"] and response["op"] == "telemetry"
        assert response["enabled"] is True
        assert response["capacity"] == 1024
        ticks = [s["tick"] for s in response["samples"]]
        assert ticks == sorted(ticks)
        assert ticks[-1] == daemon.store.clock
        latest = response["samples"][-1]
        assert latest["running_vms"] == len(daemon.store.placements)
        assert latest["placed"] == 3
        assert response["slo"]["totals"]["requests"] == 3
        assert response["slo"]["healthy"] is True

    def test_telemetry_last_limits_samples(self):
        daemon = make_daemon()
        for i in range(5):
            daemon.handle(place_request(make_vm(i, i + 1, i + 6)))
        response = daemon.handle(telemetry_request(last=2))
        assert len(response["samples"]) == 2

    def test_telemetry_requires_v2_on_the_wire(self):
        daemon = make_daemon()
        response = json.loads(
            daemon.handle_line(json.dumps({"op": "telemetry"})))
        assert response["ok"] is False
        assert '"v": 2' in response["error"]

    def test_bad_last_is_rejected(self):
        daemon = make_daemon()
        for bad in (0, -1, "five"):
            response = daemon.handle({"op": "telemetry", "v": 2,
                                      "last": bad})
            assert response["ok"] is False, bad
            assert "last" in response["error"]

    def test_capacity_zero_daemon_reports_disabled(self):
        daemon = make_daemon(telemetry_capacity=0)
        daemon.handle(place_request(make_vm(0, 1, 4)))
        response = daemon.handle(telemetry_request())
        assert response["ok"]
        assert response["enabled"] is False
        assert response["samples"] == []

    def test_sampling_is_once_per_tick(self):
        daemon = make_daemon()
        # Three placements landing on the same arrival tick must not
        # produce three samples for that tick.
        for i in range(3):
            daemon.handle(place_request(make_vm(i, 5, 9)))
        samples = daemon.telemetry.last()
        assert len([s for s in samples if s.tick == 5]) <= 1


class TestDumpDebugOp:
    def test_dump_returns_recent_requests(self):
        daemon = make_daemon()
        daemon.handle(place_request(make_vm(0, 1, 4)))
        daemon.handle({"op": "ping", "trace_id": "known-trace",
                       "request_id": "known-req"})
        response = daemon.handle(dump_debug_request())
        assert response["ok"] and response["op"] == "dump_debug"
        assert response["count"] == len(response["records"])
        ops = [r["op"] for r in response["records"]]
        assert "place" in ops and "ping" in ops
        ping = next(r for r in response["records"] if r["op"] == "ping")
        assert ping["trace_id"] == "known-trace"

    def test_dump_requires_v2_on_the_wire(self):
        daemon = make_daemon()
        response = json.loads(
            daemon.handle_line(json.dumps({"op": "dump_debug"})))
        assert response["ok"] is False
        assert '"v": 2' in response["error"]

    def test_dump_records_errors_with_payloads(self):
        daemon = make_daemon(n_servers=1)
        daemon.handle(place_request(make_vm(0, 1, 5, cpu=8.0)))
        daemon.handle(place_request(make_vm(1, 2, 4, cpu=8.0)))  # reject
        daemon.handle(dict(place_request(make_vm(0, 3, 6))))  # dup error
        records = daemon.handle(dump_debug_request())["records"]
        failed = [r for r in records if not r["ok"]]
        assert failed and "error" in failed[0]
        # Parsed VM objects never leak into the recorded payloads.
        place = next(r for r in records if r["op"] == "place")
        assert "_vm" not in place["request"]


class TestAutoFlightDump:
    def test_unhandled_error_dumps_black_box(self, tmp_path, monkeypatch):
        daemon = make_daemon(data_dir=tmp_path, fsync=False)
        daemon.handle(place_request(make_vm(0, 1, 4)))

        def boom(*args):
            raise RuntimeError("wedged")

        monkeypatch.setitem(daemon._OPS, "stats", (boom, "read"))
        records = []
        with use_logger(JsonLogger(sink=records.append)):
            with pytest.raises(RuntimeError):
                daemon.handle({"op": "stats", "trace_id": "deadbeef"})
        dumps = list(tmp_path.glob("flight-dump-*.json"))
        assert dumps == [tmp_path / "flight-dump-deadbeef.json"]
        document = json.loads(dumps[0].read_text())
        assert "RuntimeError" in document["reason"]
        assert any(r["op"] == "place" for r in document["records"])
        errors = [r for r in records
                  if r["event"] == "service.unhandled_error"]
        assert errors and errors[0]["trace_id"] == "deadbeef"
        assert "RuntimeError: wedged" in errors[0]["exception"]

    def test_no_dump_without_data_dir(self, monkeypatch):
        daemon = make_daemon()

        def boom(*args):
            raise RuntimeError("wedged")

        monkeypatch.setitem(daemon._OPS, "stats", (boom, "read"))
        with pytest.raises(RuntimeError):
            daemon.handle({"op": "stats"})  # must not crash dumping


class TestStructuredLogging:
    def test_request_log_line_is_correlated(self):
        records = []
        daemon = make_daemon()
        with use_logger(JsonLogger(sink=records.append)):
            daemon.handle(dict(place_request(make_vm(0, 1, 4)),
                               trace_id="abc", request_id="def"))
        lines = [r for r in records if r["event"] == "service.request"]
        assert len(lines) == 1
        line = lines[0]
        assert line["level"] == "info"
        assert line["op"] == "place"
        assert line["trace_id"] == "abc"
        assert line["request_id"] == "def"
        assert line["decision"] == "placed"
        assert line["latency_ms"] >= 0

    def test_error_outcome_logs_at_error_level(self):
        records = []
        daemon = make_daemon()
        with use_logger(JsonLogger(sink=records.append)):
            response = daemon.handle({"op": "telemetry", "v": 2,
                                      "last": 0})
        assert response["ok"] is False
        line = next(r for r in records
                    if r["event"] == "service.request")
        assert line["level"] == "error"
        assert "error" in line


class TestSLOExposition:
    def test_slo_families_are_conformant(self):
        daemon = make_daemon()
        daemon.handle(place_request(make_vm(0, 1, 4)))
        daemon.handle({"op": "telemetry", "v": 2, "last": 0})  # error
        families = conformant_families(daemon.render_metrics())
        assert families["repro_slo_latency_objective_seconds"]["type"] \
            == "gauge"
        assert families["repro_slo_requests_total"]["type"] == "counter"

        def value_of(name):
            return families[name]["samples"][0][2]

        assert value_of("repro_slo_requests_total") == 2.0
        assert value_of("repro_slo_errors_total") == 1.0
        assert value_of("repro_slo_slow_requests_total") == 0.0
        burns = families["repro_slo_latency_burn_rate"]["samples"]
        windows = sorted(float(labels["window"])
                         for _, labels, _ in burns)
        assert windows == [60.0, 300.0, 3600.0]
        assert families["repro_slo_availability_burn_rate"]["type"] == \
            "gauge"

    def test_custom_slo_config_round_trips_restore(self, tmp_path):
        from repro.obs import SLOConfig

        config = SLOConfig(latency_objective=0.05, latency_target=0.95,
                           availability_target=0.99,
                           windows=(30.0, 90.0))
        daemon = make_daemon(data_dir=tmp_path, fsync=False, slo=config)
        daemon.handle(place_request(make_vm(0, 1, 4)))
        del daemon
        restored = AllocationDaemon.restore(tmp_path, fsync=False)
        assert restored.slo.config == config
        assert restored.config["slo"] == config.to_record()


class TestEndToEndTrace:
    def test_one_trace_id_across_response_span_journal_log(self,
                                                           tmp_path):
        """The acceptance scenario: a batch placed through the real
        client shows one trace id in the response, the daemon's span
        tree, the journal group header and the JSON log line — and a
        kill+restore replays the recorded ids bit-exactly."""
        store = ClusterStateStore(Cluster.paper_all_types(20))
        daemon = AllocationDaemon(store, data_dir=tmp_path, fsync=False)
        vms = generate_vms(8, mean_interarrival=2.0, seed=1)
        tracer = Tracer()
        records = []
        with serving(daemon) as (host, port), use_tracer(tracer), \
                use_logger(JsonLogger(sink=records.append)), \
                AllocationClient(host, port) as client:
            response = client.place_batch(vms)
        assert response["ok"], response
        trace_id = response["trace_id"]
        assert HEX_TRACE.fullmatch(trace_id)

        # ... in the daemon's span tree,
        spans = [e for e in request_spans(tracer)
                 if e.args.get("trace_id") == trace_id]
        assert spans and spans[0].args["op"] == "place_batch"

        # ... on the journal group header (and only there: the group's
        # member decisions belong to the same episode),
        groups = [e for e in read_journal(tmp_path / "journal.jsonl")
                  if e.get("op") == "place_batch"]
        assert [g["trace_id"] for g in groups] == [trace_id]
        assert len(groups[0]["decisions"]) == len(vms)

        # ... and on the structured log line.
        logged = [r for r in records if r["event"] == "service.request"
                  and r.get("op") == "place_batch"]
        assert [r["trace_id"] for r in logged] == [trace_id]

        # Kill hard and restore: the replay reuses the recorded ids
        # verbatim — the replay log tells the original run's story.
        del daemon
        replay_records = []
        with use_logger(JsonLogger(sink=replay_records.append)):
            restored = AllocationDaemon.restore(tmp_path, fsync=False)
        assert restored.store.placement_count() == len(vms)
        replayed = [r for r in replay_records
                    if r["event"] == "service.replay"
                    and r.get("op") == "place_batch"]
        assert [r["trace_id"] for r in replayed] == [trace_id]
        # The journal itself is untouched by the restore.
        after = [e for e in read_journal(tmp_path / "journal.jsonl")
                 if e.get("op") == "place_batch"]
        assert after == groups


class TestHealthEndpoints:
    def fetch(self, port, path, body=None):
        """GET ``path`` (POST when ``body`` is given)."""
        request = urllib.request.Request(
            f"http://127.0.0.1:{port}{path}",
            data=None if body is None else json.dumps(body).encode())
        try:
            with urllib.request.urlopen(request, timeout=10) as fh:
                return fh.status, fh.read().decode()
        except urllib.error.HTTPError as exc:
            return exc.code, exc.read().decode()

    def test_ready_daemon_serves_health_and_varz(self):
        daemon = make_daemon()
        daemon.handle(place_request(make_vm(0, 1, 4)))
        server = start_gateway(daemon)
        port = server.server_address[1]
        try:
            assert self.fetch(port, "/healthz") == (200, "ok\n")
            assert self.fetch(port, "/readyz") == (200, "ok\n")
            status, body = self.fetch(port, "/varz")
            assert status == 200
            varz = json.loads(body)
            assert varz["ready"] is True
            assert varz["build"]["version"]
            assert varz["uptime_seconds"] >= 0
            assert varz["stats"]["placed"] == 1
            assert varz["slo"]["healthy"] is True
            assert varz["telemetry"]["running_vms"] == 1
            assert self.fetch(port, "/nope")[0] == 404
        finally:
            server.shutdown()
            server.server_close()

    def test_not_ready_during_restore_ready_after(self, tmp_path):
        daemon = make_daemon(data_dir=tmp_path, fsync=False)
        for i in range(4):
            daemon.handle(place_request(make_vm(i, i + 1, i + 5)))
        uninterrupted = daemon.store.to_snapshot({})
        del daemon  # hard kill

        seen = {}
        servers = []

        def on_built(building):
            server = start_gateway(building)
            servers.append(server)
            port = server.server_address[1]
            seen["during"] = self.fetch(port, "/healthz")
            seen["ready_during"] = self.fetch(port, "/readyz")
            seen["varz_during"] = json.loads(
                self.fetch(port, "/varz")[1])
            # The gateway is read-write: a placement arriving while
            # the journal tail replays must be refused, not applied.
            seen["place_during"] = self.fetch(
                port, "/v1/place",
                {"vm": place_request(make_vm(9, 1, 4))["vm"]})
            seen["stats_during"] = self.fetch(port, "/v1/stats")[0]

        restored = AllocationDaemon.restore(tmp_path, fsync=False,
                                            on_built=on_built)
        server = servers[0]
        try:
            assert seen["during"] == (503, "restoring\n")
            assert seen["ready_during"] == (503, "restoring\n")
            assert seen["varz_during"]["ready"] is False
            status, body = seen["place_during"]
            error = json.loads(body)["error"]
            assert status == 503
            assert error["code"] == "unavailable"
            assert error["retryable"] is True
            assert "restoring" in error["message"]
            assert seen["stats_during"] == 200  # read ops stay served
            assert restored.store.to_snapshot({}) == uninterrupted
            port = server.server_address[1]
            assert self.fetch(port, "/healthz") == (200, "ok\n")
            assert restored.ready is True
        finally:
            server.shutdown()
            server.server_close()

    def test_shut_down_daemon_reports_unhealthy(self):
        # A real shutdown op also stops the gateway (via the shutdown
        # hook), so probe the handler's closed branch directly.
        daemon = make_daemon()
        server = start_gateway(daemon)
        port = server.server_address[1]
        try:
            daemon.closed = True
            status, body = self.fetch(port, "/healthz")
            assert status == 503
            assert "shutting down" in body
        finally:
            server.shutdown()
            server.server_close()


class TestClientTelemetryMethods:
    def test_client_telemetry_and_dump_debug(self):
        daemon = make_daemon()
        daemon.handle(place_request(make_vm(0, 1, 4)))
        with AllocationClientOverDaemon(daemon) as client:
            response = client.telemetry(last=1)
            assert response["ok"]
            assert len(response["samples"]) == 1
            dump = client.dump_debug()
            assert dump["ok"]
            assert dump["count"] >= 1
