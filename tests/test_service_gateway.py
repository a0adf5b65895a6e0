"""The HTTP/REST gateway: endpoint mapping, status codes, trace
propagation, overload shedding, and crash recovery mid-stream."""

from __future__ import annotations

import json
import socket
import urllib.error
import urllib.request

import pytest

from repro.model.cluster import Cluster
from repro.service import (
    AllocationDaemon,
    ClusterStateStore,
    place_request,
    start_gateway,
)
from repro.workload.generator import generate_vms


def fresh_daemon(n_servers: int = 20, **kwargs) -> AllocationDaemon:
    store = ClusterStateStore(Cluster.paper_all_types(n_servers))
    return AllocationDaemon(store, algorithm="min-energy", **kwargs)


@pytest.fixture()
def served():
    daemon = fresh_daemon()
    gateway = start_gateway(daemon)
    try:
        yield daemon, f"http://127.0.0.1:{gateway.server_address[1]}"
    finally:
        gateway.shutdown()
        gateway.server_close()


def post(base: str, path: str, body: dict | None = None,
         headers: dict | None = None):
    req = urllib.request.Request(
        base + path, data=json.dumps(body or {}).encode(),
        headers=headers or {}, method="POST")
    return urllib.request.urlopen(req, timeout=10)


def get(base: str, path: str):
    return urllib.request.urlopen(base + path, timeout=10)


class TestEndpoints:
    def test_place_and_stats(self, served):
        daemon, base = served
        vm = generate_vms(1, mean_interarrival=2.0, seed=1)[0]
        with post(base, "/v1/place",
                  {"vm": place_request(vm)["vm"]}) as resp:
            doc = json.load(resp)
            assert resp.status == 200
            assert doc["ok"] and doc["decision"] == "placed"
        with get(base, "/v1/stats") as resp:
            assert json.load(resp)["placed"] == 1

    def test_place_batch_consolidate_tick(self, served):
        daemon, base = served
        vms = generate_vms(10, mean_interarrival=1.0, seed=2)
        records = [place_request(vm)["vm"] for vm in vms]
        with post(base, "/v1/place_batch", {"vms": records}) as resp:
            doc = json.load(resp)
            assert doc["ok"] and doc["count"] == 10
        with post(base, "/v1/tick",
                  {"now": daemon.store.clock + 5}) as resp:
            assert json.load(resp)["ok"]
        with post(base, "/v1/consolidate") as resp:
            doc = json.load(resp)
            assert doc["ok"] and "moves" in doc

    def test_fail_and_recover_server(self, served):
        daemon, base = served
        with post(base, "/v1/fail_server", {"server_id": 0}) as resp:
            assert json.load(resp)["ok"]
        assert daemon.store.is_failed(0)
        with post(base, "/v1/recover_server", {"server_id": 0}) as resp:
            assert json.load(resp)["ok"]
        assert not daemon.store.is_failed(0)

    def test_telemetry_last_and_metrics_page(self, served):
        daemon, base = served
        vm = generate_vms(1, mean_interarrival=2.0, seed=3)[0]
        post(base, "/v1/place", {"vm": place_request(vm)["vm"]}).close()
        with get(base, "/v1/telemetry?last=1") as resp:
            doc = json.load(resp)
            assert doc["ok"] and "slo" in doc
        with get(base, "/v1/metrics") as resp:
            page = resp.read().decode()
            assert resp.headers["Content-Type"].startswith("text/plain")
            assert "repro_requests_total" in page
        with get(base, "/healthz") as resp:
            assert resp.read() == b"ok\n"
        with get(base, "/varz") as resp:
            assert "build" in json.load(resp)


class TestErrorMapping:
    def test_unknown_endpoint_is_404(self, served):
        daemon, base = served
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get(base, "/v1/nope")
        assert excinfo.value.code == 404
        assert json.load(excinfo.value)["error"]["code"] == "not_found"

    def test_method_mismatch_is_405(self, served):
        daemon, base = served
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get(base, "/v1/place")
        assert excinfo.value.code == 405
        # GET-only paths outside /v1 and the text page answer the same.
        for path in ("/v1/telemetry", "/healthz", "/readyz", "/varz",
                     "/metrics", "/v1/metrics"):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                post(base, path)
            assert excinfo.value.code == 405, path
            assert json.load(excinfo.value)["error"]["code"] == \
                "method_not_allowed"

    def test_every_daemon_op_has_exactly_one_route(self, served):
        # The op table is the route table: read ops GET, the rest POST.
        daemon, base = served
        with get(base, "/v1/ping") as resp:
            assert json.load(resp) == {"ok": True, "op": "ping",
                                       "clock": 0, "v": 3}
        for op, (_, kind) in AllocationDaemon._OPS.items():
            wrong = post if kind == "read" else get
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                wrong(base, f"/v1/{op}")
            assert excinfo.value.code == 405, op

    def test_bad_json_body_is_400(self, served):
        daemon, base = served
        req = urllib.request.Request(base + "/v1/place", data=b"{nope",
                                     method="POST")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(req, timeout=10)
        assert excinfo.value.code == 400
        assert json.load(excinfo.value)["error"]["code"] == "bad_request"

    @pytest.mark.parametrize("length", ["-5", "-1", "ten"])
    def test_unusable_content_length_is_400(self, served, length):
        # A negative length used to reach ``rfile.read``: -5 raised out
        # of the handler (connection dropped, no response), -1 blocked
        # the handler thread until the peer closed. Over a raw socket,
        # because urllib computes the header itself.
        daemon, base = served
        host, port = base[len("http://"):].split(":")
        with socket.create_connection((host, int(port)), timeout=5) as sock:
            sock.sendall(f"POST /v1/tick HTTP/1.1\r\nHost: {host}\r\n"
                         f"Content-Length: {length}\r\n"
                         "Connection: close\r\n\r\n".encode())
            reply = b""
            while chunk := sock.recv(4096):
                reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 "), reply
        assert json.loads(body)["error"]["code"] == "bad_request"
        assert daemon.store.clock == 0

    def test_validation_failure_is_400_envelope(self, served):
        daemon, base = served
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post(base, "/v1/tick", {"now": -1})
        assert excinfo.value.code == 400
        doc = json.load(excinfo.value)
        assert doc["error"]["code"] == "bad_request"
        assert doc["error"]["retryable"] is False

    def test_overload_is_429_with_retry_after(self):
        daemon = fresh_daemon(max_inflight=1)
        gateway = start_gateway(daemon)
        base = f"http://127.0.0.1:{gateway.server_address[1]}"
        vm = generate_vms(1, mean_interarrival=2.0, seed=4)[0]
        daemon._inflight = 1  # fill the window
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                post(base, "/v1/place", {"vm": place_request(vm)["vm"]})
            assert excinfo.value.code == 429
            assert float(excinfo.value.headers["Retry-After"]) > 0
            doc = json.load(excinfo.value)
            assert doc["error"]["code"] == "overloaded"
            assert doc["error"]["retryable"] is True
            # read-only ops are never shed
            with get(base, "/v1/stats") as resp:
                assert resp.status == 200
        finally:
            daemon._inflight = 0
            gateway.shutdown()
            gateway.server_close()


class TestRouteWinsOverBody:
    """The route names the op and the version; the body cannot
    override either, nor smuggle in the core's private fields."""

    @pytest.mark.parametrize("path, body", [
        ("/v1/place", {"_vm": {"x": 1}}),
        ("/v1/place_batch", {"_vms": [1, 2]}),
    ])
    def test_injected_private_fields_answer_400(self, served, path, body):
        daemon, base = served
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post(base, path, body)
        assert excinfo.value.code == 400
        assert json.load(excinfo.value)["error"]["code"] == "bad_request"
        assert daemon.metrics.errors == 1
        with get(base, "/healthz") as resp:  # the handler thread lived
            assert resp.status == 200

    def test_injected_vm_never_replaces_the_record(self, served):
        daemon, base = served
        vm = generate_vms(1, mean_interarrival=2.0, seed=5)[0]
        with post(base, "/v1/place", {"vm": place_request(vm)["vm"],
                                      "_vm": {"x": 1}}) as resp:
            doc = json.load(resp)
        assert doc["decision"] == "placed" and doc["vm_id"] == vm.vm_id

    def test_op_in_body_runs_the_routed_op(self, served):
        daemon, base = served
        with post(base, "/v1/tick", {"op": "ping", "now": 7}) as resp:
            doc = json.load(resp)
        assert doc["op"] == "tick" and doc["clock"] == 7
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post(base, "/v1/tick", {"op": "ping"})  # tick needs 'now'
        assert excinfo.value.code == 400

    def test_version_in_body_does_not_apply(self, served):
        # fail_server needs protocol >= 2: it succeeds because the
        # request is served as the route's v3, not the body's v1.
        daemon, base = served
        with post(base, "/v1/fail_server",
                  {"v": 1, "server_id": 0}) as resp:
            doc = json.load(resp)
        assert doc["ok"] and doc["v"] == 3
        assert daemon.store.is_failed(0)


class TestTracePropagation:
    def test_headers_become_trace_context(self, tmp_path):
        daemon = fresh_daemon(data_dir=tmp_path, fsync=False)
        gateway = start_gateway(daemon)
        base = f"http://127.0.0.1:{gateway.server_address[1]}"
        vm = generate_vms(1, mean_interarrival=2.0, seed=5)[0]
        try:
            with post(base, "/v1/place",
                      {"vm": place_request(vm)["vm"]},
                      {"X-Trace-Id": "ab" * 16,
                       "X-Request-Id": "cd" * 8}) as resp:
                doc = json.load(resp)
                assert resp.headers["X-Trace-Id"] == "ab" * 16
                assert resp.headers["X-Request-Id"] == "cd" * 8
                assert doc["trace_id"] == "ab" * 16
        finally:
            gateway.shutdown()
            gateway.server_close()
        # journal line 0 is the init record; the place entry follows
        entry = json.loads(
            (tmp_path / "journal.jsonl").read_text().splitlines()[1])
        assert entry["trace_id"] == "ab" * 16
        assert entry["request_id"] == "cd" * 8

    def test_read_op_echoes_supplied_trace_header(self, served):
        daemon, base = served
        req = urllib.request.Request(base + "/v1/stats",
                                     headers={"X-Trace-Id": "ef" * 16})
        with urllib.request.urlopen(req, timeout=10) as resp:
            doc = json.load(resp)
            assert resp.headers["X-Trace-Id"] == "ef" * 16
            assert doc["trace_id"] == "ef" * 16


class TestCrashRecoveryUnderGateway:
    def test_kill_and_restore_mid_stream(self, tmp_path):
        """Crash the daemon mid-stream; the restored daemon continues
        behind a new gateway and lands bit-identical to an
        uninterrupted run."""
        vms = generate_vms(30, mean_interarrival=1.5, seed=6)
        records = [place_request(vm)["vm"] for vm in vms]

        daemon = fresh_daemon(15, data_dir=tmp_path / "crashy",
                              fsync=False)
        gateway = start_gateway(daemon)
        base = f"http://127.0.0.1:{gateway.server_address[1]}"
        first = []
        try:
            for record in records[:17]:
                with post(base, "/v1/place", {"vm": record}) as resp:
                    first.append(json.load(resp))
        finally:
            # Simulated crash: no shutdown op, the gateway just dies.
            gateway.shutdown()
            gateway.server_close()

        restored = AllocationDaemon.restore(tmp_path / "crashy")
        gateway = start_gateway(restored)
        base = f"http://127.0.0.1:{gateway.server_address[1]}"
        second = []
        try:
            for record in records[17:]:
                with post(base, "/v1/place", {"vm": record}) as resp:
                    second.append(json.load(resp))
        finally:
            gateway.shutdown()
            gateway.server_close()

        straight = fresh_daemon(15)
        expected = [straight.handle(place_request(vm)) for vm in vms]
        got = [(r["vm_id"], r.get("decision"), r.get("server_id"))
               for r in first + second]
        want = [(r["vm_id"], r.get("decision"), r.get("server_id"))
                for r in expected]
        assert got == want
        assert dict(restored.store.placements) == \
            dict(straight.store.placements)
        assert restored.store.energy_accumulated == \
            straight.store.energy_accumulated
