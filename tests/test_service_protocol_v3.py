"""Protocol v3: binary framing, connection sniffing, the typed error
envelope, and cross-protocol parity (v1 lines == v3 frames == REST)."""

from __future__ import annotations

import io
import json
import socket
import sys
import threading
import time
import urllib.request

import pytest

from repro.exceptions import ServiceError
from repro.model.cluster import Cluster
from repro.service import (
    AllocationClient,
    AllocationDaemon,
    ClusterStateStore,
    encode_frame,
    place_request,
    read_frame,
    serve_socket,
    start_gateway,
    write_frame,
)
from repro.service import protocol
from repro.service.framing import FRAME_MAGIC, HEADER_SIZE, MAX_FRAME
from repro.workload.generator import generate_vms


def fresh_daemon(n_servers: int = 20, **kwargs) -> AllocationDaemon:
    store = ClusterStateStore(Cluster.paper_all_types(n_servers))
    return AllocationDaemon(store, algorithm="min-energy", **kwargs)


class TestOneOpVocabulary:
    def test_the_protocol_and_the_daemon_name_the_same_ops(self):
        # ``OPS`` keeps its order: the wire fixture pins
        # ``supported_ops``.
        assert set(protocol.OPS) == set(AllocationDaemon._OPS)
        assert len(protocol.OPS) == len(set(protocol.OPS))
        assert set(protocol._V2_OPS) <= set(protocol.OPS)
        assert set(protocol._INT_FIELDS) <= set(protocol.OPS)


class TestFraming:
    def test_round_trip(self):
        payload = b'{"op": "ping"}'
        frame = encode_frame(payload)
        assert frame[0] == FRAME_MAGIC
        assert len(frame) == HEADER_SIZE + len(payload)
        stream = io.BytesIO(frame)
        assert read_frame(stream) == payload

    def test_write_then_read(self):
        stream = io.BytesIO()
        write_frame(stream, b"abc")
        write_frame(stream, b"")
        stream.seek(0)
        assert read_frame(stream) == b"abc"
        assert read_frame(stream) == b""
        assert read_frame(stream) is None  # clean EOF

    def test_truncated_frame_is_an_error(self):
        frame = encode_frame(b"hello")
        with pytest.raises(ServiceError):
            read_frame(io.BytesIO(frame[:-2]))
        with pytest.raises(ServiceError):
            read_frame(io.BytesIO(frame[:3]))  # torn header

    def test_bad_magic_rejected(self):
        frame = bytearray(encode_frame(b"x"))
        frame[0] = 0x7B  # '{' — a JSON-lines byte
        with pytest.raises(ServiceError):
            read_frame(io.BytesIO(bytes(frame)))

    def test_oversized_length_rejected(self):
        header = bytes([FRAME_MAGIC, 0x03]) + (MAX_FRAME + 1).to_bytes(4, "big")
        with pytest.raises(ServiceError):
            read_frame(io.BytesIO(header))


class TestSniffingServer:
    """One async port serves JSON lines and v3 frames side by side."""

    def _serve(self):
        daemon = fresh_daemon()
        server = serve_socket(daemon)
        return daemon, server

    def test_lines_and_frames_share_one_port(self):
        daemon, server = self._serve()
        host, port = server.address
        try:
            with socket.create_connection((host, port), timeout=10) as raw:
                raw.sendall(b'{"op": "ping"}\n')
                reply = raw.makefile("r", encoding="utf-8").readline()
                assert json.loads(reply)["ok"] is True
            with socket.create_connection((host, port), timeout=10) as raw:
                raw.sendall(encode_frame(
                    json.dumps({"op": "ping", "v": 3}).encode()))
                stream = raw.makefile("rb")
                response = json.loads(read_frame(stream))
                assert response["ok"] is True and response["v"] == 3
        finally:
            server.stop()

    def test_framed_connection_is_persistent(self):
        daemon, server = self._serve()
        host, port = server.address
        vms = generate_vms(5, mean_interarrival=2.0, seed=4)
        try:
            with AllocationClient(*server.address,
                                  framing="frames") as client:
                for vm in vms:
                    assert client.place(vm)["ok"]
                assert client.stats()["placed"] == 5
        finally:
            server.stop()

    def test_v1_client_is_byte_unaware_of_v3(self):
        """A v1 JSON-lines exchange over the async server matches the
        blocking transport's bytes (modulo the timing field)."""
        daemon, server = self._serve()
        reference = fresh_daemon()
        vm = generate_vms(1, mean_interarrival=2.0, seed=7)[0]
        try:
            with socket.create_connection(server.address,
                                          timeout=10) as raw:
                raw.sendall((json.dumps(place_request(vm)) + "\n").encode())
                line = raw.makefile("r", encoding="utf-8").readline()
        finally:
            server.stop()
        over_wire = json.loads(line)
        direct = json.loads(reference.handle_line(
            json.dumps(place_request(vm))))
        over_wire.pop("latency_ms", None)
        direct.pop("latency_ms", None)
        assert over_wire == direct
        assert "v" not in over_wire  # v1 requests get no version echo

    def test_error_shapes_per_generation(self):
        daemon = fresh_daemon()
        v1 = daemon.handle({"op": "tick", "now": -1})
        assert isinstance(v1["error"], str)
        assert "retry_after" not in v1
        v3 = daemon.handle({"op": "tick", "now": -1, "v": 3})
        assert v3["error"]["code"] == "bad_request"
        assert v3["error"]["retryable"] is False
        unknown = daemon.handle({"op": "nope", "v": 3})
        assert unknown["error"]["code"] == "unknown_op"
        assert unknown["supported_ops"]  # self-description stays top-level


class TestUnreadableRequests:
    """A request the socket front cannot even delimit — a bad frame
    header, an over-long line — gets one typed ``bad_request`` in the
    connection's own dialect, is counted as an error, and the
    connection is closed; nothing escapes the connection's thread."""

    @pytest.fixture()
    def front(self):
        daemon = fresh_daemon()
        escaped: list[object] = []
        with serve_socket(daemon) as server:
            # The server's error path: what a connection's thread raises.
            server.handle_error = lambda request, address: escaped.append(
                sys.exc_info()[1])
            yield daemon, server
        assert escaped == []

    PING = encode_frame(json.dumps({"op": "ping", "v": 3}).encode())

    @pytest.mark.parametrize("preamble, blob, expected", [
        (b"", bytes([FRAME_MAGIC, 0x09, 0, 0, 0, 2]) + b"{}",
         "unsupported framing version 0x09"),
        (b"", bytes([FRAME_MAGIC, 0x03])
         + (MAX_FRAME + 1).to_bytes(4, "big"), "exceeds the"),
        (PING, b'{"op": "ping"}\n', "bad frame magic 0x7B"),
    ], ids=["bad-version-byte", "length-above-max",
            "non-magic-after-first-frame"])
    def test_bad_frame_header_is_answered_framed(self, front, preamble,
                                                 blob, expected):
        daemon, server = front
        with socket.create_connection(server.address, timeout=10) as raw:
            stream = raw.makefile("rwb")
            if preamble:
                stream.write(preamble)
                stream.flush()
                assert json.loads(read_frame(stream))["ok"] is True
            errors_before = daemon.metrics.errors
            stream.write(blob)
            stream.flush()
            response = json.loads(read_frame(stream))
            assert response["ok"] is False
            assert response["error"]["code"] == "bad_request"
            assert expected in response["error"]["message"]
            assert read_frame(stream) is None  # then the front hangs up
        assert daemon.metrics.errors == errors_before + 1

    def test_over_limit_line_is_answered_in_the_line_dialect(self, front):
        daemon, server = front
        with socket.create_connection(server.address, timeout=30) as raw:
            raw.sendall(b'{"op": "ping", "pad": "'
                        + b"x" * (MAX_FRAME + 1))
            stream = raw.makefile("rb")
            response = json.loads(stream.readline())
            assert response == {
                "ok": False,
                "error": f"request line exceeds the {MAX_FRAME}-byte limit"}
            assert stream.readline() == b""  # closed
        assert daemon.metrics.errors == 1
        text = daemon.render_metrics()
        assert "repro_request_errors_total 1" in text


class TestThreadPerConnection:
    """What the socket front promises now that each connection is served
    on its own thread: reads never queue behind the commit lock,
    ``stop()`` hangs up on idle clients at once and leaves no thread
    behind, and a burst of connects is not held at the listen
    backlog — the REST gateway's included."""

    def test_stats_is_answered_while_the_commit_lock_is_held(self):
        daemon = fresh_daemon()
        vm = generate_vms(1, mean_interarrival=2.0, seed=3)[0]
        with serve_socket(daemon) as server:
            writer = socket.create_connection(server.address, timeout=10)
            reader = socket.create_connection(server.address, timeout=10)
            with writer, reader:
                with daemon._commit_lock:
                    writer.sendall(
                        (json.dumps(place_request(vm)) + "\n").encode())
                    deadline = time.monotonic() + 10
                    while not daemon._inflight:  # the place waits on the lock
                        assert time.monotonic() < deadline
                        time.sleep(0.001)
                    reader.sendall(b'{"op": "stats"}\n')
                    stats = json.loads(reader.makefile("rb").readline())
                    assert stats["ok"] is True and stats["placed"] == 0
                    writer.settimeout(0.2)  # and it is not answered
                    with pytest.raises(TimeoutError):
                        writer.recv(1)
                writer.settimeout(10)
                placed = json.loads(writer.makefile("rb").readline())
        assert placed["ok"] is True and placed["decision"] == "placed"

    def test_stop_hangs_up_on_idle_clients_and_leaves_no_thread(self):
        before = set(threading.enumerate())
        server = serve_socket(fresh_daemon())
        clients = [socket.create_connection(server.address, timeout=10)
                   for _ in range(4)]
        try:
            # Clients 0 and 1 never send a byte: parked on the sniff.
            # They are accepted before 2 and 3, whose pings are answered.
            clients[2].sendall(b'{"op": "ping"}\n')
            clients[3].sendall(encode_frame(b'{"op": "ping", "v": 3}'))
            clients[2].makefile("rb").readline()
            read_frame(clients[3].makefile("rb"))
            started = time.perf_counter()
            server.stop()
            assert time.perf_counter() - started < 0.25
            for client in clients:
                assert client.recv(1) == b""
        finally:
            for client in clients:
                client.close()
        assert set(threading.enumerate()) - before == set()

    BURST = 32

    @pytest.mark.parametrize("front", ["socket", "gateway"])
    def test_a_burst_of_connects_is_answered_at_once(self, front):
        daemon = fresh_daemon()
        if front == "socket":
            server = serve_socket(daemon)
            address = server.address
        else:
            server = start_gateway(daemon)
            address = server.server_address[:2]
        barrier = threading.Barrier(self.BURST)
        waits: list[float] = []

        def ping() -> None:
            barrier.wait(10)
            started = time.perf_counter()
            with socket.create_connection(address, timeout=10) as raw:
                if front == "socket":
                    raw.sendall(b'{"op": "ping"}\n')
                else:
                    raw.sendall(b"GET /v1/ping HTTP/1.1\r\nHost: x\r\n"
                                b"Connection: close\r\n\r\n")
                assert raw.makefile("rb").readline()
            waits.append(time.perf_counter() - started)

        threads = [threading.Thread(target=ping) for _ in range(self.BURST)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
        finally:
            server.shutdown()
            server.server_close()
        assert len(waits) == self.BURST
        assert max(waits) < 0.5, sorted(waits)


class TestAsyncChaosSoak:
    """The chaos vocabulary against the async server: a retrying
    framed client streams placements while a FaultInjector fails,
    recovers, consolidates and pulls debug dumps mid-stream."""

    def test_fault_injection_over_async_frames(self, tmp_path):
        from repro.service import ClientConfig, FaultEvent, FaultInjector
        from repro.workload.trace import vm_from_record, vm_to_record

        vms = []
        for vm in generate_vms(30, mean_interarrival=1.0, seed=17):
            record = vm_to_record(vm)
            record["vm_id"] = 10_000 + 100 * vm.vm_id
            vms.append(vm_from_record(record))
        daemon = fresh_daemon(20, data_dir=tmp_path, fsync=False)
        server = serve_socket(daemon)
        try:
            with AllocationClient(*server.address, framing="frames",
                                  config=ClientConfig(retries=3,
                                                      backoff=0.01)
                                  ) as client:
                injector = FaultInjector([
                    FaultEvent(after=8, kind="fail", server_id=0),
                    FaultEvent(after=14, kind="dump_debug"),
                    FaultEvent(after=16, kind="recover", server_id=0),
                    FaultEvent(after=22, kind="consolidate"),
                ], client)
                for position, vm in enumerate(vms):
                    injector.fire_due(position)
                    assert client.place(vm)["ok"]
                injector.drain()
                assert injector.pending == ()
                assert all(r["ok"] for _, r in injector.responses)
                stats = client.stats()
                assert stats["placed"] == len(vms)
                assert stats["servers_failed"] == 0
        finally:
            server.stop()
        # the journal replays to the same fleet state
        restored = AllocationDaemon.restore(tmp_path)
        assert dict(restored.store.placements) == \
            dict(daemon.store.placements)
        assert restored.store.energy_accumulated == \
            daemon.store.energy_accumulated


class TestCrossProtocolParity:
    """The same workload through v1 lines, v3 frames and the REST
    gateway produces identical decisions, journal bytes and counters."""

    def _run_lines(self, daemon, server, vms, ids):
        with AllocationClient(*server.address) as client:
            return [client._request({**place_request(vm), **ids(i)})
                    for i, vm in enumerate(vms)]

    def _run_frames(self, daemon, server, vms, ids):
        with AllocationClient(*server.address,
                              framing="frames") as client:
            return [client._request({**place_request(vm), **ids(i)})
                    for i, vm in enumerate(vms)]

    def _run_gateway(self, daemon, gateway, vms, ids):
        port = gateway.server_address[1]
        out = []
        for i, vm in enumerate(vms):
            fields = ids(i)
            body = json.dumps(
                {"vm": place_request(vm)["vm"]}).encode()
            req = urllib.request.Request(
                f"http://127.0.0.1:{port}/v1/place", data=body,
                headers={"X-Trace-Id": fields["trace_id"],
                         "X-Request-Id": fields["request_id"]},
                method="POST")
            with urllib.request.urlopen(req, timeout=10) as resp:
                out.append(json.load(resp))
        return out

    def test_three_transports_one_truth(self, tmp_path):
        vms = generate_vms(25, mean_interarrival=1.5, seed=11)

        def ids(i: int) -> dict[str, str]:
            return {"trace_id": f"{i:032x}", "request_id": f"{i:016x}"}

        responses = {}
        daemons = {}
        for mode in ("lines", "frames", "gateway"):
            daemon = fresh_daemon(15, data_dir=tmp_path / mode,
                                  fsync=False)
            daemons[mode] = daemon
            if mode == "gateway":
                gateway = start_gateway(daemon)
                try:
                    responses[mode] = self._run_gateway(
                        daemon, gateway, vms, ids)
                finally:
                    gateway.shutdown()
            else:
                server = serve_socket(daemon)
                run = self._run_lines if mode == "lines" \
                    else self._run_frames
                try:
                    responses[mode] = run(daemon, server, vms, ids)
                finally:
                    server.stop()

        def decisions(mode):
            return [(r["vm_id"], r.get("decision"), r.get("server_id"))
                    for r in responses[mode]]

        assert decisions("lines") == decisions("frames") \
            == decisions("gateway")
        base = daemons["lines"]
        for mode in ("frames", "gateway"):
            other = daemons[mode]
            assert dict(other.store.placements) == \
                dict(base.store.placements)
            assert other.store.energy_accumulated == \
                base.store.energy_accumulated
            assert other.metrics.requests == base.metrics.requests

        journal_bytes = {
            mode: (tmp_path / mode / "journal.jsonl").read_bytes()
            for mode in responses}
        assert journal_bytes["lines"] == journal_bytes["frames"] \
            == journal_bytes["gateway"]
