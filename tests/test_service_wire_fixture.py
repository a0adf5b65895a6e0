"""Byte-level wire fixture: every protocol generation, pinned.

``tests/fixtures/wire_v1_v2_v3.json`` holds request line → response
line pairs recorded from ``AllocationDaemon.handle_line`` (one session
per protocol version, ``latency_ms`` masked). The test replays each
session against a fresh daemon three ways — straight through
``handle_line`` (what stdio serves), as JSON lines over the socket
front, and as v3 frames over the same port — and requires the bytes
back. A refactor of the service core passes only if no response line
moved, valid or invalid.

The fixture is a recording, not a specification: regenerate it with
``PYTHONPATH=src python tests/test_service_wire_fixture.py`` only when
a response is *meant* to change, and review the diff.
"""

from __future__ import annotations

import json
import re
import socket
from pathlib import Path

import pytest

from repro.model.cluster import Cluster
from repro.model.server import ServerSpec
from repro.obs import SLOConfig
from repro.service import (
    AllocationDaemon,
    ClusterStateStore,
    encode_frame,
    read_frame,
)

FIXTURE = Path(__file__).parent / "fixtures" / "wire_v1_v2_v3.json"

SPEC = ServerSpec("s", cpu_capacity=10.0, memory_capacity=10.0,
                  p_idle=50.0, p_peak=100.0, transition_time=1.0)

_LATENCY = re.compile(r'"latency_ms":[0-9.eE+-]+')

TRACE = {"trace_id": "00000000deadbeef", "request_id": "cafe0001"}


def fresh_daemon() -> AllocationDaemon:
    """Three small servers, no journal; an hour-long latency objective
    so no request ever counts as slow in the telemetry op's SLO
    report."""
    store = ClusterStateStore(Cluster.homogeneous(SPEC, 3))
    return AllocationDaemon(store,
                            slo=SLOConfig(latency_objective=3600.0))


def mask(line: str) -> str:
    return _LATENCY.sub('"latency_ms":0', line)


def _vm(vm_id: int, start: int, end: int, cpu: float = 2.0,
        memory: float = 2.0, **extra: object) -> dict[str, object]:
    return {"vm_id": vm_id, "type": "t", "cpu": cpu, "memory": memory,
            "start": start, "end": end, **extra}


def _session(version: int | None) -> list[str]:
    """The request lines of one session; ``None`` sends no ``"v"``."""
    def line(op: object, **fields: object) -> str:
        message: dict[str, object] = {"op": op}
        if version is not None:
            message["v"] = version
        message.update(fields)
        return json.dumps(message) + "\n"

    return [
        # -- the happy path of every op, in one coherent history ------
        line("ping"),
        line("place", vm=_vm(0, 1, 40), **TRACE),
        line("place", vm=_vm(1, 1, 9), explain=True),
        line("place", vm=_vm(2, 1, 9, cpu=50.0)),              # rejected
        line("place", vm=_vm(3, 2, 9, memory=50.0), explain=True),
        line("place_batch", vms=[_vm(4, 2, 30), _vm(5, 2, 6),
                                 _vm(6, 3, 9, cpu=50.0)], **TRACE),
        line("tick", now=5),
        line("tick", now=3),                                   # no-op
        line("fail_server", server_id=0, time=6, **TRACE),
        line("recover_server", server_id=0),
        line("fail_server", server_id=1),                      # time: now
        line("recover_server", server_id=1),
        line("consolidate"),
        line("consolidate", time=8, **TRACE),
        line("telemetry", last=2),
        line("telemetry"),
        line("stats"),
        # -- failures -------------------------------------------------
        "{not json\n",
        "[1, 2]\n",
        '"place"\n',
        line("frobnicate"),
        line(None),
        json.dumps({"op": "ping", "v": 99}) + "\n",
        json.dumps({"op": "ping", "v": "two"}) + "\n",
        json.dumps({"op": "ping", "v": True}) + "\n",
        json.dumps({"op": "frobnicate", "v": 99}) + "\n",
        line("place"),
        line("place", vm=[1, 2]),
        line("place", vm={"vm_id": 107, "cpu": 1.0, "memory": 1.0,
                          "start": 1, "end": 2}),              # no type
        line("place", vm=_vm(107, 9, 3)),                        # end < start
        line("place", vm=_vm(107, 6, 9), explain="yes"),
        line("place", vm=_vm(0, 6, 9)),                        # placed id
        line("place", vm=_vm(108, 6, 9, cpu_radius=0.5)),
        line("place_batch"),
        line("place_batch", vms={"a": 1}),
        line("place_batch", vms=[_vm(109, 6, 9), 5]),
        line("place_batch", vms=[{"vm_id": 109}]),
        line("place_batch", vms=[_vm(109, 6, 9, mem_radius=0.25)]),
        line("place_batch", vms=[_vm(110, 6, 9), _vm(110, 7, 9)]),
        line("place_batch", vms=[_vm(111, 6, 9), _vm(0, 7, 9)]),
        line("tick"),
        line("tick", now=-1),
        line("tick", now=True),
        line("tick", now="7"),
        line("fail_server"),
        line("fail_server", server_id=-1),
        line("fail_server", server_id="0"),
        line("fail_server", server_id=99),
        line("fail_server", server_id=0, time=0),
        line("fail_server", server_id=0, time=None),
        line("recover_server", server_id=False),
        line("recover_server", server_id=2),                   # not failed
        line("consolidate", time=0),
        line("consolidate", time=1),                           # the past
        line("telemetry", last=0),
        line("telemetry", last="3"),
        line("snapshot"),                                      # no data_dir
        line("ping", trace_id=7),
        line("ping", trace_id="x" * 200),
        line("ping", **TRACE),
        # -- shutdown, then every op class answers "shut down" --------
        line("shutdown"),
        line("ping"),
        line("stats"),
        line("place", vm=_vm(120, 9, 12)),
        line("tick", now=50),
        line("shutdown"),
        line("frobnicate"),
    ]


def _sessions() -> dict[str, list[str]]:
    return {"v1-unversioned": _session(None), "v1": _session(1),
            "v2": _session(2), "v3": _session(3)}


def record() -> None:
    document = {}
    for name, lines in _sessions().items():
        daemon = fresh_daemon()
        document[name] = [[request, mask(daemon.handle_line(request))]
                          for request in lines]
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(document, indent=1) + "\n")


def _load() -> dict[str, list[list[str]]]:
    return json.loads(FIXTURE.read_text())


def _over_core(daemon, address, exchanges):
    for request, _ in exchanges:
        yield daemon.handle_line(request)


def _over_socket(framed: bool):
    def route(daemon, address, exchanges):
        with socket.create_connection(address, timeout=10) as sock:
            stream = sock.makefile("rwb")
            for request, _ in exchanges:
                payload = request.encode("utf-8")
                stream.write(encode_frame(payload.rstrip(b"\n"))
                             if framed else payload)
                stream.flush()
                yield (read_frame(stream) + b"\n" if framed
                       else stream.readline()).decode("utf-8")
                if daemon.closed:
                    return  # the front hangs up after answering shutdown
    return route


@pytest.mark.parametrize(
    "route", [_over_core, _over_socket(False), _over_socket(True)],
    ids=["core", "lines", "frames"])
@pytest.mark.parametrize("session", sorted(_sessions()))
def test_wire_responses_are_byte_identical(session, route):
    from conftest import serving

    exchanges = _load()[session]
    daemon = fresh_daemon()
    with serving(daemon) as address:
        answered = 0
        for (request, expected), response in zip(
                exchanges, route(daemon, address, exchanges)):
            assert mask(response) == expected, request
            answered += 1
    shutdown_at = next(i for i, (request, _) in enumerate(exchanges)
                       if '"shutdown"' in request)
    assert answered == (len(exchanges) if route is _over_core
                        else shutdown_at + 1)


def test_fixture_covers_every_generation_and_shape():
    """Guards the fixture itself: all sessions present, both error
    shapes and every op recorded."""
    document = _load()
    assert sorted(document) == ["v1", "v1-unversioned", "v2", "v3"]
    v2 = "".join(response for _, response in document["v2"])
    v3 = "".join(response for _, response in document["v3"])
    assert '"error":"tick request needs' in v2
    assert '"error":{"code":"bad_request","message":"tick request' in v3
    for op in ("place", "place_batch", "tick", "fail_server",
               "recover_server", "consolidate", "telemetry", "stats",
               "ping", "shutdown"):
        assert f'"ok":true,"op":"{op}"' in v3, op


if __name__ == "__main__":
    record()
