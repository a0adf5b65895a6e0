"""One request, one record: the daemon stamps each request once, and
the wrapper spans, the flight entry, the log line, the SLO sample and
the ``latency_ms`` a mutating op reports all read that record."""

from __future__ import annotations

import inspect
import json
import re
import time

import pytest

from repro.model.cluster import Cluster
from repro.model.server import ServerSpec
from repro.obs import JsonLogger, Tracer, use_logger, use_tracer
from repro.obs.tracer import SPAN
from repro.service import AllocationDaemon, ClusterStateStore
from repro.service import daemon as daemon_module
from repro.service.persistence import RequestJournal
from repro.workload.trace import vm_to_record

from conftest import make_vm

SPEC = ServerSpec("s", cpu_capacity=10.0, memory_capacity=10.0,
                  p_idle=50.0, p_peak=100.0, transition_time=1.0)
IDS = {"trace_id": "feedc0de" * 2, "request_id": "cafe0001"}
REQUEST = ("service.request", {"ok": True, **IDS})


def span_tree(tracer):
    """The traced spans as ``(name, attrs, children)`` nodes, each under
    the shortest span that contains it in time, siblings by start."""
    spans = sorted((e for e in tracer.events if e.kind == SPAN),
                   key=lambda e: (e.ts_ns, -e.dur_ns))
    nodes = [(e, (e.name, dict(e.args), [])) for e in spans]
    roots = []
    for event, node in nodes:
        parent = None
        for other, candidate in nodes:
            if other is not event and other.ts_ns <= event.ts_ns and \
                    event.ts_ns + event.dur_ns <= other.ts_ns + other.dur_ns \
                    and (parent is None or other.dur_ns < parent[0].dur_ns):
                parent = (other, candidate)
        (parent[1][2] if parent else roots).append(node)
    return roots


def request_node(op, *children):
    name, attrs = REQUEST
    return (name, {**attrs, "op": op}, list(children))


def leaf(name, **attrs):
    return (name, attrs, [])


def wrapped(request):
    """What one readable line books: decode, the request, encode."""
    return [leaf("service.ingest"), request, leaf("service.respond")]


def place_node(vm_id, to, server_id):
    return request_node("place", ("service.place", {
        "vm_id": vm_id, "decision": "placed"}, [
        leaf("service.advance", to=to),
        leaf("service.allocate", algorithm="min-energy"),
        leaf("service.commit", server_id=server_id),
        leaf("service.journal")]))


SCRIPT = [
    ({"op": "place", "vm": vm_to_record(make_vm(0, 1, 30, cpu=6.0))},
     wrapped(place_node(0, 1, 0))),
    ({"op": "place", "vm": vm_to_record(make_vm(1, 2, 9)),
      "explain": True},
     wrapped(place_node(1, 2, 0))),
    ({"op": "place_batch", "v": 3,
      "vms": [vm_to_record(make_vm(2, 3, 30, cpu=2.0)),
              vm_to_record(make_vm(3, 2, 40, cpu=9.0)),
              vm_to_record(make_vm(4, 3, 8, cpu=9.5))]},
     wrapped(request_node("place_batch", ("service.place_batch", {
         "batch": 3, "placed": 3}, [
         leaf("service.allocate", algorithm="min-energy"),
         leaf("service.commit", server_id=1),
         leaf("service.advance", to=3),
         leaf("service.allocate", algorithm="min-energy"),
         leaf("service.commit", server_id=2),
         leaf("service.allocate", algorithm="min-energy"),
         leaf("service.commit", server_id=0),
         leaf("service.journal")])))),
    # crosses the consolidation epoch: the background episode runs
    # inside the request, under a trace id of its own
    ({"op": "tick", "now": 20},
     wrapped(request_node("tick", leaf("service.journal"), (
         "service.consolidate", {
             "time": 20, "trace_id": "<minted>", "migrations": 0,
             "servers_freed": 0, "residents": 3, "placements": 5},
         [leaf("service.journal")])))),
    ({"op": "fail_server", "v": 3, "server_id": 1, "time": 21},
     wrapped(request_node("fail_server", ("service.fail_server", {
         "server_id": 1, "time": 21, "killed": 1, "replaced": 1,
         "lost": 0}, [leaf("service.journal")])))),
    ({"op": "recover_server", "v": 3, "server_id": 1},
     wrapped(request_node("recover_server", (
         "service.recover_server", {"server_id": 1},
         [leaf("service.journal")])))),
    ({"op": "consolidate", "v": 3, "time": 22},
     wrapped(request_node("consolidate", ("service.consolidate", {
         "time": 22, "trace_id": IDS["trace_id"], "migrations": 0,
         "servers_freed": 0, "residents": 3, "placements": 6},
         [leaf("service.journal")])))),
]


def minted_ids_masked(tree, request_trace_id):
    """``tree`` with a background episode's fresh trace id masked."""
    masked = []
    for name, attrs, children in tree:
        trace_id = attrs.get("trace_id")
        if name == "service.consolidate" and \
                trace_id != request_trace_id:
            assert re.fullmatch(r"[0-9a-f]{16}", trace_id)
            attrs = {**attrs, "trace_id": "<minted>"}
        masked.append((name, attrs,
                       minted_ids_masked(children, request_trace_id)))
    return masked


def durable_daemon(tmp_path, **kwargs):
    store = ClusterStateStore(Cluster.homogeneous(SPEC, 4))
    return AllocationDaemon(store, data_dir=tmp_path, fsync=False,
                            consolidate_every=20, **kwargs)


def traced_line(daemon, line):
    tracer = Tracer()
    with use_tracer(tracer):
        response = json.loads(daemon.handle_line(line))
    return response, tracer


class TestTheTracedSpanTree:
    """Names, attributes and nesting in time of every span a traced
    request books; the order of ``tracer.events`` is not pinned."""

    def test_each_op_books_its_tree(self, tmp_path):
        daemon = durable_daemon(tmp_path)
        for request, expected in SCRIPT:
            response, tracer = traced_line(daemon,
                                           json.dumps({**request, **IDS}))
            assert response["ok"], response
            tree = minted_ids_masked(span_tree(tracer), IDS["trace_id"])
            assert tree == expected, request["op"]

    @pytest.mark.parametrize("line", [
        '{"op": "place", "vm": ', json.dumps({"op": "ping", "v": 9})])
    def test_an_unread_line_books_only_its_decode(self, tmp_path, line):
        daemon = durable_daemon(tmp_path)
        response, tracer = traced_line(daemon, line)
        assert not response["ok"]
        assert span_tree(tracer) == [leaf("service.ingest")]


def place_line(vm_id, start, end, **fields):
    return json.dumps({"op": "place",
                       "vm": vm_to_record(make_vm(vm_id, start, end)),
                       **fields})


class TestOneRequestOneRecord:
    """The flight entry, the log line, the SLO sample and the wrapper
    spans of a request are one record read four ways."""

    def test_a_line_leaves_one_of_each_from_the_same_stamps(self):
        daemon = AllocationDaemon(
            ClusterStateStore(Cluster.homogeneous(SPEC, 4)))
        samples, lines, tracer = [], [], Tracer()
        daemon.slo.observe = lambda latency, ok=True: samples.append(
            (latency, ok))
        with use_tracer(tracer), use_logger(JsonLogger(sink=lines.append)):
            for i in range(5):
                before = (len(daemon.flight), len(lines), len(samples))
                daemon.handle_line(place_line(i, 1 + i, 9, **IDS))
                assert (len(daemon.flight), len(lines), len(samples)) == \
                    tuple(n + 1 for n in before)
                entry, line, (latency, ok) = \
                    daemon.flight.last(1)[0], lines[-1], samples[-1]
                [span] = [e for e in tracer.spans("service.request")
                          if e.ts_ns == round(entry.decoded * 1e9)]
                assert entry.ok and ok and span.args["ok"]
                assert line["event"] == "service.request"
                assert line["latency_ms"] == entry.latency_ms == \
                    round(latency * 1e3, 3)
                assert abs(span.dur_ns / 1e6 - entry.latency_ms) \
                    <= 5e-4 + 2e-6
                assert entry.read <= entry.decoded < entry.locked \
                    < entry.decided < entry.journaled < entry.answered \
                    < entry.encoded

    def test_no_request_path_method_keeps_its_own_books(self):
        methods = [AllocationDaemon.handle_line, AllocationDaemon.handle,
                   AllocationDaemon._run,
                   *(handler for handler, _ in AllocationDaemon._OPS.values())]
        for method in methods:
            source = inspect.getsource(method)
            assert not re.search(r"\.span\(", source), method.__name__
            assert "started" not in source, method.__name__
        for gone in ("_observe_outcome", "_guarded"):
            assert not hasattr(AllocationDaemon, gone)
        # the version is negotiated where the request is validated
        assert "negotiate_version" not in inspect.getsource(daemon_module)


class TestLatencyMeansOneThing:
    """Every mutating op reports ``latency_ms`` from the commit lock to
    the durable point: the journal append and any snapshot included."""

    def test_each_mutating_op_counts_its_journal(self, tmp_path,
                                                  monkeypatch):
        daemon = durable_daemon(tmp_path)
        append = RequestJournal.append

        def slow_append(journal, entry):
            time.sleep(0.002)
            return append(journal, entry)

        monkeypatch.setattr(RequestJournal, "append", slow_append)
        for request in (
                {"op": "place", "vm": vm_to_record(make_vm(0, 1, 9))},
                {"op": "place_batch", "v": 2,
                 "vms": [vm_to_record(make_vm(1, 1, 9))]},
                {"op": "fail_server", "v": 2, "server_id": 0},
                {"op": "consolidate", "v": 2}):
            response = daemon.handle(request)
            entry = daemon.flight.last(1)[0]
            assert response["latency_ms"] >= 2.0, request["op"]
            assert response["latency_ms"] == \
                (entry.journaled - entry.locked) * 1e3
