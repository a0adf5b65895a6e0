"""Unit tests for the correlated-observability primitives: trace
context, structured JSON logging, the fleet telemetry ring, the SLO
burn-rate tracker, and the flight recorder."""

from __future__ import annotations

import gc
import json
import re
import sys
import time
from collections import deque
from types import ModuleType

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import ServiceError, ValidationError
from repro.model.cluster import Cluster
from repro.model.intervals import TimeInterval
from repro.model.server import ServerSpec
from repro.model.vm import VM, VMSpec
from repro.obs import (
    FlightRecorder,
    JsonLogger,
    SLOConfig,
    SLOTracker,
    TelemetryRing,
    TelemetrySample,
    TraceContext,
    get_logger,
    use_logger,
)
from repro.obs.context import new_request_id, new_trace_id, \
    trace_context_of
from repro.obs.flight import MAX_LIST_ITEMS, MAX_STRING_LENGTH, \
    FlightRecord, _compact
from repro.obs.logging import NULL_LOGGER, NullLogger, set_logger
from repro.obs.slo import DEFAULT_CAPACITY
from repro.obs.telemetry import samples_from_records
from repro.obs.tracer import COUNTER
from repro.service import AllocationDaemon, ClusterStateStore, \
    place_batch_request


def make_sample(tick: int, **overrides) -> TelemetrySample:
    fields = dict(tick=tick, servers_active=2, servers_asleep=3,
                  servers_failed=0, running_vms=5, fleet_power=150.0,
                  energy_accumulated=1200.0, fragmentation=0.25,
                  inflight=1, pending=0, placed=5, rejected=0)
    fields.update(overrides)
    return TelemetrySample(**fields)


class TestTraceContext:
    def test_minted_ids_are_lowercase_hex(self):
        assert re.fullmatch(r"[0-9a-f]{16}", new_trace_id())
        assert re.fullmatch(r"[0-9a-f]{8}", new_request_id())

    def test_new_contexts_are_distinct(self):
        a, b = TraceContext.new(), TraceContext.new()
        assert a.trace_id != b.trace_id
        assert a.request_id != b.request_id

    def test_child_keeps_trace_changes_request(self):
        parent = TraceContext.new()
        child = parent.child()
        assert child.trace_id == parent.trace_id
        assert child.request_id != parent.request_id

    def test_stamp_respects_existing_ids(self):
        ctx = TraceContext("t" * 16, "r" * 8)
        message = {"op": "ping", "trace_id": "mine"}
        ctx.stamp(message)
        assert message["trace_id"] == "mine"
        assert message["request_id"] == "r" * 8

    def test_context_of_keeps_carried_ids(self):
        ctx = trace_context_of({"trace_id": "abc", "request_id": "def"})
        assert (ctx.trace_id, ctx.request_id) == ("abc", "def")

    def test_context_of_mints_missing_ids(self):
        ctx = trace_context_of({"op": "ping"})
        assert re.fullmatch(r"[0-9a-f]{16}", ctx.trace_id)
        assert re.fullmatch(r"[0-9a-f]{8}", ctx.request_id)

    def test_partial_ids_keep_what_is_present(self):
        ctx = trace_context_of({"trace_id": "abc"})
        assert ctx.trace_id == "abc"
        assert re.fullmatch(r"[0-9a-f]{8}", ctx.request_id)

    @pytest.mark.parametrize("bad", [7, "", "   ", "x" * 129, "a\nb"])
    def test_malformed_ids_are_rejected(self, bad):
        with pytest.raises(ServiceError):
            trace_context_of({"trace_id": bad})
        with pytest.raises(ServiceError):
            trace_context_of({"request_id": bad})


class TestJsonLogger:
    def test_records_are_one_json_object_per_line(self):
        import io

        stream = io.StringIO()
        logger = JsonLogger(stream, wall=lambda: 100.0)
        logger.info("service.request", op="place", trace_id="abc")
        logger.error("service.request", op="place", error="boom")
        lines = stream.getvalue().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first == {"ts": 100.0, "level": "info",
                         "event": "service.request", "op": "place",
                         "trace_id": "abc"}
        assert json.loads(lines[1])["level"] == "error"

    def test_level_threshold_filters(self):
        records = []
        logger = JsonLogger(level="warning", sink=records.append)
        logger.debug("a")
        logger.info("b")
        logger.warning("c")
        logger.error("d")
        assert [r["event"] for r in records] == ["c", "d"]
        assert logger.enabled_for("error")
        assert not logger.enabled_for("info")

    def test_needs_a_destination(self):
        with pytest.raises(ValidationError):
            JsonLogger()
        with pytest.raises(ValidationError):
            JsonLogger(level="loud", sink=lambda r: None)
        with pytest.raises(ValidationError):
            JsonLogger(max_per_second=0, sink=lambda r: None)

    def test_rate_limit_suppresses_and_counts(self):
        records = []
        now = [0.0]
        logger = JsonLogger(sink=records.append, max_per_second=2,
                            clock=lambda: now[0])
        for _ in range(5):  # burst of 2, then 3 drops
            logger.info("hot.event")
        assert len(records) == 2
        assert logger.suppressed_total == 3
        now[0] += 1.0  # refill
        logger.info("hot.event")
        assert records[-1]["suppressed"] == 3
        assert logger.emitted == 3

    def test_rate_limit_is_per_event_name(self):
        records = []
        logger = JsonLogger(sink=records.append, max_per_second=1,
                            clock=lambda: 0.0)
        logger.info("a")
        logger.info("a")  # dropped
        logger.info("b")  # separate bucket, passes
        assert [r["event"] for r in records] == ["a", "b"]

    def test_unknown_level_rejected(self):
        logger = JsonLogger(sink=lambda r: None)
        with pytest.raises(ValidationError):
            logger.log("shout", "event")

    def test_global_logger_defaults_to_noop(self):
        assert get_logger() is NULL_LOGGER
        assert not NULL_LOGGER.enabled
        NULL_LOGGER.info("dropped")  # must not raise

    def test_use_logger_scopes_installation(self):
        records = []
        logger = JsonLogger(sink=records.append)
        with use_logger(logger):
            assert get_logger() is logger
            get_logger().info("inside")
        assert get_logger() is NULL_LOGGER
        assert [r["event"] for r in records] == ["inside"]

    def test_set_logger_none_restores_default(self):
        logger = JsonLogger(sink=lambda r: None)
        previous = set_logger(logger)
        try:
            assert previous is NULL_LOGGER
            assert get_logger() is logger
        finally:
            set_logger(None)
        assert get_logger() is NULL_LOGGER

    def test_null_logger_is_disabled_subclass(self):
        null = NullLogger()
        assert isinstance(null, JsonLogger)
        assert not null.enabled_for("error")


class TestTelemetrySample:
    def test_record_round_trip(self):
        sample = make_sample(7)
        assert TelemetrySample.from_record(sample.to_record()) == sample

    def test_from_record_coerces_json_numbers(self):
        record = make_sample(7).to_record()
        record["fleet_power"] = 150  # ints off the wire
        record["tick"] = 7.0
        sample = TelemetrySample.from_record(record)
        assert sample.fleet_power == 150.0
        assert isinstance(sample.fleet_power, float)
        assert sample.tick == 7 and isinstance(sample.tick, int)

    def test_samples_from_records_decodes_arrays(self):
        records = [make_sample(t).to_record() for t in (1, 2)]
        assert [s.tick for s in samples_from_records(records)] == [1, 2]


class TestTelemetryRing:
    def test_ring_keeps_newest_capacity_samples(self):
        ring = TelemetryRing(capacity=4)
        for tick in range(10):
            ring.record(make_sample(tick))
        assert [s.tick for s in ring.last()] == [6, 7, 8, 9]
        assert len(ring) == 4
        assert ring.latest().tick == 9

    def test_last_n_returns_newest_oldest_first(self):
        ring = TelemetryRing(capacity=8)
        for tick in range(5):
            ring.record(make_sample(tick))
        assert [s.tick for s in ring.last(2)] == [3, 4]
        assert [s.tick for s in ring.last(99)] == [0, 1, 2, 3, 4]
        with pytest.raises(ValidationError):
            ring.last(-1)

    def test_same_tick_sample_replaces_newest(self):
        ring = TelemetryRing(capacity=4)
        ring.record(make_sample(3, running_vms=1))
        ring.record(make_sample(3, running_vms=9))
        assert len(ring) == 1
        assert ring.latest().running_vms == 9

    def test_older_tick_is_dropped(self):
        ring = TelemetryRing(capacity=4)
        ring.record(make_sample(5))
        ring.record(make_sample(2))
        assert [s.tick for s in ring.last()] == [5]

    def test_capacity_zero_disables(self):
        ring = TelemetryRing(capacity=0)
        assert not ring.enabled
        ring.record(make_sample(1))
        assert len(ring) == 0 and ring.latest() is None

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValidationError):
            TelemetryRing(capacity=-1)

    def test_counter_events_on_simulated_clock(self):
        ring = TelemetryRing(capacity=8)
        ring.record(make_sample(2))
        ring.record(make_sample(3))
        events = ring.to_counter_events()
        assert len(events) == 6  # three tracks per sample
        assert {e.kind for e in events} == {COUNTER}
        assert {e.clock for e in events} == {"sim"}
        servers = [e for e in events if e.name == "fleet.servers"]
        assert [e.ts_ns for e in servers] == [2000, 3000]
        assert servers[0].args == {"active": 2, "asleep": 3, "failed": 0}
        power = [e for e in events if e.name == "fleet.power"]
        assert power[0].args == {"watts": 150.0}


class TestSLOConfig:
    def test_defaults_are_sane(self):
        config = SLOConfig()
        assert config.latency_objective == 0.1
        assert config.windows == (60.0, 300.0, 3600.0)

    @pytest.mark.parametrize("kwargs", [
        dict(latency_objective=0.0),
        dict(latency_target=1.0),
        dict(availability_target=0.0),
        dict(windows=()),
        dict(windows=(60.0, 60.0)),
        dict(windows=(300.0, 60.0)),
    ])
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            SLOConfig(**kwargs)

    def test_record_round_trip(self):
        config = SLOConfig(latency_objective=0.05, latency_target=0.95,
                           availability_target=0.99, windows=(30, 600))
        restored = SLOConfig.from_record(
            json.loads(json.dumps(config.to_record())))
        assert restored == config
        assert restored.windows == (30.0, 600.0)


class TestSLOTracker:
    def make(self, **kwargs):
        now = [0.0]
        tracker = SLOTracker(
            SLOConfig(latency_objective=0.1, latency_target=0.9,
                      availability_target=0.9, windows=(10.0, 100.0)),
            clock=lambda: now[0], **kwargs)
        return tracker, now

    def test_all_good_is_healthy_zero_burn(self):
        tracker, _ = self.make()
        for _ in range(10):
            tracker.observe(0.01)
        report = tracker.report()
        assert report["healthy"]
        assert report["totals"] == {"requests": 10, "errors": 0,
                                    "slow": 0}
        for window in report["windows"]:
            assert window["latency_burn_rate"] == 0.0
            assert window["availability_burn_rate"] == 0.0

    def test_burn_rate_math(self):
        tracker, _ = self.make()
        # 2 slow of 10 with a 10% budget -> burn 2.0; 1 error -> 1.0
        for i in range(10):
            tracker.observe(0.5 if i < 2 else 0.01, ok=i != 0)
        report = tracker.report()
        window = report["windows"][0]
        assert window["requests"] == 10
        assert window["latency_burn_rate"] == pytest.approx(2.0)
        assert window["availability_burn_rate"] == pytest.approx(1.0)
        assert not report["healthy"]  # latency burning above 1.0

    def test_windows_age_out_observations(self):
        tracker, now = self.make()
        tracker.observe(0.5)  # slow, at t=0
        now[0] = 50.0  # beyond the 10s window, inside the 100s one
        tracker.observe(0.01)
        report = tracker.report()
        short, long = report["windows"]
        assert short["requests"] == 1 and short["slow"] == 0
        assert long["requests"] == 2 and long["slow"] == 1
        # lifetime totals never age out
        assert report["totals"]["requests"] == 2

    def test_observations_beyond_longest_window_are_pruned(self):
        tracker, now = self.make()
        tracker.observe(0.01)
        now[0] = 1000.0
        tracker.observe(0.01)
        assert len(tracker._observations) == 1

    def test_capacity_bounds_memory(self):
        tracker, _ = self.make(capacity=4)
        for _ in range(10):
            tracker.observe(0.01)
        assert len(tracker._observations) == 4
        with pytest.raises(ValidationError):
            SLOTracker(capacity=0)

    def test_empty_tracker_reports_healthy(self):
        tracker, _ = self.make()
        report = tracker.report()
        assert report["healthy"]
        assert all(w["requests"] == 0 for w in report["windows"])


def full_scan_report(history, now, config, capacity):
    """The report as the tracker once built it: every observation into
    one deque capped at ``capacity`` and pruned past the longest window
    as it arrives, then, per report, a scan of all that is retained."""
    retained = deque(maxlen=capacity)

    def prune(at):
        while retained and retained[0][0] < at - config.windows[-1]:
            retained.popleft()

    for ts, latency, ok in history:
        retained.append((ts, latency <= config.latency_objective, ok))
        prune(ts)
    prune(now)
    windows, burning = [], False
    for window in config.windows:
        inside = [(fast, ok) for ts, fast, ok in retained
                  if now - ts <= window]
        slow = sum(not fast for fast, _ in inside)
        errors = sum(not ok for _, ok in inside)
        latency_burn = availability_burn = 0.0
        if inside:
            latency_burn = (slow / len(inside)) / (1 - config.latency_target)
            availability_burn = (errors / len(inside)) \
                / (1 - config.availability_target)
        burning |= latency_burn > 1.0 or availability_burn > 1.0
        windows.append({
            "window_seconds": window, "requests": len(inside),
            "slow": slow, "errors": errors,
            "latency_burn_rate": round(latency_burn, 6),
            "availability_burn_rate": round(availability_burn, 6)})
    totals = {"requests": len(history),
              "errors": sum(not ok for _, _, ok in history),
              "slow": sum(latency > config.latency_objective
                          for _, latency, _ in history)}
    return {"config": config.to_record(), "totals": totals,
            "windows": windows, "healthy": not burning}


STEPS = st.lists(st.tuples(
    st.sampled_from([0.0, 0.25, 1.0, 2.5, 7.0, 10.0, 40.0]),
    st.one_of(st.none(), st.tuples(st.sampled_from([0.01, 0.5]),
                                   st.booleans()))), max_size=60)


class TestSLOReportIsTheFullScan:
    """Running per-window counts answer what a scan of every retained
    observation answered, capacity eviction included."""

    @settings(max_examples=150, deadline=None)
    @given(steps=STEPS, capacity=st.integers(1, 12),
           windows=st.sampled_from([(10.0,), (2.5, 10.0),
                                    (1.0, 10.0, 40.0)]))
    def test_report_equals_the_full_scan(self, steps, capacity, windows):
        config = SLOConfig(latency_objective=0.1, latency_target=0.8,
                           availability_target=0.8, windows=windows)
        now = [0.0]
        tracker = SLOTracker(config, clock=lambda: now[0],
                             capacity=capacity)
        history = []
        for step, observed in steps:
            now[0] += step
            if observed is None:   # a report at this moment
                assert tracker.report() == full_scan_report(
                    history, now[0], config, capacity)
            else:
                latency, ok = observed
                tracker.observe(latency, ok=ok)
                history.append((now[0], latency, ok))
        assert tracker.report() == full_scan_report(
            history, now[0], config, capacity)

    def test_a_report_at_capacity_costs_no_scan(self):
        tracker = SLOTracker(clock=lambda: 5.0)
        for i in range(DEFAULT_CAPACITY + 10):
            tracker.observe(0.5 if i % 7 == 0 else 0.01, ok=i % 11 != 0)
        assert len(tracker._observations) == DEFAULT_CAPACITY
        costs = []
        for _ in range(20):
            started = time.perf_counter()
            report = tracker.report()
            costs.append(time.perf_counter() - started)
        assert report["windows"][0]["requests"] == DEFAULT_CAPACITY
        assert min(costs) < 1e-4, min(costs)


def answered(op, *, ok=True, latency_ms=0.1, trace_id="t",
             request_id="r", request=None, response=None, error=None):
    """A request record as the daemon leaves it once answered."""
    record = FlightRecord(0.0)
    record.answered = latency_ms / 1e3
    record.op, record.ok, record.error = op, ok, error
    record.ctx = TraceContext(trace_id, request_id)
    record.raw_request, record.raw_response = request, response
    return record


class TestFlightRecorder:
    def record_one(self, recorder, seq_op="place", ok=True, **kwargs):
        recorder.record(answered(
            seq_op, ok=ok, latency_ms=1.23456, trace_id="t" * 16,
            request_id="r" * 8,
            request=kwargs.get("request", {"op": seq_op}),
            response=kwargs.get("response", {"ok": ok}),
            error=kwargs.get("error")))

    def test_ring_keeps_newest(self):
        recorder = FlightRecorder(capacity=3)
        for i in range(5):
            recorder.record(answered(f"op{i}", request={}, response={}))
        assert [r.op for r in recorder.last()] == ["op2", "op3", "op4"]
        assert [r.seq for r in recorder.last()] == [3, 4, 5]
        assert len(recorder) == 3

    def test_compaction_drops_private_keys_and_truncates(self):
        recorder = FlightRecorder(capacity=2)
        request = {"op": "place_batch",
                   "_vms": ["parsed"],
                   "vms": list(range(MAX_LIST_ITEMS + 34)),
                   "note": "x" * (MAX_STRING_LENGTH + 10)}
        self.record_one(recorder, request=request)
        recorded = recorder.last()[0].request
        assert "_vms" not in recorded
        assert len(recorded["vms"]) == MAX_LIST_ITEMS + 1
        assert recorded["vms"][-1] == "... (+34 more)"
        assert recorded["note"].endswith("... (+10 chars)")

    def test_dump_is_json_safe_and_carries_error(self):
        recorder = FlightRecorder(capacity=4)
        self.record_one(recorder, ok=False, error="boom")
        self.record_one(recorder)
        dumped = json.loads(json.dumps(recorder.dump()))
        assert dumped[0]["error"] == "boom"
        assert "error" not in dumped[1]
        assert dumped[0]["latency_ms"] == 1.235  # rounded
        assert dumped[0]["trace_id"] == "t" * 16

    def test_dump_to_writes_document_with_reason(self, tmp_path):
        recorder = FlightRecorder(capacity=4)
        self.record_one(recorder)
        path = recorder.dump_to(tmp_path / "flight.json",
                                reason="unhandled RuntimeError")
        document = json.loads(path.read_text())
        assert document["reason"] == "unhandled RuntimeError"
        assert len(document["records"]) == 1

    def test_clipping_at_record_time_leaves_the_dump_as_it_was(self):
        # The ring clips one level when it records; what it dumps must
        # be the compaction of the payload as answered, byte for byte.
        request = {"op": "place_batch", "_vms": ["parsed"] * 40,
                   "vms": [{"vm_id": i, "tags": list(range(i)),
                            "_vm": object()} for i in range(40)],
                   "short": [1, 2], "nested": {"deep": list(range(30))},
                   "note": "x" * (MAX_STRING_LENGTH + 3)}
        response = {"ok": True, "decisions": [{"vm_id": i} for i in
                                              range(MAX_LIST_ITEMS + 1)],
                    "exact": list(range(MAX_LIST_ITEMS))}
        recorder = FlightRecorder(capacity=2)
        self.record_one(recorder, "place_batch", request=request,
                        response=response)
        [record] = recorder.last()
        assert len(record.raw_request["vms"]) == MAX_LIST_ITEMS
        assert "_vms" not in record.raw_request
        assert json.dumps(recorder.dump()[0]["request"]) == \
            json.dumps(_compact(request))
        assert json.dumps(recorder.dump()[0]["response"]) == \
            json.dumps(_compact(response))

    def test_a_large_batch_leaves_only_its_head_in_the_ring(self):
        daemon = AllocationDaemon(
            ClusterStateStore(Cluster.homogeneous(
                ServerSpec("s", 64.0, 64.0, 50.0, 100.0, 1.0), 40)),
            algorithm="first-fit")
        vms = [VM(vm_id=i, spec=VMSpec("t", cpu=0.5, memory=0.5),
                  interval=TimeInterval(1 + i // 100, 3 + i // 100))
               for i in range(10_000)]
        assert daemon.handle(place_batch_request(vms))["placed"] == 10_000
        # Everything the ring can reach, stopping at classes and
        # modules (which reach everything else).
        seen, todo, found = set(), [daemon.flight], []
        while todo:
            obj = todo.pop()
            if id(obj) in seen or isinstance(obj, (type, ModuleType)):
                continue
            seen.add(id(obj))
            found.append(obj)
            todo.extend(gc.get_referents(obj))
        assert not [obj for obj in found if isinstance(obj, VM)]
        records = [obj for obj in found
                   if isinstance(obj, dict) and "vm_id" in obj]
        # the request's head and the response's head, nothing else
        assert len(records) == 2 * MAX_LIST_ITEMS
        assert sum(sys.getsizeof(obj) for obj in found) < 64 * 1024

    def test_capacity_zero_disables(self):
        recorder = FlightRecorder(capacity=0)
        assert not recorder.enabled
        self.record_one(recorder)
        assert len(recorder) == 0
        with pytest.raises(ValidationError):
            FlightRecorder(capacity=-1)
