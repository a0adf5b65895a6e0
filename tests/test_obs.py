"""Tests for the observability subsystem: tracer, explain-traces,
exporters."""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.allocators import (
    MinIncrementalEnergy,
    RandomFit,
    RoundRobin,
    allocator_names,
    make_allocator,
)
from repro.allocators.state import ServerState
from repro.exceptions import ValidationError
from repro.model.cluster import Cluster
from repro.model.constraints import PlacementConstraints
from repro.model.server import ServerSpec
from repro.obs import (
    NULL_TRACER,
    CostTerms,
    ExplainRecorder,
    PlacementExplanation,
    Tracer,
    format_decision_table,
    get_tracer,
    load_chrome_trace,
    read_jsonl,
    set_tracer,
    summarize_chrome_trace,
    to_chrome_trace,
    use_tracer,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.tracer import COUNTER, INSTANT, SPAN
from repro.simulation import simulate_online
from repro.simulation.admission import offer
from repro.workload.generator import generate_vms

from conftest import make_vm

SPEC = ServerSpec("s", cpu_capacity=10.0, memory_capacity=10.0,
                  p_idle=50.0, p_peak=100.0, transition_time=1.0)


class FakeClock:
    """A deterministic nanosecond clock advancing 100 ns per read."""

    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        self.now += 100
        return self.now


class TestTracer:
    def test_span_records_duration_and_attrs(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("work", phase="outer") as span:
            span.set(result=42)
        (event,) = tracer.events
        assert event.kind == SPAN
        assert event.name == "work"
        assert event.dur_ns == 100
        assert event.args == {"phase": "outer", "result": 42}
        assert event.tid == threading.get_ident()

    def test_nested_spans_close_inner_first(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        names = [e.name for e in tracer.events]
        assert names == ["inner", "outer"]
        inner, outer = tracer.events
        # The inner span nests strictly inside the outer one.
        assert outer.ts_ns <= inner.ts_ns
        assert inner.ts_ns + inner.dur_ns <= outer.ts_ns + outer.dur_ns

    def test_instant_and_counter(self):
        tracer = Tracer(clock=FakeClock())
        tracer.instant("hit", vm_id=7)
        tracer.counter("fleet", ts_ns=5000, clock="sim", power=120.0)
        instant, counter = tracer.events
        assert instant.kind == INSTANT and instant.args == {"vm_id": 7}
        assert counter.kind == COUNTER
        assert counter.ts_ns == 5000 and counter.clock == "sim"
        assert counter.args == {"power": 120.0}

    def test_a_finished_span_reads_like_a_timed_one(self):
        tracer = Tracer()
        started = time.perf_counter()
        with tracer.span("outer"):
            begun = time.perf_counter()
            ended = begun + 2.5e-6
            tracer.finished_span("stage", begun, ended, server_id=3)
            while time.perf_counter() <= ended:  # the stage's made-up end
                pass                             # must fall inside outer
        stage, outer = tracer.events
        assert stage.kind == SPAN and stage.name == "stage"
        assert stage.ts_ns == round(begun * 1e9)
        assert stage.ts_ns + stage.dur_ns == round(ended * 1e9)
        assert stage.args == {"server_id": 3}
        assert stage.tid == threading.get_ident()
        # the perf_counter timeline is the default clock's: it nests
        assert round(started * 1e9) <= stage.ts_ns
        assert outer.ts_ns <= stage.ts_ns
        assert stage.ts_ns + stage.dur_ns <= outer.ts_ns + outer.dur_ns

    def test_span_event_records_instant_inside(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("outer") as span:
            span.event("milestone", step=1)
        assert [e.kind for e in tracer.events] == [INSTANT, SPAN]

    def test_clear_and_len_and_filter(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("a"):
            pass
        tracer.instant("b")
        assert len(tracer) == 2
        assert [e.name for e in tracer.spans()] == ["a"]
        assert tracer.spans("nope") == []
        tracer.clear()
        assert len(tracer) == 0

    def test_null_tracer_is_default_and_records_nothing(self):
        assert get_tracer() is NULL_TRACER
        assert not NULL_TRACER.enabled
        span = NULL_TRACER.span("x", attr=1)
        with span as inner:
            inner.set(foo=2).event("y")
        NULL_TRACER.instant("z")
        NULL_TRACER.counter("c", power=1.0)
        NULL_TRACER.finished_span("s", 1.0, 2.0, attr=3)
        assert len(NULL_TRACER) == 0
        # every call hands out the one shared singleton span
        assert NULL_TRACER.span("other") is span

    def test_use_tracer_installs_and_restores(self):
        tracer = Tracer()
        assert get_tracer() is NULL_TRACER
        with use_tracer(tracer) as active:
            assert active is tracer
            assert get_tracer() is tracer
            assert get_tracer().enabled
        assert get_tracer() is NULL_TRACER

    def test_set_tracer_none_restores_default(self):
        tracer = Tracer()
        previous = set_tracer(tracer)
        try:
            assert previous is NULL_TRACER
            assert get_tracer() is tracer
        finally:
            assert set_tracer(None) is tracer
        assert get_tracer() is NULL_TRACER

    def test_concurrent_spans_keep_their_thread_ids(self):
        tracer = Tracer()
        barrier = threading.Barrier(4)  # alive together: no id reuse

        def work():
            barrier.wait()
            with tracer.span("w"):
                pass

        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(tracer) == 4
        assert len({e.tid for e in tracer.events}) == 4


class TestExplain:
    def _states(self, n=2, spec=SPEC):
        cluster = Cluster.homogeneous(spec, n)
        return [ServerState(server) for server in cluster]

    def test_cpu_capacity_reason(self):
        states = self._states(1)
        assert states[0].probe(
            make_vm(0, 1, 5, cpu=99.0)).reason == "cpu:capacity"

    def test_mem_capacity_reason(self):
        states = self._states(1)
        assert states[0].probe(
            make_vm(0, 1, 5, memory=99.0)).reason == "mem:capacity"

    def test_overlap_reason_names_first_offending_tick(self):
        states = self._states(1)
        states[0].place(make_vm(0, 3, 8, cpu=8.0))
        reason = states[0].probe(make_vm(1, 1, 5, cpu=8.0)).reason
        assert reason == "cpu:overlap@3"

    def test_probe_reason_none_when_feasible(self):
        states = self._states(1)
        assert states[0].probe(make_vm(0, 1, 5)).reason is None

    def test_cost_terms_match_incremental_cost(self):
        states = self._states(1)
        vm = make_vm(0, 1, 5, cpu=2.0)
        terms = states[0].cost_terms(vm)
        assert terms.wake == SPEC.transition_cost
        assert terms.total == pytest.approx(states[0].incremental_cost(vm))

    def test_explain_marks_chosen_with_minimal_score(self):
        states = self._states(3)
        allocator = MinIncrementalEnergy()
        allocator.prepare(states)
        chosen, explanation = allocator.explain_select(
            make_vm(0, 1, 5), states)
        assert chosen is not None
        assert explanation.decision == "placed"
        assert explanation.server_id == chosen.server.server_id
        verdict = explanation.chosen
        assert verdict is not None and verdict.feasible
        scores = [v.score for v in explanation.candidates if v.feasible]
        assert verdict.score == min(scores)
        assert verdict.cost is not None
        assert verdict.cost.total == pytest.approx(verdict.score)

    def test_rejected_vm_explains_every_candidate(self):
        states = self._states(3)
        allocator = MinIncrementalEnergy()
        allocator.prepare(states)
        chosen, explanation = allocator.explain_select(
            make_vm(0, 1, 5, cpu=50.0), states)
        assert chosen is None
        assert explanation.decision == "rejected"
        assert explanation.server_id is None
        assert len(explanation.candidates) == 3
        assert explanation.feasible_count == 0
        assert all(v.reason == "cpu:capacity"
                   for v in explanation.infeasible())

    def test_constraint_reason(self):
        states = self._states(2)
        constraints = PlacementConstraints.build(separate=[{0, 1}])
        allocator = MinIncrementalEnergy()
        allocator.prepare(states)
        allocator._constraints = constraints
        allocator._placed_ids = {0: states[0].server.server_id}
        _, explanation = allocator.explain_select(make_vm(1, 1, 5), states)
        assert explanation.candidates[0].reason == "constraint"

    def test_every_algorithm_explains_consistently(self):
        vms = [make_vm(i, 1 + i, 6 + i) for i in range(6)]
        for name in allocator_names():
            states = self._states(3)
            allocator = make_allocator(name, seed=0)
            allocator.prepare(states)
            for vm in vms:
                chosen, explanation = allocator.explain_select(vm, states)
                assert explanation.algorithm == allocator.name
                if chosen is None:
                    assert explanation.decision == "rejected"
                else:
                    verdict = explanation.chosen
                    assert verdict is not None and verdict.feasible
                    assert verdict.server_id == chosen.server.server_id
                    # the reported score must rank the chosen server at
                    # the top among feasible scored candidates
                    if verdict.score is not None:
                        scored = [v.score for v in explanation.candidates
                                  if v.feasible and v.score is not None]
                        assert verdict.score == min(scored)
                    chosen.place(vm)

    def test_random_fit_has_no_score(self):
        states = self._states(2)
        allocator = RandomFit(seed=0)
        allocator.prepare(states)
        _, explanation = allocator.explain_select(make_vm(0, 1, 5), states)
        assert all(v.score is None for v in explanation.candidates)

    def test_round_robin_scores_reflect_scan_order(self):
        states = self._states(3)
        allocator = RoundRobin()
        allocator.prepare(states)
        chosen, first = allocator.explain_select(make_vm(0, 1, 5), states)
        assert first.server_id == 0
        chosen.place(make_vm(0, 1, 5))
        # the selection advanced the scan pointer past server 0: server 1
        # is now the zero-score (next) candidate
        _, second = allocator.explain_select(make_vm(1, 1, 5), states)
        scores = {v.server_id: v.score for v in second.candidates}
        assert scores[1] == 0.0
        assert second.server_id == 1

    def test_explanation_round_trips_through_json(self):
        states = self._states(2)
        allocator = MinIncrementalEnergy()
        allocator.prepare(states)
        _, explanation = allocator.explain_select(make_vm(0, 1, 5), states)
        record = json.loads(json.dumps(explanation.to_record()))
        assert PlacementExplanation.from_record(record) == explanation

    def test_offer_records_admission_delay(self):
        states = self._states(1)
        states[0].place(make_vm(0, 1, 4, cpu=8.0))
        recorder = ExplainRecorder()
        allocator = MinIncrementalEnergy()
        allocator.prepare(states)
        decision = offer(make_vm(1, 2, 4, cpu=8.0), states, allocator,
                         max_delay=5, recorder=recorder)
        assert decision is not None and decision.delay == 3
        assert len(recorder) == 1
        assert recorder.last.delay == 3
        assert recorder.last.decision == "placed"

    def test_offer_rejection_keeps_undelayed_explanation(self):
        states = self._states(1)
        states[0].place(make_vm(0, 1, 9, cpu=8.0))
        recorder = ExplainRecorder()
        allocator = MinIncrementalEnergy()
        allocator.prepare(states)
        decision = offer(make_vm(1, 2, 8, cpu=8.0), states, allocator,
                         max_delay=1, recorder=recorder)
        assert decision is None
        assert len(recorder) == 1
        explanation = recorder.last
        assert explanation.decision == "rejected"
        assert explanation.delay == 0
        assert explanation.candidates[0].reason.startswith("cpu:overlap")

    def test_simulate_online_explain_collects_per_vm(self):
        vms = generate_vms(30, mean_interarrival=2.0, seed=3)
        allocation, result = simulate_online(
            vms, Cluster.paper_all_types(15), MinIncrementalEnergy(),
            explain=True)
        assert len(result.explanations) == len(vms)
        by_vm = {e.vm_id: e for e in result.explanations}
        for vm, server_id in allocation.items():
            assert by_vm[vm.vm_id].server_id == server_id
            assert by_vm[vm.vm_id].decision == "placed"

    def test_simulate_online_default_has_no_explanations(self):
        vms = generate_vms(10, mean_interarrival=2.0, seed=3)
        _, result = simulate_online(
            vms, Cluster.paper_all_types(8), MinIncrementalEnergy())
        assert result.explanations == ()

    def test_recorder_queries(self):
        recorder = ExplainRecorder()
        assert recorder.last is None
        placed = PlacementExplanation(
            vm_id=1, algorithm="a", decision="placed", server_id=0,
            delay=0, candidates=())
        rejected = PlacementExplanation(
            vm_id=2, algorithm="a", decision="rejected", server_id=None,
            delay=0, candidates=())
        recorder.record(placed)
        recorder.record(rejected)
        assert recorder.last is rejected
        assert recorder.for_vm(1) == [placed]
        assert recorder.rejected() == [rejected]
        assert list(recorder) == [placed, rejected]

    def test_decision_table_lists_every_decision(self):
        vms = generate_vms(12, mean_interarrival=2.0, seed=0)
        _, result = simulate_online(
            vms, Cluster.paper_all_types(8), MinIncrementalEnergy(),
            explain=True)
        table = format_decision_table(result.explanations)
        lines = table.splitlines()
        assert len(lines) == 2 + len(vms)
        assert "decision" in lines[0]

    def test_format_shows_failing_constraint(self):
        states = self._states(1)
        allocator = MinIncrementalEnergy()
        allocator.prepare(states)
        _, explanation = allocator.explain_select(
            make_vm(0, 1, 5, cpu=99.0), states)
        assert "infeasible: cpu:capacity" in explanation.format()

    def test_cost_terms_total(self):
        terms = CostTerms(run=10.0, idle_gap=2.5, wake=1.5)
        assert terms.total == 14.0
        assert CostTerms.from_record(terms.to_record()) == terms


class TestExport:
    def _traced_run(self):
        tracer = Tracer()
        vms = generate_vms(20, mean_interarrival=2.0, seed=1)
        with use_tracer(tracer):
            simulate_online(vms, Cluster.paper_all_types(10),
                            MinIncrementalEnergy())
        return tracer

    def test_chrome_trace_is_valid_and_monotone_per_tid(self):
        tracer = self._traced_run()
        document = to_chrome_trace(tracer.events)
        assert isinstance(document["traceEvents"], list)
        last: dict[tuple, float] = {}
        for event in document["traceEvents"]:
            assert event["ph"] in ("X", "i", "C", "M")
            if event["ph"] == "M":
                continue
            key = (event["pid"], event["tid"])
            assert event["ts"] >= last.get(key, float("-inf"))
            last[key] = event["ts"]
        # wall spans and simulated-time counters land on separate pids
        pids = {e["pid"] for e in document["traceEvents"]}
        assert pids == {1, 2}
        json.dumps(document)  # must be JSON-serializable as-is

    def test_write_and_load_chrome_trace(self, tmp_path):
        tracer = self._traced_run()
        path = tmp_path / "trace.json"
        written = write_chrome_trace(tracer.events, path)
        document = load_chrome_trace(path)
        assert len(document["traceEvents"]) == written
        digest = summarize_chrome_trace(document)
        assert "simulate_online" in digest
        assert "engine.replay" in digest

    def test_load_accepts_bare_array_variant(self, tmp_path):
        path = tmp_path / "bare.json"
        path.write_text('[{"name": "x", "ph": "X", "ts": 0, "dur": 1, '
                        '"pid": 1, "tid": 1}]')
        document = load_chrome_trace(path)
        assert len(document["traceEvents"]) == 1

    def test_load_rejects_non_trace_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"nope": 1}')
        with pytest.raises(ValidationError):
            load_chrome_trace(path)
        path.write_text("{not json")
        with pytest.raises(ValidationError):
            load_chrome_trace(path)

    def test_jsonl_round_trip_is_exact(self, tmp_path):
        tracer = self._traced_run()
        path = tmp_path / "events.jsonl"
        count = write_jsonl(tracer.events, path)
        assert count == len(tracer.events)
        assert list(read_jsonl(path)) == tracer.events

    def test_jsonl_rejects_malformed_line(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"kind": "instant", "name": "a", "ts_ns": 1}\n'
                        "{torn\n")
        with pytest.raises(ValidationError):
            list(read_jsonl(path))

    def test_summarize_empty_trace(self):
        assert summarize_chrome_trace({"traceEvents": []}) == "empty trace"

    def test_engine_replay_emits_sim_counters(self):
        tracer = Tracer()
        vms = generate_vms(10, mean_interarrival=2.0, seed=2)
        with use_tracer(tracer):
            _, result = simulate_online(
                vms, Cluster.paper_all_types(8), MinIncrementalEnergy())
        counters = [e for e in tracer.events if e.kind == COUNTER]
        assert len(counters) == result.horizon
        assert all(e.clock == "sim" for e in counters)
        assert {"power", "active_servers", "running_vms"} <= set(
            counters[0].args)

    def test_no_op_tracer_leaves_simulation_untraced(self):
        vms = generate_vms(10, mean_interarrival=2.0, seed=2)
        before = len(NULL_TRACER)
        simulate_online(vms, Cluster.paper_all_types(8),
                        MinIncrementalEnergy())
        assert len(NULL_TRACER) == before == 0
