"""Regression tests for the candidate counters on every allocator.

``candidates_evaluated`` counts probes actually performed by the most
recent ``select``; ``candidates_feasible`` counts the admissible ones.
Before the counters were centralised in ``Allocator._examine``, the
scan-order overrides (first-fit, round-robin, ffps) each maintained them
ad hoc and drifted from the base class; these tests pin the semantics per
algorithm so the service's candidate histogram compares like with like.
"""

from __future__ import annotations

from contextlib import nullcontext

import pytest

from repro.allocators import allocator_names, make_allocator
from repro.allocators.state import ServerState
from repro.model.intervals import TimeInterval
from repro.model.server import Server, ServerSpec
from repro.model.vm import VM, VMSpec

from conftest import make_vm, probe_route

SPEC = ServerSpec("s", cpu_capacity=10.0, memory_capacity=10.0,
                  p_idle=50.0, p_peak=100.0, transition_time=1.0)


def _fleet(allocator, n=4):
    """n servers; 0 and 1 pre-loaded so a cpu=6 VM only fits on 2, 3."""
    states = [ServerState(Server(i, SPEC)) for i in range(n)]
    states[0].place(make_vm(100, 1, 10, cpu=6.0))
    states[1].place(make_vm(101, 1, 10, cpu=6.0))
    allocator.prepare(states)
    return states


class TestCounterSemantics:
    @pytest.mark.parametrize("algo", allocator_names())
    @pytest.mark.parametrize("route", ["indexed", "scan"])
    def test_invariants_hold_for_every_algorithm(self, algo, route):
        allocator = make_allocator(algo, seed=0)
        with probe_route("unindexed") if route == "scan" \
                else nullcontext():
            states = _fleet(allocator)
        chosen = allocator.select(make_vm(0, 1, 10, cpu=6.0), states)
        assert chosen is not None
        assert 1 <= allocator.candidates_evaluated <= len(states)
        assert 1 <= allocator.candidates_feasible \
            <= allocator.candidates_evaluated
        assert chosen.probe(make_vm(0, 1, 10, cpu=6.0)).feasible

    @pytest.mark.parametrize("algo", allocator_names())
    def test_counters_reset_between_selects(self, algo):
        allocator = make_allocator(algo, seed=0)
        states = _fleet(allocator)
        allocator.select(make_vm(0, 1, 10, cpu=6.0), states)
        first = (allocator.candidates_evaluated,
                 allocator.candidates_feasible)
        allocator.select(make_vm(1, 20, 30, cpu=6.0), states)
        assert allocator.candidates_evaluated <= len(states)
        assert first[0] <= len(states)  # not cumulative across selects

    @pytest.mark.parametrize("algo", allocator_names())
    def test_no_feasible_server_reports_zero_feasible(self, algo):
        allocator = make_allocator(algo, seed=0)
        states = _fleet(allocator, n=2)  # both pre-loaded
        chosen = allocator.select(make_vm(0, 1, 10, cpu=6.0), states)
        assert chosen is None
        assert allocator.candidates_feasible == 0
        assert allocator.candidates_evaluated >= 1


class TestScanOrderCounters:
    def test_first_fit_stops_at_first_feasible(self):
        allocator = make_allocator("first-fit")
        states = _fleet(allocator)
        allocator.select(make_vm(0, 1, 10, cpu=6.0), states)
        # probed 0 (infeasible), 1 (infeasible), 2 (hit) — never saw 3
        assert allocator.candidates_evaluated == 3
        assert allocator.candidates_feasible == 1

    def test_round_robin_counts_from_its_pointer(self):
        allocator = make_allocator("round-robin")
        states = _fleet(allocator)
        allocator.select(make_vm(0, 1, 10, cpu=6.0), states)  # -> server 2
        assert allocator.candidates_evaluated == 3
        allocator.select(make_vm(1, 1, 10, cpu=2.0), states)  # -> server 3
        assert allocator.candidates_evaluated == 1
        assert allocator.candidates_feasible == 1

    def test_ffps_probes_its_whole_shuffled_order(self):
        allocator = make_allocator("ffps", seed=0)
        states = _fleet(allocator)
        allocator.select(make_vm(0, 1, 10, cpu=2.0), states)
        # cpu=2 fits everywhere: first probe in the shuffled order hits
        assert allocator.candidates_evaluated == 1
        assert allocator.candidates_feasible == 1

    def test_exhaustive_scorers_probe_all_unindexed(self):
        for algo in ("best-fit", "worst-fit", "random-fit"):
            allocator = make_allocator(algo, seed=0)
            with probe_route("unindexed"):
                states = _fleet(allocator)
            allocator.select(make_vm(0, 1, 10, cpu=6.0), states)
            assert allocator.candidates_evaluated == 4, algo
            assert allocator.candidates_feasible == 2, algo

    def test_min_energy_dedups_pristine_servers(self):
        allocator = make_allocator("min-energy")
        states = _fleet(allocator)
        allocator.select(make_vm(0, 1, 10, cpu=6.0), states)
        # 0, 1 probed (infeasible); 2 probed as the pristine
        # representative; 3 is an interchangeable clone — skipped.
        assert allocator.candidates_evaluated == 3
        assert allocator.candidates_feasible == 1

    def test_static_pruning_skips_impossible_types(self):
        tiny = ServerSpec("tiny", cpu_capacity=2.0, memory_capacity=2.0,
                          p_idle=10.0, p_peak=20.0, transition_time=1.0)
        allocator = make_allocator("first-fit")
        states = [ServerState(Server(0, tiny), engine="indexed"),
                  ServerState(Server(1, tiny), engine="indexed"),
                  ServerState(Server(2, SPEC), engine="indexed")]
        allocator.prepare(states)
        chosen = allocator.select(make_vm(0, 1, 5, cpu=6.0), states)
        assert chosen is states[2]
        # tiny servers were pruned by type, never probed
        assert allocator.candidates_evaluated == 1
        assert allocator.candidates_feasible == 1

    @pytest.mark.parametrize("algo", ["min-energy", "first-fit",
                                      "best-fit", "random-fit"])
    @pytest.mark.parametrize("kernel", ["on", "off"])
    def test_static_pruning_charges_the_radii_on_a_robust_fleet(
            self, algo, kernel):
        # 20 cpu and a 6-cpu radius: under Γ >= 1 a 24-cpu type's probe
        # refuses it on capacity, so the index prunes that type too.
        small = ServerSpec("small", cpu_capacity=24.0, memory_capacity=24.0,
                           p_idle=50.0, p_peak=100.0, transition_time=1.0)
        big = ServerSpec("big", cpu_capacity=48.0, memory_capacity=48.0,
                         p_idle=90.0, p_peak=180.0, transition_time=1.0)
        allocator = make_allocator(algo, seed=0, engine="indexed:gamma=2")
        states = [ServerState(Server(i, spec), engine=allocator.engine_config)
                  for i, spec in enumerate((small, small, big))]
        allocator.prepare(states)
        vm = VM(vm_id=0, spec=VMSpec("r", cpu=20.0, memory=4.0,
                                     cpu_radius=6.0),
                interval=TimeInterval(1, 10))
        assert states[0].probe(vm).reason == "cpu:capacity"
        with probe_route("kernel" if kernel == "on" else "scalar"):
            assert allocator.select(vm, states) is states[2]
        assert allocator.candidates_evaluated == 1
        assert allocator.candidates_feasible == 1


class TestExplainCounters:
    @pytest.mark.parametrize("algo", allocator_names())
    def test_explain_reports_the_embedded_select_counters(self, algo):
        allocator = make_allocator(algo, seed=0)
        states = _fleet(allocator)
        vm = make_vm(0, 1, 10, cpu=6.0)
        chosen, explanation = allocator.explain_select(vm, states)
        explained = (allocator.candidates_evaluated,
                     allocator.candidates_feasible)
        # Replaying plain select from the same state gives the same counts
        # (stateful scan orders are re-prepared to rewind their pointer).
        replay = make_allocator(algo, seed=0)
        replay_states = _fleet(replay)
        replay.select(vm, replay_states)
        assert explained == (replay.candidates_evaluated,
                             replay.candidates_feasible)
        # And the explanation itself still covers the whole fleet.
        assert len(explanation.candidates) == len(states)

    def test_explain_prices_each_candidate_once(self, monkeypatch):
        # min-energy's cost terms and its score (the incremental cost)
        # come from one idle_delta per feasible candidate
        allocator = make_allocator("min-energy")
        states = _fleet(allocator)
        vm = make_vm(0, 1, 10, cpu=2.0)
        calls = 0
        idle_delta = ServerState.idle_delta

        def counted(state, interval):
            nonlocal calls
            calls += 1
            return idle_delta(state, interval)

        monkeypatch.setattr(ServerState, "idle_delta", counted)
        allocator.select(vm, states)
        walked, calls = calls, 0
        _, explanation = allocator.explain_select(vm, states)
        feasible = [v for v in explanation.candidates if v.feasible]
        assert len(feasible) == len(states)
        assert calls == walked + len(feasible)
        monkeypatch.undo()
        by_id = {state.server.server_id: state for state in states}
        assert [v.score for v in feasible] \
            == [by_id[v.server_id].incremental_cost(vm) for v in feasible]
