"""Unit tests for the placement engine: occupancy indexes, probe(), and
the candidate index (the pre-probe wrapper trio is gone)."""

from __future__ import annotations

import pytest

from repro.allocators.state import ServerState
from repro.model.intervals import TimeInterval
from repro.model.server import Server, ServerSpec
from repro.exceptions import ValidationError
from repro.placement import (
    CandidateIndex,
    EngineConfig,
    Feasibility,
    SkylineOccupancy,
)
from repro.placement.occupancy import make_occupancy
from repro.robust import RobustnessConfig
from repro.robust.skyline import RobustSkyline

from conftest import make_vm

SPEC = ServerSpec("s", cpu_capacity=10.0, memory_capacity=10.0,
                  p_idle=50.0, p_peak=100.0, transition_time=1.0)


#: nominal probing, and a Γ config too small to be active: one code path
SPECS = ("indexed", "indexed:gamma=0")


def new_state(engine: str = "indexed") -> ServerState:
    return ServerState(Server(0, SPEC), engine=engine)


class TestSkylineOccupancy:
    def test_empty_peak_is_zero(self):
        occ = SkylineOccupancy()
        assert occ.peak(0, 1000) == (0.0, 0.0)
        assert len(occ) == 0

    def test_add_creates_two_change_points(self):
        occ = SkylineOccupancy()
        occ.add(5, 9, 2.0, 1.0)
        assert occ.points() == [5, 10]
        assert occ.peak(5, 9) == (2.0, 1.0)
        assert occ.peak(0, 4) == (0.0, 0.0)
        assert occ.peak(10, 99) == (0.0, 0.0)

    def test_closed_interval_semantics(self):
        occ = SkylineOccupancy()
        occ.add(3, 3, 1.0, 1.0)  # a single time unit
        assert occ.peak(3, 3) == (1.0, 1.0)
        assert occ.peak(2, 2) == (0.0, 0.0)
        assert occ.peak(4, 4) == (0.0, 0.0)

    def test_overlapping_adds_stack(self):
        occ = SkylineOccupancy()
        occ.add(1, 10, 2.0, 1.0)
        occ.add(5, 15, 3.0, 1.0)
        assert occ.peak(1, 4) == (2.0, 1.0)
        assert occ.peak(5, 10) == (5.0, 2.0)
        assert occ.peak(11, 15) == (3.0, 1.0)

    def test_subtract_restores_and_coalesces(self):
        occ = SkylineOccupancy()
        occ.add(1, 10, 2.0, 1.0)
        occ.add(5, 15, 3.0, 1.0)
        occ.subtract(5, 15, 3.0, 1.0)
        assert occ.points() == [1, 11]
        occ.subtract(1, 10, 2.0, 1.0)
        assert len(occ) == 0

    def test_memory_independent_of_horizon(self):
        occ = SkylineOccupancy()
        occ.add(10**9, 10**9 + 5, 1.0, 1.0)
        assert len(occ) == 2  # not horizon-proportional

    def test_probe_piece_fits(self):
        occ = SkylineOccupancy()
        occ.add(1, 5, 4.0, 4.0)
        reason, pc, pm = occ.probe_piece(1, 5, 6.0, 6.0, 10.0, 10.0, 1e-9)
        assert reason is None
        assert (pc, pm) == (4.0, 4.0)

    def test_probe_piece_reports_first_cpu_violation(self):
        occ = SkylineOccupancy()
        occ.add(4, 8, 6.0, 1.0)
        reason, pc, pm = occ.probe_piece(1, 10, 5.0, 1.0, 10.0, 10.0, 1e-9)
        assert reason == "cpu:overlap@4"
        assert pc == 6.0

    def test_probe_piece_cpu_wins_over_mem(self):
        occ = SkylineOccupancy()
        occ.add(2, 3, 1.0, 9.0)   # earlier mem violation
        occ.add(6, 7, 9.0, 1.0)   # later cpu violation
        reason, _, _ = occ.probe_piece(1, 10, 5.0, 5.0, 10.0, 10.0, 1e-9)
        assert reason == "cpu:overlap@6"  # cpu checked before memory

    def test_probe_violation_clamped_to_piece_start(self):
        occ = SkylineOccupancy()
        occ.add(1, 10, 9.0, 1.0)
        reason, _, _ = occ.probe_piece(5, 7, 5.0, 1.0, 10.0, 10.0, 1e-9)
        assert reason == "cpu:overlap@5"  # segment opened before the piece

    def test_compact_preserves_future_queries(self):
        occ = SkylineOccupancy()
        occ.add(1, 3, 1.0, 1.0)
        occ.add(6, 9, 2.0, 2.0)
        occ.add(20, 25, 3.0, 3.0)
        before = occ.peak(15, 30)
        occ.compact(15)
        assert occ.peak(15, 30) == before
        assert len(occ.points()) <= 3

    def test_compact_drops_leading_zeros(self):
        occ = SkylineOccupancy()
        occ.add(1, 3, 1.0, 1.0)
        occ.compact(10)  # usage at 10 is zero: nothing left to keep
        assert len(occ) == 0


class TestMakeOccupancy:
    def test_engines(self):
        assert type(make_occupancy()) is SkylineOccupancy
        assert type(make_occupancy(RobustnessConfig(gamma=0))) \
            is SkylineOccupancy
        assert isinstance(make_occupancy(RobustnessConfig(gamma=1)),
                          RobustSkyline)

    def test_unknown_engine_raises(self):
        with pytest.raises(ValidationError,
                           match="unknown placement engine 'quantum'"):
            EngineConfig.parse("quantum")


class TestProbe:
    @pytest.mark.parametrize("engine", SPECS)
    def test_feasible_verdict_is_truthy(self, engine):
        verdict = new_state(engine).probe(make_vm(0, 1, 5, cpu=10.0))
        assert verdict
        assert verdict.feasible and verdict.reason is None

    @pytest.mark.parametrize("engine", SPECS)
    def test_static_capacity_reasons(self, engine):
        state = new_state(engine)
        assert state.probe(make_vm(0, 1, 5, cpu=10.5)).reason == \
            "cpu:capacity"
        assert state.probe(make_vm(0, 1, 5, memory=10.5)).reason == \
            "mem:capacity"

    @pytest.mark.parametrize("engine", SPECS)
    def test_overlap_reason_names_first_violation(self, engine):
        state = new_state(engine)
        state.place(make_vm(0, 4, 8, cpu=6.0))
        verdict = state.probe(make_vm(1, 1, 10, cpu=6.0))
        assert not verdict
        assert verdict.reason == "cpu:overlap@4"

    @pytest.mark.parametrize("engine", SPECS)
    def test_peaks_and_headroom(self, engine):
        state = new_state(engine)
        state.place(make_vm(0, 1, 5, cpu=3.0, memory=2.0))
        verdict = state.probe(make_vm(1, 1, 5, cpu=1.0, memory=1.0))
        assert (verdict.peak_cpu, verdict.peak_mem) == (3.0, 2.0)
        assert (verdict.headroom_cpu, verdict.headroom_mem) == (7.0, 8.0)

    def test_feasibility_is_a_named_tuple(self):
        verdict = Feasibility(True, None, 1.0, 2.0, 9.0, 8.0)
        assert verdict.peak_cpu == 1.0
        assert bool(verdict) is True
        assert bool(verdict._replace(feasible=False)) is False


class TestRemovedWrappers:
    def test_deprecated_trio_is_gone(self):
        # The pre-probe fits/fit_reason/peak_usage wrappers completed
        # their deprecation cycle and were removed; probe() answers all
        # three questions in one pass.
        state = new_state()
        for name in ("fits", "fit_reason", "peak_usage"):
            assert not hasattr(state, name)

    def test_probe_covers_the_removed_surface(self):
        state = new_state()
        state.place(make_vm(0, 1, 5, cpu=3.0, memory=2.0))
        verdict = state.probe(make_vm(1, 3, 8, cpu=6.0))
        assert bool(verdict) is verdict.feasible
        assert verdict.reason is None
        assert (verdict.peak_cpu, verdict.peak_mem) == (3.0, 2.0)


class TestRetireAndCompact:
    def test_retire_keeps_cost_and_shrinks_vms(self):
        state = new_state()
        vm = make_vm(0, 1, 5, cpu=2.0)
        delta = state.place(vm)
        state.retire(vm, before=6)
        assert state.vms == []
        assert state.cost == delta  # energy stays on the books

    def test_retired_server_still_prices_future_like_untouched_twin(self):
        compacted, control = new_state(), new_state()
        old = make_vm(0, 1, 5, cpu=2.0)
        for st in (compacted, control):
            st.place(old)
        compacted.retire(old, before=6)
        future = make_vm(1, 40, 45, cpu=2.0)
        assert compacted.probe(future) == control.probe(future)
        assert compacted.incremental_cost(future) == \
            control.incremental_cost(future)

    def test_compact_bounds_occupancy_points(self):
        state = new_state()
        for i in range(50):
            vm = make_vm(i, 10 * i + 1, 10 * i + 4, cpu=1.0)
            state.place(vm)
            state.retire(vm, before=10 * i + 5)
        assert state.occupancy_points() <= 4

    def test_retire_unknown_vm_raises(self):
        from repro.exceptions import CapacityError
        with pytest.raises(CapacityError):
            new_state().retire(make_vm(0, 1, 5))

    def test_is_pristine(self):
        state = new_state()
        assert state.is_pristine
        vm = make_vm(0, 1, 5)
        state.place(vm)
        assert not state.is_pristine
        state.retire(vm, before=6)
        assert not state.is_pristine  # history: wake already paid


class TestCandidateIndex:
    def _fleet(self):
        small = ServerSpec("small", cpu_capacity=4.0, memory_capacity=4.0,
                           p_idle=20.0, p_peak=40.0, transition_time=1.0)
        states = [ServerState(Server(0, SPEC)),
                  ServerState(Server(1, small)),
                  ServerState(Server(2, SPEC))]
        return states, CandidateIndex(states)

    def test_covers_is_identity_bound(self):
        states, index = self._fleet()
        assert index.covers(states)
        assert not index.covers(list(states))  # equal but not identical

    def test_candidates_returns_original_list_when_all_admit(self):
        states, index = self._fleet()
        assert index.candidates(make_vm(0, 1, 5, cpu=1.0)) is states

    def test_candidates_filters_by_spec_preserving_order(self):
        states, index = self._fleet()
        picked = index.candidates(make_vm(0, 1, 5, cpu=6.0))
        assert [st.server.server_id for st in picked] == [0, 2]

    def test_spec_admits_keyed_by_spec_identity(self):
        states, index = self._fleet()
        admits = index.spec_admits(make_vm(0, 1, 5, memory=6.0))
        assert admits[id(SPEC)] is True
        assert admits[id(states[1].server.spec)] is False
