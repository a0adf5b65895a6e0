"""Tests for ServerState: feasibility, placement, incremental cost.

The incremental-cost computation is local (it perturbs only neighbouring
busy segments), so its key test is the property check against the
from-scratch Eq.-17 oracle over random placement sequences.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.allocators.state import ServerState
from repro.energy.cost import SleepPolicy, server_cost
from repro.exceptions import CapacityError
from repro.model.intervals import TimeInterval
from repro.model.phases import DemandPhase, PhasedVM
from repro.model.server import Server, ServerSpec
from repro.model.vm import VM, VMSpec
from repro.simulation.recovery import split_remainder

from conftest import book_answers, make_vm

SPEC = ServerSpec("s", cpu_capacity=10.0, memory_capacity=10.0,
                  p_idle=50.0, p_peak=100.0, transition_time=1.0)


def new_state(policy=SleepPolicy.OPTIMAL) -> ServerState:
    return ServerState(Server(0, SPEC), policy=policy)


class TestFits:
    def test_fits_on_empty(self):
        assert new_state().probe(make_vm(0, 1, 5, cpu=10.0, memory=10.0)).feasible

    def test_rejects_oversized(self):
        assert not new_state().probe(make_vm(0, 1, 5, cpu=10.5)).feasible
        assert not new_state().probe(make_vm(0, 1, 5, memory=10.5)).feasible

    def test_rejects_overlapping_overload(self):
        state = new_state()
        state.place(make_vm(0, 1, 5, cpu=6.0))
        assert not state.probe(make_vm(1, 3, 8, cpu=6.0)).feasible

    def test_accepts_disjoint_in_time(self):
        state = new_state()
        state.place(make_vm(0, 1, 5, cpu=10.0))
        assert state.probe(make_vm(1, 6, 9, cpu=10.0)).feasible

    def test_accepts_exact_fill(self):
        state = new_state()
        state.place(make_vm(0, 1, 5, cpu=4.0, memory=4.0))
        assert state.probe(make_vm(1, 1, 5, cpu=6.0, memory=6.0)).feasible

    def test_fits_beyond_tracked_horizon(self):
        state = new_state()
        state.place(make_vm(0, 1, 2))
        assert state.probe(make_vm(1, 100_000, 100_001, cpu=10.0)).feasible

    def test_memory_binding(self):
        state = new_state()
        state.place(make_vm(0, 1, 5, cpu=1.0, memory=8.0))
        assert not state.probe(make_vm(1, 2, 3, cpu=1.0, memory=3.0)).feasible

    @pytest.mark.parametrize("book", [ServerState.place,
                                      ServerState.place_trusted])
    def test_capacity_holds_before_tick_zero(self, book):
        state = new_state()
        book(state, make_vm(0, -30, -10, cpu=6.0))
        assert state._occ.peak(-30, -10) == (6.0, 1.0)
        assert not state.probe(make_vm(1, -20, -15, cpu=6.0)).feasible
        with pytest.raises(CapacityError):
            state.place(make_vm(1, -20, -15, cpu=6.0))
        assert state.probe(make_vm(1, -9, -1, cpu=6.0)).feasible

    def test_capacity_holds_across_tick_zero(self):
        state = new_state()
        state.place(make_vm(0, -5, 5, cpu=6.0))
        for start, end in [(-5, -3), (-1, 0), (0, 0), (3, 5)]:
            assert not state.probe(make_vm(1, start, end, cpu=6.0)).feasible
        assert state.probe(make_vm(1, 6, 9, cpu=6.0)).feasible

    @pytest.mark.parametrize("engine", ["indexed", "indexed:gamma=2"])
    def test_remove_frees_what_place_booked_at_any_sign(self, engine):
        state = ServerState(Server(0, SPEC), engine=engine)
        phased = PhasedVM.from_phases(0, -6, [DemandPhase(4, 6.0, 1.0),
                                              DemandPhase(8, 3.0, 2.0)])
        wide = VM(vm_id=1, spec=VMSpec("r", cpu=2.0, memory=1.0,
                                       cpu_radius=1.0, mem_radius=0.5),
                  interval=TimeInterval(-8, 4))
        state.place(phased)
        state.place(wide)
        assert state._occ.peak(-6, -3) == (8.0, 2.0)
        assert state._occ.peak(-2, 4) == (5.0, 3.0)
        state.remove(phased)
        state.remove(wide)
        assert state.occupancy_points() == 0
        assert state.probe(make_vm(2, -8, 5, cpu=10.0, memory=10.0)).feasible


class TestPlace:
    def test_place_returns_delta_and_accumulates(self):
        state = new_state()
        d1 = state.place(make_vm(0, 1, 2, cpu=2.0))
        d2 = state.place(make_vm(1, 5, 6, cpu=2.0))
        assert state.cost == pytest.approx(d1 + d2)

    def test_place_raises_on_overload(self):
        state = new_state()
        state.place(make_vm(0, 1, 5, cpu=6.0))
        with pytest.raises(CapacityError):
            state.place(make_vm(1, 1, 5, cpu=6.0))

    def test_usage_grows_across_horizon(self):
        state = new_state()
        state.place(make_vm(0, 1, 1000, cpu=3.0))
        assert not state.probe(make_vm(1, 999, 1000, cpu=8.0)).feasible
        assert state.probe(make_vm(1, 999, 1000, cpu=7.0)).feasible

    def test_busy_segments_merge(self):
        state = new_state()
        state.place(make_vm(0, 1, 3))
        state.place(make_vm(1, 4, 6))  # adjacent -> one segment
        assert state.busy_segments() == [TimeInterval(1, 6)]

    def test_busy_segments_keep_gaps(self):
        state = new_state()
        state.place(make_vm(0, 1, 2))
        state.place(make_vm(1, 9, 9))
        assert state.busy_segments() == [TimeInterval(1, 2),
                                         TimeInterval(9, 9)]

    def test_is_empty(self):
        state = new_state()
        assert state.is_empty
        state.place(make_vm(0, 1, 1))
        assert not state.is_empty

    def test_timeline_matches_segments(self):
        state = new_state()
        state.place(make_vm(0, 1, 2))
        state.place(make_vm(1, 7, 8))
        tl = state.timeline()
        assert tl.busy == (TimeInterval(1, 2), TimeInterval(7, 8))
        assert tl.idle == (TimeInterval(3, 6),)


class TestIncrementalCostOracle:
    """Local incremental cost must equal the full Eq.-17 recomputation."""

    def _check_sequence(self, placements, policy):
        state = new_state(policy)
        placed = []
        for i, (start, length) in enumerate(placements):
            vm = make_vm(i, start, start + length, cpu=0.5, memory=0.5)
            inc = state.incremental_cost(vm)
            oracle = (server_cost(SPEC, placed + [vm], policy=policy).total
                      - server_cost(SPEC, placed, policy=policy).total)
            assert inc == pytest.approx(oracle, abs=1e-9)
            delta = state.place(vm)
            assert delta == pytest.approx(oracle, abs=1e-9)
            placed.append(vm)
        assert state.cost == pytest.approx(
            server_cost(SPEC, placed, policy=policy).total, abs=1e-9)

    @settings(max_examples=150)
    @given(st.lists(st.tuples(st.integers(1, 50), st.integers(0, 12)),
                    min_size=1, max_size=12))
    def test_oracle_optimal_policy(self, placements):
        self._check_sequence(placements, SleepPolicy.OPTIMAL)

    @settings(max_examples=60)
    @given(st.lists(st.tuples(st.integers(1, 50), st.integers(0, 12)),
                    min_size=1, max_size=10))
    def test_oracle_never_sleep(self, placements):
        self._check_sequence(placements, SleepPolicy.NEVER_SLEEP)

    @settings(max_examples=60)
    @given(st.lists(st.tuples(st.integers(1, 50), st.integers(0, 12)),
                    min_size=1, max_size=10))
    def test_oracle_always_sleep(self, placements):
        self._check_sequence(placements, SleepPolicy.ALWAYS_SLEEP)

    def test_first_vm_pays_wake(self):
        state = new_state()
        vm = make_vm(0, 1, 1, cpu=2.0)
        # run 5*2*1=10, busy idle 50, wake 100
        assert state.incremental_cost(vm) == pytest.approx(160.0)

    def test_gap_interior_fill(self):
        state = new_state()
        state.place(make_vm(0, 1, 1))
        state.place(make_vm(1, 10, 10))
        # Filling the whole gap removes the gap cost min(400, 100)=100
        # and adds 8 busy-idle units (400).
        vm = make_vm(2, 2, 9, cpu=2.0)
        expected = 5 * 2 * 8 + 400 - 100
        assert state.incremental_cost(vm) == pytest.approx(expected)

    def test_extend_before_first_segment(self):
        state = new_state()
        state.place(make_vm(0, 10, 11))
        # New VM at [1,2]: busy 100, new gap [3,9] costs min(350,100)=100.
        vm = make_vm(1, 1, 2, cpu=1.0)
        expected = 5 * 1 * 2 + 100 + 100
        assert state.incremental_cost(vm) == pytest.approx(expected)


# -- the cut: a resident stops at tick t - 1 ---------------------------------

#: Not dyadic rationals: float sums over them show their order.
ODD_SPEC = ServerSpec("odd", cpu_capacity=10.0, memory_capacity=10.0,
                      p_idle=51.3, p_peak=103.9, transition_time=1.0)
CUT_KINDS = ("plain", "phased", "gamma")
BOOK = st.lists(st.tuples(st.integers(1, 40), st.integers(0, 25),
                          st.sampled_from([1.1, 2.3, 3.7])),
                min_size=1, max_size=9)


def cut_vm(kind: str, vm_id: int, start: int, end: int, cpu: float):
    if kind == "phased" and end > start:
        first = (end - start + 1) // 2
        return PhasedVM.from_phases(vm_id, start, [
            DemandPhase(first, cpu, 1.0),
            DemandPhase(end - start + 1 - first, cpu / 2, 0.7)])
    radius = 0.3 * cpu if kind == "gamma" else 0.0
    return VM(vm_id=vm_id,
              spec=VMSpec("t", cpu=cpu, memory=1.0, cpu_radius=radius,
                          mem_radius=radius / 4),
              interval=TimeInterval(start, end))


def cut_book(kind: str, shapes) -> ServerState:
    state = ServerState(
        Server(0, ODD_SPEC),
        engine="indexed:gamma=2" if kind == "gamma" else "indexed")
    for i, (start, length, cpu) in enumerate(shapes):
        vm = cut_vm(kind, i, start, start + length, cpu)
        if state.probe(vm):
            state.place_trusted(vm)
    return state


def compacted(kind: str, shapes, time: int) -> ServerState:
    """The book as a live store carries it at tick ``time``: every
    resident that ended was retired when its last tick closed."""
    state = cut_book(kind, shapes)
    for vm in sorted(state.vms, key=lambda v: v.end):
        if vm.end < time:
            state.retire(vm, before=vm.end)
    return state


class TestCut:
    @pytest.mark.parametrize("kind", CUT_KINDS)
    @settings(max_examples=60, deadline=None)
    @given(shapes=BOOK, time=st.integers(2, 60), pick=st.integers(0, 8))
    def test_stay_put_price_is_the_swapped_book_price(
            self, kind, shapes, time, pick):
        book = cut_book(kind, shapes)
        spanning = [vm for vm in book.vms if vm.start < time <= vm.end]
        if not spanning:
            return
        piece = spanning[pick % len(spanning)]
        head, remainder, _ = split_remainder(piece, time, 500)
        before = (list(book.vms), book.busy_segments(), book.cost)
        price = book.incremental_cost_swapped(remainder, without=piece,
                                              time=time)
        assert (list(book.vms), book.busy_segments(), book.cost) == before
        twin = cut_book(kind, shapes)
        twin.remove(piece)
        twin.place_trusted(head)
        assert price.hex() == twin.incremental_cost(remainder).hex()
        # ... and a book that forgot its past prices it the same.
        live = compacted(kind, shapes, time)
        assert live.incremental_cost_swapped(
            remainder, without=piece, time=time).hex() == price.hex()

    @pytest.mark.parametrize("kind", CUT_KINDS)
    @settings(max_examples=60, deadline=None)
    @given(shapes=BOOK, time=st.integers(2, 60), pick=st.integers(0, 8))
    def test_cut_answers_like_remove_then_place_the_head(
            self, kind, shapes, time, pick):
        twin = cut_book(kind, shapes)
        running = [vm for vm in twin.vms if vm.end >= time]
        if not running:
            return
        piece = running[pick % len(running)]    # started or not
        head, _, _ = split_remainder(piece, time, 500)
        live = compacted(kind, shapes, time)
        old_cost = live.cost
        decrease = live.cut(piece, time, head)
        expected = twin.remove(piece)
        if head is not None:
            expected -= twin.place_trusted(head)
        assert decrease == pytest.approx(expected, rel=1e-12, abs=1e-9)
        assert live.cost == pytest.approx(twin.cost, rel=1e-12, abs=1e-9)
        assert live.cost == pytest.approx(old_cost - decrease, abs=1e-9)
        assert live.vms == [vm for vm in twin.vms
                            if vm.end >= time or vm is head]
        assert book_answers(live, time) == book_answers(twin, time)
        # The O(live) twin: heads dropped, the same prices, and the
        # occupancy of a book that never held the piece — no residue
        # of the subtraction.
        copy = live.live_copy(time)
        assert copy.cost == live.cost
        assert copy.vms == [vm for vm in live.vms if vm.end >= time]
        never = ServerState(live.server, engine=live.engine_config)
        for vm in copy.vms:
            never.place_trusted(vm)
        usage, verdicts, prices = book_answers(copy, time)
        assert (usage, verdicts) == book_answers(never, time)[:2]
        assert prices == book_answers(live, time)[2]

    def test_cut_to_nothing_gives_back_the_wake(self):
        state = ServerState(Server(0, ODD_SPEC))
        vm = make_vm(0, 10, 20, cpu=2.3)
        paid = state.place(vm)
        assert state.cut(vm, 5) == pytest.approx(paid, rel=1e-12)
        assert state.cost == 0.0 and state.is_pristine
        assert state.occupancy_points() == 0
        assert state.place(vm) == paid      # alpha is charged again

    def test_cut_of_the_last_resident_keeps_the_spent_head(self):
        state = ServerState(Server(0, SPEC))
        vm = make_vm(0, 1, 10, cpu=2.0)
        state.place(vm)
        head, _, _ = split_remainder(vm, 5, 100)
        # run 5*2*6 = 60 and busy idle 50*6 = 300 leave; the wake stays
        assert state.cut(vm, 5, head) == pytest.approx(360.0)
        assert state.vms == [head]
        assert state.busy_segments() == [TimeInterval(1, 4)]
        assert state.cost == pytest.approx(
            server_cost(SPEC, [head]).total)

    def test_cut_rejects_a_stranger(self):
        state = ServerState(Server(0, SPEC))
        state.place(make_vm(0, 1, 10))
        with pytest.raises(CapacityError):
            state.cut(make_vm(1, 1, 10), 5)
        with pytest.raises(CapacityError):
            state.incremental_cost_swapped(
                make_vm(2, 5, 10), without=make_vm(1, 1, 10), time=5)
