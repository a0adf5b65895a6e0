"""Property tests: the skyline is bit-equivalent to a per-time-unit
timeline, ``ServerState.admits`` is ``probe(...).feasible`` on every
engine spec, a refusal the skyline remembers answers like the search it
skips (and min-energy's prefetch drops only servers that refuse), and a
server idle long enough before a VM answers it — and scores it — like a
pristine twin.

A random interleaving of place / remove / probe is applied to two
ServerStates that differ only in their occupancy: the skyline, and
:class:`_Timeline`, the paper's capacity rule (Eqs. 7–14) read
literally, one value per time unit. Verdicts and peaks must agree
exactly (``==`` on floats — both apply the same IEEE-754 operation
sequence per time unit), incremental costs to a 1e-12 relative
tolerance (they share the cost code; the tolerance only guards the
comparison itself).
"""

from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.allocators import make_allocator
from repro.allocators.min_energy import _dropped
from repro.allocators.state import ServerState
from repro.energy.cost import (
    SleepPolicy,
    gap_cost,
    saturating_gap,
    sleeps_through,
    wake_delta,
)
from repro.energy.power import run_energy
from repro.model.catalog import SERVER_TYPES
from repro.model.cluster import Cluster
from repro.model.intervals import TimeInterval
from repro.model.phases import DemandPhase, PhasedVM, demand_profile, split_vm
from repro.model.server import Server, ServerSpec
from repro.model.vm import VM, VMSpec
from repro.placement import SkylineOccupancy
from repro.placement.feasibility import (
    TOL,
    Feasibility,
    ScoreRow,
    static_demand,
)
from repro.placement.index import CandidateIndex, RefusalTable

from conftest import make_vm, probe_route
from test_kernel import _long_history_fleet, _long_history_probes

SPEC = ServerSpec("s", cpu_capacity=8.0, memory_capacity=8.0,
                  p_idle=50.0, p_peak=100.0, transition_time=1.0)

# (kind, start, length, cpu_octets, mem_octets): kind 0 = place-or-probe,
# 1 = remove (modulo currently placed), 2 = probe only. Demands are odd
# multiples of 1/8 so sums exercise float accumulation but stay exact.
_OPS = st.tuples(st.integers(0, 2), st.integers(1, 60), st.integers(0, 10),
                 st.integers(1, 24), st.integers(1, 24))


class _Timeline:
    """Committed (cpu, mem) per time unit from 0, each unit updated by
    the ``+=`` / ``-=`` the skyline applies to the segment holding it."""

    def __init__(self) -> None:
        self.cpu: list[float] = []
        self.mem: list[float] = []

    def _apply(self, start: int, end: int, cpu: float, mem: float) -> None:
        assert start >= 0
        grow = end + 1 - len(self.cpu)
        self.cpu += [0.0] * grow
        self.mem += [0.0] * grow
        for t in range(start, end + 1):
            self.cpu[t] += cpu
            self.mem[t] += mem

    def add(self, start, end, cpu, mem) -> None:
        self._apply(start, end, cpu, mem)

    def subtract(self, start, end, cpu, mem) -> None:
        self._apply(start, end, -cpu, -mem)

    def peak(self, start: int, end: int) -> tuple[float, float]:
        return (max([0.0] + self.cpu[start:end + 1]),
                max([0.0] + self.mem[start:end + 1]))

    def probe_piece(self, start, end, cpu, mem, cpu_cap, mem_cap, tol):
        peaks = self.peak(start, end)
        for name, used, need, cap in (("cpu", self.cpu, cpu, cpu_cap),
                                      ("mem", self.mem, mem, mem_cap)):
            for t in range(start, min(end + 1, len(used))):
                if used[t] + need > cap + tol:
                    return (f"{name}:overlap@{t}", *peaks)
        return (None, *peaks)

    def admits_piece(self, *piece_and_caps) -> bool:
        return self.probe_piece(*piece_and_caps)[0] is None


def _pair() -> tuple[ServerState, ServerState]:
    """A skyline book and its per-time-unit twin."""
    unit = ServerState(Server(0, SPEC))
    unit._occ = _Timeline()
    return ServerState(Server(0, SPEC)), unit


def _agree(sky: ServerState, unit: ServerState, vm) -> None:
    vs, vd = sky.probe(vm), unit.probe(vm)
    assert vs.feasible == vd.feasible
    assert vs.reason == vd.reason
    assert vs.peak_cpu == vd.peak_cpu       # bit-exact, not approx
    assert vs.peak_mem == vd.peak_mem
    cs, cd = sky.incremental_cost(vm), unit.incremental_cost(vm)
    assert math.isclose(cs, cd, rel_tol=1e-12, abs_tol=1e-12)


class TestEngineEquivalence:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(_OPS, min_size=1, max_size=25))
    def test_random_interleaving(self, ops):
        sky, unit = _pair()
        placed = []
        for i, (kind, start, length, cpu8, mem8) in enumerate(ops):
            vm = make_vm(i, start, start + length,
                         cpu=cpu8 / 8.0, memory=mem8 / 8.0)
            _agree(sky, unit, vm)
            if kind == 1 and placed:
                victim = placed.pop(start % len(placed))
                d_sky = sky.remove(victim)
                d_unit = unit.remove(victim)
                assert math.isclose(d_sky, d_unit,
                                    rel_tol=1e-12, abs_tol=1e-12)
            elif kind != 2 and sky.probe(vm):
                assert sky.place(vm) == unit.place(vm)
                placed.append(vm)
            assert sky.busy_segments() == unit.busy_segments()
            assert math.isclose(sky.cost, unit.cost,
                                rel_tol=1e-12, abs_tol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_OPS, min_size=1, max_size=15), st.integers(1, 80))
    def test_probe_agreement_after_any_state(self, ops, probe_start):
        sky, unit = _pair()
        for i, (kind, start, length, cpu8, mem8) in enumerate(ops):
            vm = make_vm(i, start, start + length,
                         cpu=cpu8 / 8.0, memory=mem8 / 8.0)
            if sky.probe(vm):
                sky.place(vm)
                unit.place(vm)
        for length in (0, 1, 7, 40):
            probe = make_vm(999, probe_start, probe_start + length,
                            cpu=4.0, memory=4.0)
            _agree(sky, unit, probe)

    @settings(max_examples=80, deadline=None)
    @given(st.lists(_OPS, min_size=2, max_size=20))
    def test_full_drain_returns_to_empty(self, ops):
        sky, unit = _pair()
        placed = []
        for i, (kind, start, length, cpu8, mem8) in enumerate(ops):
            vm = make_vm(i, start, start + length,
                         cpu=cpu8 / 8.0, memory=mem8 / 8.0)
            if sky.probe(vm):
                sky.place(vm)
                unit.place(vm)
                placed.append(vm)
        for vm in placed:
            sky.remove(vm)
            unit.remove(vm)
        assert sky.occupancy_points() == 0  # coalesced all the way down
        assert sky.cost == unit.cost == 0.0
        probe = make_vm(998, 1, 50, cpu=8.0, memory=8.0)
        assert sky.probe(probe).feasible and unit.probe(probe).feasible


class TestOccupancyEquivalence:
    """The raw occupancy indexes agree on peaks and probe verdicts."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(st.booleans(), st.integers(0, 50),
                              st.integers(0, 12), st.integers(1, 16),
                              st.integers(1, 16)),
                    min_size=1, max_size=20))
    def test_peaks_bit_equal(self, ops):
        sky, unit = SkylineOccupancy(), _Timeline()
        live = []
        for is_remove, start, length, cpu8, mem8 in ops:
            if is_remove and live:
                s, e, c, m = live.pop()
                sky.subtract(s, e, c, m)
                unit.subtract(s, e, c, m)
            else:
                s, e = start, start + length
                c, m = cpu8 / 8.0, mem8 / 8.0
                sky.add(s, e, c, m)
                unit.add(s, e, c, m)
                live.append((s, e, c, m))
            for lo, hi in [(0, 70), (start, start + length), (25, 30)]:
                assert sky.peak(lo, hi) == unit.peak(lo, hi)
                assert sky.probe_piece(lo, hi, 2.0, 2.0, 8.0, 8.0, 1e-9) \
                    == unit.probe_piece(lo, hi, 2.0, 2.0, 8.0, 8.0, 1e-9)


# -- admits: the probe's yes or no, whoever answers ---------------------------

#: (kind, start, length, cpu_octets, mem_octets, shape): kind 0 = place
#: when admitted, 1 = cut a resident, 2 = retire one, 3 = ask only (and,
#: in ``_BOOK_ASKS``, 4 = compact and 5 = swap the book for a twin);
#: shape 0 = plain, 1 = radius-carrying, 2 = phased. Octets above 64
#: exceed the 8.0 capacity: the static cpu / mem refusals.
_ASKS = st.tuples(st.integers(0, 3), st.integers(-20, 60),
                  st.integers(0, 12), st.integers(1, 72), st.integers(1, 72),
                  st.integers(0, 2))
_BOOK_ASKS = st.tuples(st.integers(0, 5), st.integers(-20, 60),
                       st.integers(0, 12), st.integers(1, 72),
                       st.integers(1, 72), st.integers(0, 2))


def _shaped(vm_id: int, start: int, length: int, cpu: float, memory: float,
            shape: int) -> VM:
    if shape == 2 and length >= 1:
        return PhasedVM.from_phases(vm_id, start, (
            DemandPhase(1, cpu, memory / 2),
            DemandPhase(length, cpu / 2, memory)))
    spec = VMSpec("a", cpu=cpu, memory=memory,
                  cpu_radius=cpu / 4 if shape else 0.0,
                  mem_radius=memory / 8 if shape else 0.0)
    return VM(vm_id=vm_id, spec=spec,
              interval=TimeInterval(start, start + length))


def _mutate(state: ServerState, horizon: int, i: int, kind: int, start: int,
            length: int, vm: VM) -> int:
    """One ask applied to ``state``: place ``vm`` if admitted (kind 0),
    cut (1) or retire (2) a resident, compact at ``start`` (4). Returns
    the tick the book has compacted up to, ``horizon`` or later: a live
    book is never cut at a tick it has already forgotten."""
    if kind == 0 and state.admits(vm):
        state.place(vm)
    elif kind == 1 and state.vms:
        victim = state.vms[start % len(state.vms)]
        time = max(min(victim.start + length, victim.end), horizon)
        if time <= victim.end:
            head = None if time <= victim.start else split_vm(
                victim, time, 1000 + i, 2000 + i)[0]
            state.cut(victim, time, head)
    elif kind == 2 and state.vms:
        victim = state.vms[start % len(state.vms)]
        state.retire(victim, before=victim.end + 1)
        return max(horizon, victim.end + 1)
    elif kind == 4:
        state.compact(start)
        return max(horizon, start)
    return horizon


def _yes_or_no(state: ServerState, vm: VM) -> bool:
    answer = state.admits(vm)
    assert answer is state.probe(vm).feasible
    return answer


class TestAdmitsIsTheProbesYesOrNo:
    @pytest.mark.parametrize("engine", ["indexed", "indexed:gamma=2"])
    @settings(max_examples=120, deadline=None)
    @given(st.lists(_ASKS, min_size=1, max_size=25))
    def test_after_any_place_cut_retire(self, engine, ops):
        state = ServerState(Server(0, SPEC), engine=engine)
        asked, horizon = [], -100
        for i, (kind, start, length, cpu8, mem8, shape) in enumerate(ops):
            vm = _shaped(i, start, length, cpu8 / 8.0, mem8 / 8.0, shape)
            asked.append(vm)
            _yes_or_no(state, vm)
            horizon = _mutate(state, horizon, i, kind, start, length, vm)
            for earlier in asked:
                _yes_or_no(state, earlier)

    @pytest.mark.parametrize("gamma", [0, 2])
    def test_long_history_probes(self, gamma):
        answers = [_yes_or_no(state, vm)
                   for state in _long_history_fleet(gamma)
                   for vm in _long_history_probes(gamma)]
        assert True in answers and False in answers


# -- a remembered refusal: the search's answer, without the search ----------

#: (kind, start, length, cpu_octets, mem_octets): kind 0 = add, 1 =
#: subtract an earlier add, 2 = compact at ``start``, 3 = reload the
#: rows, 4 = ask only. Octets above 64 exceed the 8.0 capacity.
_OCC_OPS = st.tuples(st.integers(0, 4), st.integers(-20, 60),
                     st.integers(0, 12), st.integers(1, 72),
                     st.integers(1, 72))


def _fresh_copy(occ: SkylineOccupancy) -> SkylineOccupancy:
    """A book with ``occ``'s rows and no memory."""
    twin = SkylineOccupancy()
    twin.load_rows({name: list(row) for name, row in occ.rows().items()})
    return twin


def _remembered_answer(occ: SkylineOccupancy, piece, tol: float) -> bool:
    """``occ.admits_piece`` on ``piece``, held to ``probe_piece`` and to
    a book without memory; a refusal it remembers stays ``refuses``."""
    start, end, cpu, mem = piece
    answer = occ.admits_piece(start, end, cpu, mem, 8.0, 8.0, tol)
    assert answer is (occ.probe_piece(start, end, cpu, mem, 8.0, 8.0,
                                      tol)[0] is None)
    assert answer is _fresh_copy(occ).admits_piece(start, end, cpu, mem,
                                                    8.0, 8.0, tol)
    if not answer:
        assert occ.refuses([(*piece, 0.0, 0.0)], 8.0 + tol, 8.0 + tol)
    return answer


def _restored(state: ServerState) -> ServerState:
    """``state`` through a snapshot: its book, copied, and no memory."""
    starts, ends, rows = state.book()
    return ServerState.restored(
        state.server, policy=state.policy, engine=state.engine_config,
        vms=list(state.vms), busy_starts=list(starts), busy_ends=list(ends),
        cost=state.cost,
        rows={name: list(row) for name, row in rows.items()})


def _fits_the_type(state: ServerState, vm: VM) -> bool:
    cpu, mem = static_demand(vm, state.robustness is not None)
    return cpu <= SPEC.cpu_capacity and mem <= SPEC.memory_capacity


def _remembered(state: ServerState, vm: VM) -> bool:
    """Whether ``state``'s skyline refuses ``vm`` from memory alone."""
    pieces = [(piece.start, piece.end, cpu, mem, vm.cpu_radius,
               vm.mem_radius) for piece, cpu, mem in demand_profile(vm)]
    return state._occ.refuses(pieces, SPEC.cpu_capacity + TOL,
                              SPEC.memory_capacity + TOL)


class TestARememberedRefusalIsTheSearchsAnswer:
    """``SkylineOccupancy`` remembers the segment that last refused a
    piece and refuses a piece it overloads with no search; every
    mutator forgets it. Asked again and again after any history, it
    answers what ``probe_piece`` and a book with no memory answer."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(_OCC_OPS, min_size=1, max_size=30),
           st.sampled_from([0.0, TOL, 0.125]))
    def test_after_any_add_subtract_compact_reload(self, ops, tol):
        occ = SkylineOccupancy()
        added, asked = [], []
        for kind, start, length, cpu8, mem8 in ops:
            piece = (start, start + length, cpu8 / 8.0, mem8 / 8.0)
            mutated = kind in (0, 2, 3) or kind == 1 and bool(added)
            if kind == 0:
                occ.add(*piece)
                added.append(piece)
            elif kind == 1 and added:
                occ.subtract(*added.pop(start % len(added)))
            elif kind == 2:
                occ.compact(start)
                asked = [p for p in asked if p[0] >= start]
            elif kind == 3:
                occ.load_rows({name: list(row)
                               for name, row in occ.rows().items()})
            assert not (mutated and occ.refuses(
                [(*p, 0.0, 0.0) for p in asked], 8.0 + tol, 8.0 + tol)), \
                "a mutation kept its memory"
            asked.append(piece)
            for earlier in asked + asked:  # the second pass remembers
                _remembered_answer(occ, earlier, tol)

    def test_a_demand_landing_on_the_limit_fits_remembered_or_not(self):
        occ = SkylineOccupancy()
        occ.add(0, 9, 3.0, 1.0)
        limit = 8.0 + TOL
        exact = limit - 3.0
        while 3.0 + exact > limit:
            exact = math.nextafter(exact, -math.inf)
        while 3.0 + math.nextafter(exact, math.inf) <= limit:
            exact = math.nextafter(exact, math.inf)
        over = math.nextafter(exact, math.inf)
        assert not occ.admits_piece(2, 4, over, 1.0, 8.0, 8.0, TOL)
        assert occ.refuses([(5, 6, over, 1.0, 0.0, 0.0)], limit, limit)
        assert not occ.refuses([(5, 6, exact, 1.0, 0.0, 0.0)], limit, limit)
        assert occ.admits_piece(5, 6, exact, 1.0, 8.0, 8.0, TOL)
        assert not occ.admits_piece(5, 6, over, 1.0, 8.0, 8.0, TOL)
        # the remembered segment is [0, 10): past it nothing is refused
        assert not occ.refuses([(10, 12, over, 1.0, 0.0, 0.0)],
                                limit, limit)

    @pytest.mark.parametrize("engine", ["indexed", "indexed:gamma=2"])
    @settings(max_examples=120, deadline=None)
    @given(st.lists(_BOOK_ASKS, min_size=1, max_size=25))
    def test_after_any_place_cut_retire_restore(self, engine, ops):
        # kind 5 swaps the book for its snapshot twin (``restored``); a
        # Γ-robust book remembers by ``admits_piece_robust``'s comparison
        # and forgets on its radius updates too
        state = ServerState(Server(0, SPEC), engine=engine)
        asked, horizon = [], -100
        for i, (kind, start, length, cpu8, mem8, shape) in enumerate(ops):
            vm = _shaped(i, start, length, cpu8 / 8.0, mem8 / 8.0, shape)
            if kind == 5:
                state = _restored(state)
            else:
                horizon = _mutate(state, horizon, i, kind, start, length,
                                  vm)
            asked.append(vm)
            for earlier in asked + asked:
                answer = _yes_or_no(state, earlier)
                assert answer is _restored(state).admits(earlier)
                if not answer and _fits_the_type(state, earlier):
                    assert _remembered(state, earlier)

    @pytest.mark.parametrize("engine", ["indexed", "indexed:gamma=2"])
    @pytest.mark.parametrize("stream", ["poisson", "phased"])
    def test_the_prefetch_drops_only_refusing_servers(self, stream, engine):
        # every server min-energy's prefetch drops, the search refuses
        from test_allocator_equivalence import DENSE_STREAMS

        allocator = make_allocator("min-energy", engine=engine)
        prefetch = allocator._prefetch
        dropped = 0

        def checked(vm, states, *args):
            nonlocal dropped
            frontier = prefetch(vm, states, *args)
            for parts, kept in frontier.values():
                positions = [pos for queue, cursor in parts
                             for pos in queue[cursor:] if pos not in kept]
                assert len(positions) == _dropped(parts, kept)
                dropped += len(positions)
                assert not any(states[pos].probe(vm).feasible
                               for pos in positions)
            return frontier

        allocator._prefetch = checked
        allocator.allocate_batch(DENSE_STREAMS[stream][:300],
                                 Cluster.paper_all_types(30))
        assert dropped > 0


def _edge(cpu: float, limit: float) -> float:
    """The largest charge ``c`` with ``c + cpu <= limit`` in floats."""
    charge = limit - cpu
    while charge + cpu > limit:
        charge = math.nextafter(charge, -math.inf)
    while math.nextafter(charge, math.inf) + cpu <= limit:
        charge = math.nextafter(charge, math.inf)
    return charge


#: Charges a fact can hold: the last one ``charge + 3.0`` keeps within
#: the limit, the one under it and the first over it, and repeats, so
#: equal keys straddle the edge of the suffix.
_LIMIT = 8.0 + TOL
_EDGE = _edge(3.0, _LIMIT)
_CHARGES = st.sampled_from([0.5, 4.0, 5.0, _EDGE,
                            math.nextafter(_EDGE, -math.inf),
                            math.nextafter(_EDGE, math.inf), 7.5, 8.0])
#: ("record", pos, lo, length, charge) | ("forget", pos) |
#: ("evict", start, end): positions 0-11, segments inside [0, 40)
_TABLE_OPS = st.one_of(
    st.tuples(st.just("record"), st.integers(0, 11), st.integers(0, 30),
              st.integers(1, 10), _CHARGES),
    st.tuples(st.just("forget"), st.integers(0, 11)),
    st.tuples(st.just("evict"), st.integers(0, 40), st.integers(0, 40)))


class TestARefusalTableIsItsFacts:
    """``RefusalTable`` keeps a fact per position in cpu order with two
    eviction heaps; after any record / forget / evict it answers like
    the plain ``{position: fact}`` map it stands for."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_TABLE_OPS, max_size=40), st.sampled_from([3.0, 0.5]))
    def test_after_any_record_forget_evict(self, ops, cpu):
        table, model = RefusalTable(), {}
        for op in ops:
            if op[0] == "record":
                _, pos, lo, length, charge = op
                fact = (lo, lo + length, charge, 1.0)
                table.record(pos, fact)
                model[pos] = fact
            elif op[0] == "forget":
                table.forget(op[1])
                model.pop(op[1], None)
            else:
                _, start, end = op
                table.evict_outside(start, end)
                model = {pos: fact for pos, fact in model.items()
                         if fact[1] > start and fact[0] <= end}
            assert table.facts == model
            assert table._keys == sorted(fact[2] for fact in model.values())
            for heap in (table._his, table._los):
                assert len(heap) <= 2 * len(model) + 1
            refusing = table.refusing(cpu, _LIMIT)
            assert sorted(refusing) == sorted(
                pos for pos, fact in model.items() if fact[2] + cpu > _LIMIT)
            assert [table.facts[pos][2] for pos in refusing] \
                == table._keys[len(table._keys) - len(refusing):]

    def test_a_charge_landing_on_the_limit_is_not_refusing(self):
        table = RefusalTable()
        below, above = math.nextafter(_EDGE, -math.inf), \
            math.nextafter(_EDGE, math.inf)
        for pos, charge in enumerate([below, _EDGE, _EDGE, above, above]):
            table.record(pos, (0, 10, charge, 1.0))
        assert sorted(table.refusing(3.0, _LIMIT)) == [3, 4]


# -- the clone class: a server idle long enough answers like a pristine one --


def _dormant_for(state: ServerState, vm: VM, gap: int | None) -> bool:
    """The candidate index's test: quiet since ``vm.start - 1 - gap``."""
    quiet = state.quiet_after
    return gap is not None and quiet is not None \
        and quiet <= vm.start - 1 - gap


class TestAnIdleServerIsAClone:
    """A server quiet since ``saturating_gap`` ticks before a VM starts
    answers that VM like a pristine twin: the same verdict on all six
    fields, and a bit-equal ``idle_delta`` — its last gap already costs
    the whole wake-up, as a first wake-up does. What lets min-energy's
    walk probe one member of a type's clone class."""

    @pytest.mark.parametrize("policy", list(SleepPolicy))
    @pytest.mark.parametrize("engine", ["indexed", "indexed:gamma=2"])
    @settings(max_examples=50, deadline=None)
    @given(st.lists(_BOOK_ASKS, min_size=1, max_size=20),
           st.integers(0, 6))
    # two residents cut at 5 leave (((0 + .13) + 1.3) - .13) - 1.3 > 0
    # on [5, 10]: dormant only from the residue's end, not the busy one
    @example([(0, 0, 10, 1, 1, 0), (0, 0, 10, 10, 10, 0),
              (1, 0, 5, 1, 1, 0), (1, 0, 5, 1, 1, 0)], 0)
    def test_after_any_place_cut_retire_compact_copy(self, engine, policy,
                                                      ops, later):
        state = ServerState(Server(0, SPEC), policy=policy, engine=engine)
        twin = ServerState(Server(1, SPEC), policy=policy, engine=engine)
        gap = saturating_gap(SPEC, policy)
        asked, horizon = [], -100
        for i, (kind, start, length, cpu8, mem8, shape) in enumerate(ops):
            # 0.13 steps: inexact sums, so a cut can leave residue
            vm = _shaped(i, start, length, cpu8 * 0.13, mem8 * 0.13, shape)
            asked.append(vm)
            if kind == 5:
                horizon = max(horizon, start)
                state = state.live_copy(horizon)
            else:
                horizon = _mutate(state, horizon, i, kind, start, length,
                                  vm)
            probes = list(asked)
            if gap is not None and state.quiet_after is not None:
                # every shape, from the first tick the book is dormant for
                first = state.quiet_after + 1 + gap + later
                probes += [_shaped(100 + i, first, length, cpu8 * 0.13,
                                   mem8 * 0.13, shape) for shape in range(3)]
                assert _dormant_for(state, probes[-1], gap)
            for probe in probes:
                if _dormant_for(state, probe, gap):
                    assert state.probe(probe) == twin.probe(probe)
                    assert state.idle_delta(probe.interval).hex() \
                        == twin.idle_delta(probe.interval).hex()

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.5, 500.0), st.floats(0.0, 50.0))
    def test_the_gap_is_where_the_cost_saturates(self, p_idle, wake_time):
        spec = ServerSpec("g", cpu_capacity=8.0, memory_capacity=8.0,
                          p_idle=p_idle, p_peak=2 * p_idle,
                          transition_time=wake_time)
        gap = saturating_gap(spec, SleepPolicy.OPTIMAL)
        assert gap >= 1
        for length in (gap, gap + 1, 10 * gap):
            idle = TimeInterval(0, length - 1)
            assert sleeps_through(spec, idle)
            assert gap_cost(spec, idle) == spec.transition_cost
        if gap > 1:
            assert not sleeps_through(spec, TimeInterval(0, gap - 2))
        assert saturating_gap(spec, SleepPolicy.ALWAYS_SLEEP) == 1
        assert saturating_gap(spec, SleepPolicy.NEVER_SLEEP) is None


#: How far a VM's static demand sits from a server type's capacity:
#: well inside, at it, and within or past the probes' 1e-9 tolerance.
_NEAR_CAPACITY = st.sampled_from([-1.0, -1e-9, 0.0, 5e-10, 1e-9, 2e-9,
                                  0.5]) | st.floats(-3e-9, 3e-9)


def _near(target: ServerSpec, cpu_off: float, mem_off: float, shape: int,
          slack: float, start: int, length: int) -> VM:
    """A VM whose static demand — nominal plus its radii, the charge on
    a Γ fleet — is ``target``'s capacity plus the offsets: plain (shape
    0), with radii (1), phased (2) or phased with radii (3), its peak
    phase ``slack`` above its spec (the spec must carry the peak to
    1e-9)."""
    cpu_need = target.cpu_capacity + cpu_off
    mem_need = target.memory_capacity + mem_off
    share = 0.25 if shape in (1, 3) else 0.0
    cpu, mem = cpu_need - cpu_need * share, mem_need - mem_need * share
    spec = VMSpec("near", cpu=cpu, memory=mem, cpu_radius=cpu_need * share,
                  mem_radius=mem_need * share)
    interval = TimeInterval(start, start + length)
    if shape < 2:
        return VM(vm_id=0, spec=spec, interval=interval)
    return PhasedVM(vm_id=0, spec=spec, interval=interval, phases=(
        DemandPhase(1, cpu / 2, mem), DemandPhase(length, cpu + slack,
                                                  mem / 2)))


class TestAFreshBookAdmitsByItsType:
    """A book that never ran admits a VM exactly when its type's static
    fit does (``CandidateIndex.spec_admits``, which ``groups_for``
    applies), then probes it as the type's row (``Feasibility.idle``)
    and prices it ``P_idle * |I_j| + alpha`` bit for bit under every
    policy: why min-energy's walk admits and prices a clone class, and
    the score scan scores one (``TestAnIdleServerIsAClone``: a dormant
    server is a fresh one), without asking any of its members."""

    @pytest.mark.parametrize("policy", list(SleepPolicy))
    @pytest.mark.parametrize("engine", ["indexed", "indexed:gamma=2"])
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(SERVER_TYPES), _NEAR_CAPACITY, _NEAR_CAPACITY,
           st.integers(0, 3), st.floats(-0.999e-9, 0.999e-9),
           st.integers(-20, 60), st.integers(1, 30))
    # a spec at the capacity (less the tolerance), its peak phase about
    # the tolerance above that: the static fit and the pieces agree
    @example(SERVER_TYPES[0], 0.0, 0.0, 2, 0.999e-9, 0, 5)
    @example(SERVER_TYPES[4], -1e-9, 0.0, 3, 0.999e-9, 3, 1)
    def test_admits_and_prices_by_type(self, engine, policy, target,
                                       cpu_off, mem_off, shape, slack,
                                       start, length):
        vm = _near(target, cpu_off, mem_off, shape, slack, start, length)
        states = [ServerState(Server(i, spec), policy=policy, engine=engine)
                  for i, spec in enumerate(SERVER_TYPES)]
        by_type = CandidateIndex(states).spec_admits(vm)
        for state in states:
            spec = state.server.spec
            assert state.admits(vm) == by_type[id(spec)]
            closed = spec.p_idle * vm.interval.length + spec.transition_cost
            assert state.idle_delta(vm.interval).hex() == closed.hex()
            assert wake_delta(spec, vm.interval.length).hex() == closed.hex()
            if by_type[id(spec)]:
                assert state.probe(vm) == Feasibility.idle(spec)
                assert state.incremental_cost(vm).hex() \
                    == (run_energy(spec, vm) + closed).hex()


class TestAnIdleServerScoresLikeAClone:
    """Every member of a type's clone class — pristine, or dormant for
    the VM — probes as its type's row (``Feasibility.idle``) and gets
    best-fit's and worst-fit's score bit for bit as a pristine twin
    does, from a kernel batch and from a scalar one: why a score scan
    scores a clone class from its type, probing none of its members.
    And every row a score rates, idle or busy, scores bit for bit as a
    ``ScoreRow`` of floats as it does in its batch: why a short scan
    scores one row at a time."""

    @pytest.mark.parametrize("policy", list(SleepPolicy))
    @pytest.mark.parametrize("engine", ["indexed/kernel", "indexed/scalar",
                                        "indexed:gamma=2/kernel"])
    @settings(max_examples=30, deadline=None)
    @given(st.lists(_BOOK_ASKS, min_size=1, max_size=20),
           st.integers(0, 6))
    # two residents cut before they start leave residue on [10, 20] and
    # no busy segment: not a clone until the residue's end
    @example([(0, 10, 10, 1, 1, 0), (0, 10, 10, 10, 10, 0),
              (1, 0, 0, 1, 1, 0), (1, 0, 0, 1, 1, 0)], 0)
    def test_after_any_place_cut_retire_compact_copy(self, engine, policy,
                                                      ops, later):
        engine, _, route = engine.partition("/")
        state = ServerState(Server(0, SPEC), policy=policy, engine=engine)
        twin = ServerState(Server(1, SPEC), policy=policy, engine=engine)
        gap = saturating_gap(SPEC, policy)
        best, worst = (make_allocator(name, engine=engine, policy=policy)
                       for name in ("best-fit", "worst-fit"))
        asked, horizon = [], -100
        for i, (kind, start, length, cpu8, mem8, shape) in enumerate(ops):
            vm = _shaped(i, start, length, cpu8 * 0.13, mem8 * 0.13, shape)
            asked.append(vm)
            if kind == 5:
                horizon = max(horizon, start)
                state = state.live_copy(horizon)
            else:
                horizon = _mutate(state, horizon, i, kind, start, length,
                                  vm)
            probes = list(asked)
            quiet = state.quiet_after
            if gap is not None and quiet is not None:
                first = quiet + 1 + gap + later
                probes += [_shaped(100 + i, first, length, cpu8 * 0.13,
                                   mem8 * 0.13, shape) for shape in range(3)]
            fleet = [state, twin]
            best.prepare(fleet)
            for probe in probes:
                with probe_route(route):
                    batch = best._probe_batch(probe, fleet)
                scores = [allocator.score(probe, batch)
                          for allocator in (best, worst)]
                for allocator, score in zip((best, worst), scores):
                    for i, verdict in enumerate(batch):
                        row = ScoreRow(probe, SPEC, verdict)
                        assert allocator.score(probe, row).hex() \
                            == score[i].hex()
                if quiet is not None and not _dormant_for(state, probe, gap):
                    continue
                if len(batch) < 2:
                    continue        # the type can never host it
                assert batch[0] == batch[1] == Feasibility.idle(SPEC)
                for score in scores:
                    assert score[0].hex() == score[1].hex()
