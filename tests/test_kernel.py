"""The batch probe kernel must be a bit-exact mirror of the scalar path.

Three contracts pin the vectorized fleet probe:

* **probe equivalence** — ``FleetKernel.probe_fleet`` equals the
  per-server ``ServerState.probe`` (and with it the underlying
  ``SkylineOccupancy.probe_piece`` loop) element-wise: feasible flag,
  reason string (code + first-violation tick), peaks and headrooms,
  over random fleets and random probe VMs — the hypothesis property;
* **decision equivalence** — every registered allocator places the same
  VMs on the same servers with bit-identical Eq.-17 energy whether every
  batch or none goes to the kernel (``==`` on floats, no tolerance);
* **config surface** — ``EngineConfig`` round-trips its spec string, is
  journaled through store snapshots, and refuses the bare-string ctor.
"""

from __future__ import annotations

import bisect
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.allocators import allocator_names, make_allocator
from repro.allocators.state import ServerState
from repro.energy import allocation_cost
from repro.exceptions import ValidationError
from repro.model.cluster import Cluster
from repro.model.constraints import PlacementConstraints
from repro.model.intervals import TimeInterval
from repro.model.phases import DemandPhase, PhasedVM, demand_profile
from repro.model.server import Server, ServerSpec
from repro.model.vm import VM, VMSpec
from repro.placement import EngineConfig, FeasibilityBatch, FleetKernel
from repro.placement.index import CandidateIndex
from repro.robust import RobustnessConfig
from repro.service.state import ClusterStateStore
from repro.workload.generator import generate_vms

from conftest import make_vm, probe_route

SPEC_SMALL = ServerSpec("small", cpu_capacity=6.0, memory_capacity=8.0,
                        p_idle=80.0, p_peak=140.0, transition_time=2.0)
SPEC_BIG = ServerSpec("big", cpu_capacity=12.0, memory_capacity=16.0,
                      p_idle=120.0, p_peak=260.0, transition_time=3.0)


def build_fleet(loads) -> list[ServerState]:
    """One state per entry; each entry is a list of committed VMs."""
    states = []
    for i, vms in enumerate(loads):
        spec = SPEC_SMALL if i % 2 == 0 else SPEC_BIG
        state = ServerState(Server(i, spec))
        for vm in vms:
            state.place_trusted(vm)
        states.append(state)
    return states


def assert_rows_match(batch: FeasibilityBatch,
                      states: list[ServerState], vm) -> None:
    assert len(batch) == len(states)
    for i, state in enumerate(states):
        scalar = state.probe(vm)
        view = batch[i]
        assert view.feasible == scalar.feasible, i
        assert view.reason == scalar.reason, i
        assert view.peak_cpu == scalar.peak_cpu, i
        assert view.peak_mem == scalar.peak_mem, i
        assert view.headroom_cpu == scalar.headroom_cpu, i
        assert view.headroom_mem == scalar.headroom_mem, i


def assert_scalar_fill_matches(batch: FeasibilityBatch,
                               states: list[ServerState], vm) -> None:
    """A batch filled from the scalar verdicts holds the kernel's
    columns, so one vectorized score reads either."""
    filled = FeasibilityBatch(states, np.arange(len(states)), vm=vm,
                              verdicts=[state.probe(vm) for state in states])
    for column in ("feasible", "peak_cpu", "peak_mem", "headroom_cpu",
                   "headroom_mem", "cpu_cap", "mem_cap", "run_cost"):
        assert np.array_equal(getattr(filled, column),
                              getattr(batch, column)), column
    assert [filled.reason(i) for i in range(len(filled))] \
        == [batch.reason(i) for i in range(len(batch))]


# -- hypothesis property: batch == scalar element-wise ----------------------

committed = st.tuples(st.integers(0, 40), st.integers(1, 12),
                      st.floats(0.25, 6.0), st.floats(0.25, 8.0))
server_load = st.lists(committed, max_size=6)
fleet_loads = st.lists(server_load, min_size=1, max_size=7)
probe_vm = st.tuples(st.integers(0, 45), st.integers(1, 10),
                     st.floats(0.25, 14.0), st.floats(0.25, 18.0))


def _materialize(loads, probe):
    vm_id = 0
    fleet = []
    for entries in loads:
        vms = []
        for start, length, cpu, memory in entries:
            vms.append(make_vm(vm_id, start, start + length,
                               cpu=cpu, memory=memory))
            vm_id += 1
        fleet.append(vms)
    start, length, cpu, memory = probe
    return fleet, make_vm(10_000, start, start + length,
                          cpu=cpu, memory=memory)


class TestProbeEquivalenceProperty:
    @settings(max_examples=120, deadline=None)
    @given(loads=fleet_loads, probe=probe_vm)
    def test_probe_fleet_matches_scalar_probe(self, loads, probe):
        fleet, vm = _materialize(loads, probe)
        states = build_fleet(fleet)
        kernel = FleetKernel(states)
        assert_rows_match(kernel.probe_fleet(vm), states, vm)

    @settings(max_examples=60, deadline=None)
    @given(loads=fleet_loads, probe=probe_vm)
    def test_scalar_filled_batch_holds_the_kernel_columns(self, loads, probe):
        fleet, vm = _materialize(loads, probe)
        states = build_fleet(fleet)
        assert_scalar_fill_matches(FleetKernel(states).probe_fleet(vm),
                                   states, vm)

    @settings(max_examples=60, deadline=None)
    @given(loads=fleet_loads, probe=probe_vm,
           data=st.data())
    def test_candidate_subsets_match(self, loads, probe, data):
        fleet, vm = _materialize(loads, probe)
        states = build_fleet(fleet)
        kernel = FleetKernel(states)
        picks = data.draw(st.lists(
            st.integers(0, len(states) - 1), max_size=len(states)))
        batch = kernel.probe_fleet(vm, np.array(picks, dtype=np.intp))
        assert len(batch) == len(picks)
        for j, pos in enumerate(picks):
            assert batch[j] == states[pos].probe(vm)

    @settings(max_examples=40, deadline=None)
    @given(loads=server_load, probe=probe_vm)
    def test_single_candidate_fleet(self, loads, probe):
        fleet, vm = _materialize([loads], probe)
        states = build_fleet(fleet)
        kernel = FleetKernel(states)
        assert kernel.probe_one(states[0], vm) == states[0].probe(vm)

    def test_empty_candidate_set(self):
        states = build_fleet([[], []])
        kernel = FleetKernel(states)
        vm = make_vm(1, 0, 5)
        batch = kernel.probe_fleet(vm, np.array([], dtype=np.intp))
        assert len(batch) == 0
        assert list(batch.feasible_indices()) == []

    def test_phased_vm_probes_piecewise(self):
        states = build_fleet([[make_vm(0, 2, 6, cpu=4.0, memory=2.0)],
                              [], [make_vm(1, 0, 9, cpu=5.5)]])
        kernel = FleetKernel(states)
        vm = PhasedVM.from_phases(50, 1, [DemandPhase(3, 1.0, 2.0),
                                          DemandPhase(2, 3.0, 1.0),
                                          DemandPhase(2, 0.5, 6.0)])
        assert_rows_match(kernel.probe_fleet(vm), states, vm)

    def test_mutations_resync_through_watchers(self):
        states = build_fleet([[], []])
        kernel = FleetKernel(states)
        vm = make_vm(0, 1, 6, cpu=5.0, memory=5.0)
        assert kernel.probe_fleet(vm).feasible.all()
        states[0].place(make_vm(1, 2, 4, cpu=4.0))
        probe = make_vm(2, 3, 5, cpu=3.0)
        assert_rows_match(kernel.probe_fleet(probe), states, probe)
        states[0].remove(make_vm(1, 2, 4, cpu=4.0))
        assert_rows_match(kernel.probe_fleet(probe), states, probe)
        states[1].place(make_vm(3, 1, 9, cpu=4.0))
        states[1].cut(make_vm(3, 1, 9, cpu=4.0), 4, make_vm(4, 1, 3, cpu=4.0))
        assert_rows_match(kernel.probe_fleet(probe), states, probe)
        # 4 + 9 cu overflowed the big server until the cut freed tick 4 on
        assert kernel.probe_fleet(make_vm(5, 4, 9, cpu=9.0))[1].feasible
        assert not kernel.probe_fleet(make_vm(5, 3, 9, cpu=9.0))[1].feasible

    def test_foreign_candidate_raises(self):
        states = build_fleet([[]])
        kernel = FleetKernel(states)
        stranger = ServerState(Server(9, SPEC_BIG))
        with pytest.raises(KeyError):
            kernel.probe_one(stranger, make_vm(0, 0, 1))


# -- long histories: work follows the probe's window, not the fleet ---------

def _long_history_fleet(gamma: int) -> list[ServerState]:
    """One server with >= 1500 breakpoints (t = 100 .. 8105) beside a
    pristine one, lightly loaded ones and a second, shorter history."""
    engine = EngineConfig.parse(f"indexed:gamma={gamma}" if gamma
                                else "indexed")
    states = [ServerState(Server(i, SPEC_SMALL if i % 2 else SPEC_BIG),
                          engine=engine) for i in range(6)]

    def commit(state, vm_id, start, end, cpu, memory):
        spec = VMSpec("h", cpu=cpu, memory=memory,
                      cpu_radius=0.25 * cpu if gamma else 0.0,
                      mem_radius=0.5 * memory if vm_id % 3 == 0 and gamma
                      else 0.0)
        vm = VM(vm_id=vm_id, spec=spec, interval=TimeInterval(start, end))
        if state.probe(vm):
            state.place_trusted(vm)

    for i in range(800):
        t = 100 + 10 * i
        commit(states[0], i, t, t + 4, 1.0 + (i % 7) * 0.5, 1.0 + (i % 5))
        commit(states[0], 1000 + i, t + 2, t + 12, 0.5 + (i % 3), 2.0)
    assert states[0].occupancy_points() >= 1500
    # states[1] stays pristine
    commit(states[2], 2000, -30, -10, 2.0, 3.0)
    assert states[2]._occ.peak(-30, -10) == (2.0, 3.0)  # booked, not skipped
    commit(states[2], 2001, 4000, 4400, 4.0, 2.0)
    commit(states[3], 2002, 90, 120, 3.0, 6.0)
    commit(states[4], 2003, 8100, 8200, 8.0, 1.0)
    for i in range(60):
        commit(states[5], 3000 + i, 3900 + 7 * i, 3905 + 7 * i,
               1.0 + (i % 4), 1.0 + (i % 6))
    return states


def _long_history_probes(gamma: int) -> list:
    def probe(vm_id, start, end, cpu=1.0, memory=1.0):
        spec = VMSpec("p", cpu=cpu, memory=memory,
                      cpu_radius=0.5 * cpu if gamma else 0.0,
                      mem_radius=0.25 * memory if gamma else 0.0)
        return VM(vm_id=vm_id, spec=spec, interval=TimeInterval(start, end))

    phase_spec = VMSpec("ph", cpu=6.0, memory=6.0,
                        cpu_radius=1.0 if gamma else 0.0)
    return [
        probe(9000, -50, -20),                  # before everything
        probe(9001, 0, 60, cpu=5.0),            # before the long history
        probe(9002, 4000, 4003),                # inside, short
        probe(9003, 4001, 4030, cpu=9.0, memory=12.0),   # inside, violating
        probe(9004, 50, 130, cpu=3.0),          # straddles the first edge
        probe(9005, 8080, 8300, cpu=5.0),       # straddles the last edge
        probe(9006, 20000, 20010, cpu=5.5),     # after everything
        probe(9007, 0, 9000, cpu=0.5, memory=0.5),       # spans it all
        probe(9008, 4000, 4003, cpu=13.0),      # static cpu capacity
        probe(9009, 4000, 4003, cpu=1.0, memory=17.0),   # static mem
        probe(9011, 4000, 4030, cpu=0.5, memory=11.0),   # mem overlap
        PhasedVM(vm_id=9010, spec=phase_spec,
                 interval=TimeInterval(3990, 4019),
                 phases=(DemandPhase(10, 1.0, 2.0), DemandPhase(5, 6.0, 1.0),
                         DemandPhase(15, 0.5, 6.0))),
    ]


def _window_bound(states: list[ServerState], vm) -> int:
    """``live rows x (max overlapped segments + 1)`` summed per piece —
    the cells a window-proportional probe may gather at most."""
    bound = 0
    for piece, _, _ in demand_profile(vm):
        windows = []
        for state in states:
            xs = state._occ.points()
            i0 = max(bisect.bisect_right(xs, piece.start) - 1, 0)
            i1 = bisect.bisect_right(xs, piece.end) - 1
            windows.append(max(0, i1 - i0 + 1))
        live = sum(1 for w in windows if w)
        bound += live * (max(windows) + 1)
    return bound


class TestLongHistory:
    @pytest.mark.parametrize("gamma", [0, 2])
    def test_rows_match_scalar_and_work_follows_the_window(self, gamma):
        states = _long_history_fleet(gamma)
        kernel = FleetKernel(states)
        for vm in _long_history_probes(gamma):
            before = kernel.cells_probed
            batch = kernel.probe_fleet(vm)
            assert_rows_match(batch, states, vm)
            assert kernel.cells_probed - before <= _window_bound(states, vm), vm
        # A short probe inside 1500+ breakpoints touches a handful of cells.
        before = kernel.cells_probed
        kernel.probe_fleet(_long_history_probes(gamma)[2])
        assert kernel.cells_probed - before <= 12

    @pytest.mark.parametrize("gamma", [0, 2])
    def test_scalar_filled_batch_holds_the_kernel_columns(self, gamma):
        states = _long_history_fleet(gamma)
        kernel = FleetKernel(states)
        for vm in _long_history_probes(gamma):
            assert_scalar_fill_matches(kernel.probe_fleet(vm), states, vm)

    @pytest.mark.parametrize("gamma", [0, 2])
    def test_shrinking_and_growing_rows_resync(self, gamma):
        states = _long_history_fleet(gamma)
        kernel = FleetKernel(states)
        probes = _long_history_probes(gamma)
        kernel.probe_fleet(probes[0])
        states[0].compact(4000)               # the long row shrinks
        states[2].remove(states[2].vms[0])    # a middle row shrinks
        states[1].place(probes[4])            # the pristine row grows
        for vm in probes:
            assert_rows_match(kernel.probe_fleet(vm), states, vm)


class TestSyncWritesARowWhereItLives:
    """A dirty row is written into its slot; only a row that outgrew its
    slot makes the kernel allocate planes again."""

    def test_a_row_that_fits_its_slot_allocates_nothing(self):
        states = build_fleet([[], [make_vm(0, 5, 9, cpu=1.0, memory=1.0)],
                              [make_vm(3, 0, 1, cpu=1.0, memory=1.0)]])
        kernel = FleetKernel(states)
        probe = make_vm(9, 0, 30, cpu=5.5, memory=1.0)
        kernel.probe_fleet(probe)
        arrays = [kernel._off, kernel._keys, *kernel._planes]
        states[1].place_trusted(make_vm(1, 8, 20, cpu=1.0, memory=1.0))
        states[2].place_trusted(make_vm(2, 3, 4, cpu=1.0, memory=1.0))
        states[1].compact(9)                  # and one that shrinks
        kernel.sync()
        assert all(now is was for now, was in zip(
            [kernel._off, kernel._keys, *kernel._planes], arrays))
        assert_rows_match(kernel.probe_fleet(probe), states, probe)

    def test_a_growing_row_repacks_a_logarithm_of_its_commits(self,
                                                              monkeypatch):
        repacks = []
        repack = FleetKernel._repack
        monkeypatch.setattr(
            FleetKernel, "_repack",
            lambda self, outgrown: (repacks.append(outgrown),
                                    repack(self, outgrown))[1])
        states = build_fleet([[], [], []])
        kernel = FleetKernel(states)
        for i in range(2000):     # disjoint: two breakpoints a commit
            states[1].place_trusted(make_vm(i, 3 * i, 3 * i + 1,
                                            cpu=1.0, memory=1.0))
            kernel.sync()
        assert states[1].occupancy_points() == 4000
        assert len(repacks) == 10             # 0 -> 8 -> 16 -> ... -> 4096
        assert all(list(outgrown) == [1] for outgrown in repacks)
        for probe in (make_vm(9000, 2999, 3004, cpu=5.5, memory=1.0),
                      make_vm(9001, 5998, 7000, cpu=5.5, memory=1.0)):
            assert_rows_match(kernel.probe_fleet(probe), states, probe)

    @pytest.mark.parametrize("start, end, refused", [
        (2 ** 39 - 9, 2 ** 39 - 1, True),     # breakpoint at 2^39
        (2 ** 39 - 9, 2 ** 39 - 2, True),     # at a pad cell's time
        (2 ** 39 - 9, 2 ** 39 - 3, False),
        (-2 ** 39 - 1, 5, True),
        (-2 ** 39, 5, False),
    ])
    def test_a_breakpoint_outside_the_time_range_names_its_server(
            self, start, end, refused):
        # It used to land in the neighbouring row's key span, and the
        # probe answered for the wrong server.
        states = build_fleet([[], [], []])
        kernel = FleetKernel(states)
        states[1].place_trusted(make_vm(0, start, end, cpu=8.0, memory=1.0))
        probe = make_vm(1, start, start + 3, cpu=5.0, memory=1.0)
        if refused:
            with pytest.raises(ValueError, match="server 1: "):
                kernel.sync()
            assert kernel._keys.size == 0     # nothing written
        else:
            assert_rows_match(kernel.probe_fleet(probe), states, probe)

    @pytest.mark.parametrize("start, end", [(0, 2 ** 39 - 1),
                                            (-2 ** 39 - 1, 0)])
    def test_an_interval_outside_the_time_range_is_not_probed(self, start,
                                                              end):
        kernel = FleetKernel(build_fleet([[make_vm(0, 0, 9)], []]))
        probe = make_vm(1, start, end)
        with pytest.raises(ValueError, match="time range"):
            kernel.probe_fleet(probe)


# -- a kernel built on first need answers like one built at prepare ---------

#: One mutation of a small fleet: (kind, server, a, b, cpu, memory). A
#: place books [a, a + b] if it fits; a cut stops a resident at a tick of
#: its interval (keeping the head that ran); a retire forgets one and
#: compacts before tick a; a compact drops detail before tick a; a sync
#: writes the early kernel's dirty rows, as a probe would.
fleet_op = st.tuples(
    st.sampled_from(("place", "place", "place", "cut", "retire", "compact",
                     "sync")),
    st.integers(0, 3), st.integers(0, 40), st.integers(1, 12),
    st.floats(0.25, 6.0), st.floats(0.25, 8.0))


def _apply(op, fleets, vm_id: int) -> int:
    """Apply ``op`` to every fleet alike; returns the next free vm id."""
    kind, server, a, b, cpu, memory = op
    books = [fleet[server] for fleet in fleets]
    if kind == "place":
        vm = make_vm(vm_id, a, a + b, cpu=cpu, memory=memory)
        if books[0].admits(vm):
            for book in books:
                book.place_trusted(vm)
        return vm_id + 1
    if kind in ("cut", "retire") and books[0].vms:
        vm = books[0].vms[b % len(books[0].vms)]
        if kind == "retire":
            for book in books:
                book.retire(vm, before=a)
            return vm_id
        time = vm.start + b % (vm.end - vm.start + 1)
        head = None if time == vm.start else make_vm(
            vm_id, vm.start, time - 1, cpu=vm.cpu, memory=vm.memory)
        for book in books:
            book.cut(vm, time, head)
        return vm_id + 1
    if kind == "compact":
        for book in books:
            book.compact(a)
    return vm_id


class TestALateKernelAnswersLikeAnEarlyOne:
    """``CandidateIndex.kernel`` is built on its first read. One built
    after any history of commits, cuts, retirements and compactions
    syncs every row at its first probe and answers — and counts — what
    one built at ``prepare`` and kept in sync all along does."""

    @settings(max_examples=80, deadline=None)
    @given(ops=st.lists(fleet_op, max_size=30),
           probes=st.lists(probe_vm, min_size=1, max_size=4),
           data=st.data())
    def test_answers_and_counters_are_equal(self, ops, probes, data):
        early_books, late_books = build_fleet([[]] * 4), build_fleet([[]] * 4)
        early = CandidateIndex(early_books)
        late = CandidateIndex(late_books)
        early_kernel = early.kernel  # what prepare built before
        vm_id = 0
        for op in ops:
            if op[0] == "sync":
                early_kernel.sync()
            vm_id = _apply(op, (early_books, late_books), vm_id)
        assert late._kernel is None  # nothing watched
        late_kernel = late.kernel
        for probe in probes:
            _, vm = _materialize([], probe)
            rows = np.array(data.draw(st.lists(
                st.integers(0, 3), min_size=1, max_size=4)), dtype=np.intp)
            got = late_kernel.probe_fleet(vm, rows)
            want = early_kernel.probe_fleet(vm, rows)
            assert list(got) == list(want)
            assert got.run_cost.tolist() == want.run_cost.tolist()
            assert_rows_match(got, [late_books[pos] for pos in rows], vm)
        for counter in ("probe_calls", "rows_probed", "cells_probed"):
            assert getattr(late_kernel, counter) \
                == getattr(early_kernel, counter), counter

    def test_a_scalar_scan_does_not_build_the_kernel(self):
        allocator = make_allocator("best-fit")
        allocator.allocate(generate_vms(40, mean_interarrival=3.0, seed=5),
                           Cluster.paper_all_types(12))
        # a sparse stream: every score scan names < 40 rows, all scalar
        assert allocator._index._kernel is None


#: The dense stream of ``tests/test_allocator_equivalence.py``: ~1200
#: VMs alive at once on 90 servers, so most min-energy walks collect
#: their 16 refusals and finish with the prefetch.
_DENSE_BATCH = generate_vms(600, mean_interarrival=0.05, mean_duration=60,
                            seed=3)

#: A fresh daemon decides one ``place_batch`` of the dense stream; the
#: prefetch reads remembered refusals, so numpy stays absent and no
#: kernel is built.
_DENSE_PREFETCH = """
import json, sys
from repro.model.cluster import Cluster
from repro.service.daemon import AllocationDaemon
from repro.service.state import ClusterStateStore
request = json.loads(sys.stdin.read())
daemon = AllocationDaemon(ClusterStateStore(Cluster.paper_all_types(90)))
response = daemon.handle(request)
print(json.dumps({
    "numpy": "numpy" in sys.modules,
    "kernel_built": daemon.allocator._index._kernel is not None,
    "decisions": [[d["vm_id"], d.get("server_id"),
                   float(d.get("energy_delta", 0.0)).hex()]
                  for d in response["decisions"]]}))
"""

#: sha256 of the decisions' JSON, as a daemon that prefetched through
#: the kernel decided this batch.
_DENSE_DECISIONS_SHA256 = \
    "0ef2479b92527dfefc1f1a4c3378998d14f8c3de52897bcafe0d50f964f8ef8a"


#: Fresh best-fit and worst-fit daemons decide one ``place_batch`` of a
#: sparse stream: every score scan names few warm rows and scores them
#: one at a time, so no batch is built and numpy is never loaded.
_SHORT_SCANS = """
import json, sys
from repro.model.cluster import Cluster
from repro.service.daemon import AllocationDaemon
from repro.service.state import ClusterStateStore
request = json.loads(sys.stdin.read())
placed = [AllocationDaemon(ClusterStateStore(Cluster.paper_all_types(90)),
                           algorithm=algorithm).handle(request)["placed"]
          for algorithm in ("best-fit", "worst-fit")]
print(json.dumps(placed + ["numpy" in sys.modules]))
"""


def _fresh_run(script: str, vms) -> object:
    """Run ``script`` in a fresh interpreter with a ``place_batch`` of
    ``vms`` on stdin; returns the JSON it prints."""
    import json
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro
    from repro.service.protocol import place_batch_request

    src = str(Path(repro.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", script],
        input=json.dumps(place_batch_request(vms)),
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src})
    assert result.returncode == 0, result.stderr[-2000:]
    return json.loads(result.stdout)


class TestADensePrefetchLoadsNoNumpy:
    def test_a_dense_batch_decides_as_before_without_numpy(self):
        import hashlib
        import json

        run = _fresh_run(_DENSE_PREFETCH, _DENSE_BATCH)
        assert not run["numpy"]
        assert not run["kernel_built"]
        assert len(run["decisions"]) == len(_DENSE_BATCH)
        digest = hashlib.sha256(
            json.dumps(run["decisions"]).encode()).hexdigest()
        assert digest == _DENSE_DECISIONS_SHA256


class TestAShortScoreScanLoadsNoNumpy:
    def test_a_sparse_batch_is_decided_without_numpy(self):
        vms = generate_vms(200, mean_interarrival=1.0, seed=3)
        assert _fresh_run(_SHORT_SCANS, vms) == [len(vms), len(vms), False]


# -- allocator decisions: every batch on the kernel == none -----------------

VMS = generate_vms(140, mean_interarrival=3.0, seed=3)
CLUSTER = Cluster.paper_all_types(50)


def _run(algo, route, seed=0, constraints=None):
    with probe_route(route):
        allocator = make_allocator(algo, seed=seed)
        plan = allocator.allocate(VMS, CLUSTER, constraints)
    placements = {vm.vm_id: sid for vm, sid in plan.items()}
    return placements, allocation_cost(plan).total


class TestKernelDecisionEquivalence:
    @pytest.mark.parametrize("algo", allocator_names())
    def test_identical_placements_and_energy(self, algo):
        placed_on, energy_on = _run(algo, "kernel")
        placed_off, energy_off = _run(algo, "scalar")
        assert placed_on == placed_off
        assert energy_on == energy_off  # bit-identical, no approx

    @pytest.mark.parametrize("algo", ["min-energy", "ffps", "random-fit",
                                      "round-robin", "best-fit"])
    def test_seeded_runs_agree(self, algo):
        placed_on, energy_on = _run(algo, "kernel", seed=11)
        placed_off, energy_off = _run(algo, "scalar", seed=11)
        assert placed_on == placed_off
        assert energy_on == energy_off

    @pytest.mark.parametrize("algo", ["min-energy", "first-fit",
                                      "best-fit"])
    def test_constrained_runs_agree(self, algo):
        ids = [vm.vm_id for vm in VMS]
        constraints = PlacementConstraints.build(
            separate=[ids[:6], ids[10:14]])
        placed_on, energy_on = _run(algo, "kernel", constraints=constraints)
        placed_off, energy_off = _run(algo, "scalar",
                                      constraints=constraints)
        assert placed_on == placed_off
        assert energy_on == energy_off


# -- EngineConfig surface ---------------------------------------------------

class TestEngineConfig:
    @pytest.mark.parametrize("spec", ["indexed",
                                      "indexed:kernel=off",
                                      "indexed:kernel=on,shards=8"])
    def test_spec_round_trips(self, spec):
        config = EngineConfig.parse(spec)
        assert EngineConfig.parse(config.spec) == config

    @pytest.mark.parametrize("spec, canonical", [
        ("indexed:kernel=on", "indexed"),
        ("indexed:kernel=off,gamma=2", "indexed:gamma=2"),
        ("indexed:kernel=on,shards=8", "indexed")])
    def test_stored_kernel_entry_is_validated_then_dropped(self, spec,
                                                           canonical):
        # Specs and snapshots written by earlier builds may carry one;
        # who probes is the batch's length, not the config.
        config = EngineConfig.parse(spec)
        assert config == EngineConfig.parse(canonical)
        assert config.spec == canonical
        with pytest.raises(TypeError):
            EngineConfig(kernel=True)

    def test_bad_specs_are_rejected(self):
        for bad in ("warp", "indexed:kernel=maybe", "indexed:shards=x",
                    "indexed:shards=0", "indexed:turbo=on",
                    "indexed:kernel"):
            with pytest.raises(ValidationError):
                EngineConfig.parse(bad)

    def test_record_round_trips(self):
        # The stored form is the spec string (snapshots, daemon config).
        config = EngineConfig(robustness=RobustnessConfig(gamma=2))
        assert EngineConfig.parse(config.spec) == config

    def test_stored_shards_entry_is_validated_then_dropped(self):
        # Specs written by earlier builds may carry one.
        config = EngineConfig.parse("indexed:shards=8")
        assert config == EngineConfig()
        assert config.spec == "indexed"
        restored = EngineConfig.parse("indexed:shards=4,gamma=1")
        assert restored == EngineConfig(robustness=RobustnessConfig(gamma=1))
        assert "shards" not in restored.spec
        for bad in ("x", 0, -3):
            with pytest.raises(ValidationError):
                EngineConfig.parse(f"indexed:shards={bad}")

    def test_ctor_string_is_removed(self):
        # The bare-string constructor form finished its deprecation
        # cycle: allocator ctors and coerce() now reject it outright.
        with pytest.raises(ValidationError, match="removed"):
            make_allocator("first-fit").__class__(engine="indexed")
        with pytest.raises(ValidationError, match="EngineConfig"):
            EngineConfig.coerce("indexed:gamma=2")
        # Sanctioned spec-string surfaces still parse strings silently.
        assert EngineConfig.coerce("indexed:gamma=2", warn=False) == \
            EngineConfig(robustness=RobustnessConfig(gamma=2))

    def test_make_allocator_spec_string_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            allocator = make_allocator("min-energy", engine="indexed:gamma=2")
        assert allocator.engine_config == \
            EngineConfig(robustness=RobustnessConfig(gamma=2))

    def test_snapshot_journals_engine_config(self):
        store = ClusterStateStore(Cluster.paper_all_types(4),
                                  engine="indexed:gamma=2")
        document = store.to_snapshot()
        assert document["engine"] == "indexed:gamma=2"
        restored = ClusterStateStore.from_snapshot(document)
        assert restored.engine_config == store.engine_config

    def test_legacy_snapshot_engine_string_restores(self):
        store = ClusterStateStore(Cluster.paper_all_types(3))
        document = store.to_snapshot()
        document["engine"] = "indexed:kernel=off"  # an earlier build's
        restored = ClusterStateStore.from_snapshot(document)
        assert restored.engine_config == EngineConfig()
        del document["engine"]  # pre-engine snapshots carry no field
        assert ClusterStateStore.from_snapshot(document).engine_config \
            == EngineConfig()

    def test_a_dense_snapshot_is_refused(self):
        document = ClusterStateStore(Cluster.paper_all_types(3)) \
            .to_snapshot()
        document["engine"] = "dense"
        with pytest.raises(ValidationError,
                           match="the dense engine was removed; 'indexed' "
                                 "makes the same decisions"):
            ClusterStateStore.from_snapshot(document)
