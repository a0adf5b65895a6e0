"""The candidate index must not change what any allocator decides.

Every registered algorithm is run twice on the same workload — once
with its candidate index, once on the ``unindexed`` route (the index
dropped after ``prepare``: every server probed, collect-then-``choose``)
— and must produce the *identical* placement map and a *bit-identical*
Eq.-17 energy total (``==`` on floats, no tolerance). This is the
contract that lets the index and the fused candidate scans skip
servers: the unindexed route is the paper's rule read literally.

The two scan walks of ``allocators/base.py`` (first admissible along an
order; best score) are additionally held to it per decision — chosen
server *and* probe counters, every batch on the kernel, every batch
scalar, and unindexed — on the
inputs where their branches can drift apart: a server type that can
never host some VMs, active anti-affinity groups, and Γ > 0.

``min-energy``'s queued walk, refused 16 times, drops what is left of
its queues that its type's refusal table or a remembered refusal
refuses, and asks no kernel. It is held to the walk that never
prefetches and asks every busy server (and to the unindexed route) on
dense streams, where the prefetch fires for most VMs — also with books
cut, removed and compacted between prefetches, and on a daemon stream
whose starts go back and forth across a restore: server, both counters
and the Eq.-17 delta as hex.

An explanation is the same whoever probed: every registry allocator's
``PlacementExplanation`` sequence on the four golden streams is ``==``
across the engine specs and the probe routes — reason strings, cost
terms, scores, chosen.
"""

from __future__ import annotations

import math
import random
from contextlib import nullcontext
from dataclasses import replace

import numpy as np
import pytest

from repro.allocators import allocator_names, make_allocator, min_energy
from repro.allocators.state import ServerState
from repro.energy import SleepPolicy, allocation_cost
from repro.model.cluster import Cluster
from repro.model.constraints import PlacementConstraints
from repro.model.intervals import TimeInterval
from repro.obs.tracer import Tracer, use_tracer
from repro.placement import FleetKernel
from repro.placement.index import RefusalTable
from repro.service import AllocationDaemon, ClusterStateStore, place_request
from repro.simulation.recovery import split_remainder
from repro.workload import PhasedWorkload
from repro.workload.generator import generate_vms

from conftest import probe_route
from test_golden_decisions import NOMINAL, ROBUST, STREAMS

VMS = generate_vms(150, mean_interarrival=3.0, seed=0)
CLUSTER = Cluster.paper_all_types(60)


def _built(engine: str):
    """The spec ``spec[/route]`` builds with and the probe route it runs
    on; the golden matrix's ``unindexed`` is ``indexed/unindexed``."""
    if engine == "unindexed":
        engine = "indexed/unindexed"
    spec, _, route = engine.partition("/")
    return spec, probe_route(route) if route else nullcontext()


def _run(algo: str, engine: str, vms=VMS, cluster=CLUSTER, seed=0,
         constraints=None):
    engine, route = _built(engine)
    allocator = make_allocator(algo, seed=seed, engine=engine)
    with route:
        plan = allocator.allocate(vms, cluster, constraints)
    placements = {vm.vm_id: sid for vm, sid in plan.items()}
    return placements, allocation_cost(plan).total


#: Allocators whose ``_select`` is one of the two base walks.
FIRST_FIT_FAMILY = ["first-fit", "ffps", "power-aware", "round-robin"]
SCORE_FAMILY = ["best-fit", "worst-fit"]


def _trail(algo: str, engine: str, vms, cluster, constraints):
    """Per decision: (vm, server, candidates_evaluated, _feasible)."""
    engine, route = _built(engine)
    allocator = make_allocator(algo, seed=5, engine=engine)
    with route, use_tracer(Tracer()) as tracer:
        allocator.allocate(vms, cluster, constraints)
    return [(e.args["vm_id"], e.args["server_id"], e.args["evaluated"],
             e.args["feasible"])
            for e in tracer.events if e.name == "place"]


def _min_energy_trail(engine: str, vms, cluster, constraints=None,
                      policy=SleepPolicy.OPTIMAL):
    """Per decision ``(vm, server, candidates_evaluated, _feasible,
    Eq.-17 delta as hex)`` — ``server`` is ``None`` where nothing fits —
    the run's fleet kernel (``None``: none was built) and how many walks
    prefetched."""
    engine, route = _built(engine)
    allocator = make_allocator("min-energy", engine=engine, policy=policy)
    counters = {}
    prefetches = 0
    select, prefetch = allocator.select, allocator._prefetch

    def counted_select(vm, states):
        chosen = select(vm, states)
        counters[vm.vm_id] = (allocator.candidates_evaluated,
                              allocator.candidates_feasible)
        return chosen

    def counted_prefetch(*args):
        nonlocal prefetches
        prefetches += 1
        return prefetch(*args)

    allocator.select = counted_select
    allocator._prefetch = counted_prefetch
    with route:
        decisions = allocator.allocate_batch(vms, cluster, constraints)
    index = allocator._index
    return ([(d.vm.vm_id, d.server_id, *counters[d.vm.vm_id],
              d.energy_delta.hex()) for d in decisions],
            None if index is None else index._kernel, prefetches)


def _one_at_a_time(engine: str, vms, cluster, constraints=None,
                   policy=SleepPolicy.OPTIMAL):
    """:func:`_min_energy_trail` of the walk that never prefetches:
    every busy server it reaches is asked through ``_examine``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(min_energy, "_BATCH_AFTER", math.inf)
        return _min_energy_trail(engine, vms, cluster, constraints, policy)


#: ~1200 VMs alive at once on 90 servers: most busy servers are full, so
#: most walks collect their 16 refusals and finish batched.
DENSE_CLUSTER = Cluster.paper_all_types(90)
DENSE_STREAMS = {
    "poisson": generate_vms(600, mean_interarrival=0.05, mean_duration=60,
                            seed=3),
    "phased": PhasedWorkload(mean_interarrival=0.05, mean_duration=60,
                             uncertainty=0.3).generate(600, rng=4),
}


def _colliding_groups(vms) -> PlacementConstraints:
    """Anti-affinity groups spread over the arrival order, so later
    members are refused servers the batch reports feasible, and one
    affinity pair, whose second member every pristine server refuses."""
    ids = [vm.vm_id for vm in sorted(vms, key=lambda v: (v.start, v.vm_id))]
    return PlacementConstraints.build(
        separate=[ids[5:400:25], ids[8:600:40], ids[300:312]],
        colocate=[[ids[150], ids[450]]])


def _mutating_walk(engine: str, vms) -> tuple[list, set[str]]:
    """``select`` + ``place`` over ``vms`` in start order on
    ``DENSE_CLUSTER``, and every third decision a mutation of a book
    the walk placed on before: ``cut`` a resident at the current start
    (its head stays), ``remove`` one whole (books never compacted only),
    or ``compact`` before the current start. Returns the trail — ``(vm,
    server, evaluated, feasible, delta hex)`` — and the mutation kinds
    that ran."""
    allocator = make_allocator("min-energy", engine=engine)
    states = allocator.books(DENSE_CLUSTER)
    allocator.prepare(states)
    pick = random.Random(7)
    placed: list = []           # (vm, book)
    compacted: set[int] = set()
    kinds: set[str] = set()
    next_id = 10_000
    trail = []
    for i, vm in enumerate(sorted(vms, key=lambda v: (v.start, v.vm_id))):
        chosen = allocator.select(vm, states)
        if chosen is None:
            trail.append((vm.vm_id, None))
            continue
        trail.append((vm.vm_id, chosen.server.server_id,
                      allocator.candidates_evaluated,
                      allocator.candidates_feasible,
                      chosen.place(vm, allocator.chosen_cost).hex()))
        placed.append((vm, chosen))
        if i % 3 or len(placed) < 10:
            continue
        kind = ("cut", "remove", "compact")[i // 3 % 3]
        running = [(resident, book) for resident, book in placed
                   if resident.end >= vm.start and resident in book.vms
                   and (kind != "remove" or id(book) not in compacted)]
        if not running:
            continue
        resident, book = running[pick.randrange(len(running))]
        if kind == "cut":
            head, _, next_id = split_remainder(resident, vm.start, next_id)
            book.cut(resident, vm.start, head)
        elif kind == "remove":
            book.remove(resident)
        else:
            book.compact(vm.start)
            compacted.add(id(book))
        kinds.add(kind)
    return trail, kinds


class TestMinEnergyBatchedFinish:
    @pytest.mark.parametrize("policy", list(SleepPolicy))
    @pytest.mark.parametrize("constrained", [False, True])
    @pytest.mark.parametrize("gamma", [0, 2])
    @pytest.mark.parametrize("stream", sorted(DENSE_STREAMS))
    def test_dense_streams_match_the_scalar_walks(self, stream, gamma,
                                                  constrained, policy):
        vms = DENSE_STREAMS[stream]
        constraints = _colliding_groups(vms) if constrained else None
        engine = f"indexed:gamma={gamma}" if gamma else "indexed"
        batched, kernel, prefetches = _min_energy_trail(
            engine, vms, DENSE_CLUSTER, constraints, policy)
        scalar, _, never = _one_at_a_time(
            engine, vms, DENSE_CLUSTER, constraints, policy)
        assert len(batched) == len(vms)
        assert batched == scalar
        assert kernel is None  # the prefetch asks no kernel
        assert 0 < prefetches <= len(vms) and never == 0
        unindexed, *_ = _min_energy_trail(f"{engine}/unindexed", vms,
                                          DENSE_CLUSTER, constraints, policy)
        # No index: every server is probed, so the counters include
        # the types and pristine clones the queues skip.
        assert [(row[0], row[1], row[4]) for row in unindexed] \
            == [(row[0], row[1], row[4]) for row in batched]

    @pytest.mark.parametrize("engine", ["indexed", "indexed:gamma=2"])
    def test_the_prefetch_asks_yes_or_no(self, engine, monkeypatch):
        # The prefetch asks each skyline's remembered refusal a yes or
        # no, and no kernel: none is built, numpy's or otherwise.
        built = []
        init = FleetKernel.__init__

        def counted_init(self, *args):
            built.append(self)
            init(self, *args)

        monkeypatch.setattr(FleetKernel, "__init__", counted_init)
        vms = DENSE_STREAMS["poisson"]
        _, kernel, prefetches = _min_energy_trail(engine, vms, DENSE_CLUSTER)
        assert built == [] and kernel is None
        assert 0 < prefetches <= len(vms)

    def test_sparse_stream_never_batches(self):
        _, kernel, prefetches = _min_energy_trail("indexed", VMS, CLUSTER)
        assert kernel is None and prefetches == 0

    def test_overfull_fleet_rejects_with_equal_counters(self):
        vms = DENSE_STREAMS["poisson"][:300]
        cluster = Cluster.paper_all_types(18)
        batched, _, prefetches = _min_energy_trail("indexed", vms, cluster)
        scalar, *_ = _one_at_a_time("indexed", vms, cluster)
        assert any(server is None for _, server, *_ in batched)
        assert batched == scalar
        assert prefetches > 0

    def test_daemon_ticks_between_batched_probes(self, tmp_path):
        # retire/compact forget remembered refusals between prefetches;
        # the journal replays to the same energy.
        vms = sorted(DENSE_STREAMS["poisson"][:400],
                     key=lambda v: (v.start, v.end, v.vm_id))
        runs = {}
        for prefetching in (True, False):
            name = f"prefetch-{prefetching}"
            with pytest.MonkeyPatch.context() as patch:
                if not prefetching:
                    patch.setattr(min_energy, "_BATCH_AFTER", math.inf)
                store = ClusterStateStore(DENSE_CLUSTER, engine="indexed")
                daemon = AllocationDaemon(
                    store, data_dir=tmp_path / name, fsync=False,
                    snapshot_every=150, algo_params={"engine": "indexed"})
                responses = []
                for i, vm in enumerate(vms):
                    if i % 25 == 0:
                        assert daemon.handle({"op": "tick",
                                              "now": vm.start})["ok"]
                    response = daemon.handle(place_request(vm))
                    responses.append((response.get("server_id"),
                                      response.get("energy_delta"),
                                      response.get("candidates")))
            runs[prefetching] = (
                responses, daemon.handle({"op": "stats"})["energy_total"])
            assert daemon.allocator._index._kernel is None
            del daemon  # hard kill: no shutdown, no final snapshot
            restored = AllocationDaemon.restore(tmp_path / name,
                                                fsync=False)
            assert restored.handle({"op": "stats"})["energy_total"] \
                == runs[prefetching][1]
        assert runs[True] == runs[False]

    def test_a_daemon_stream_whose_starts_go_back_and_forth(
            self, tmp_path, monkeypatch):
        # Blocks of 40 VMs 150 ticks apart, early and late by turns: a
        # fact recorded for a late VM lies past an early one's end, one
        # for an early VM ends before a late one starts, and the
        # prefetch evicts both kinds before it drops anything. A kill +
        # restore halfway starts the tables empty on restored books.
        base = DENSE_STREAMS["poisson"][:480]
        late = [replace(vm, interval=TimeInterval(vm.start + 150,
                                                  vm.end + 150))
                for vm in base[240:]]
        vms = [vm for i in range(0, 240, 40)
               for vm in base[i:i + 40] + late[i:i + 40]]
        evicted = {"past": 0, "future": 0}
        evict = RefusalTable.evict_outside

        def counted_evict(table, start, end):
            before = dict(table.facts)
            evict(table, start, end)
            for pos, (lo, hi, _, _) in before.items():
                if pos not in table.facts:
                    evicted["past" if hi <= start else "future"] += 1

        monkeypatch.setattr(RefusalTable, "evict_outside", counted_evict)
        runs = {}
        for prefetching in (True, False):
            name = f"prefetch-{prefetching}"
            with pytest.MonkeyPatch.context() as patch:
                if not prefetching:
                    patch.setattr(min_energy, "_BATCH_AFTER", math.inf)
                daemon = AllocationDaemon(
                    ClusterStateStore(DENSE_CLUSTER, engine="indexed"),
                    data_dir=tmp_path / name, fsync=False,
                    snapshot_every=100, algo_params={"engine": "indexed"})
                responses = []
                for i, vm in enumerate(vms):
                    if i == len(vms) // 2:
                        del daemon  # hard kill: no shutdown
                        daemon = AllocationDaemon.restore(tmp_path / name,
                                                          fsync=False)
                    response = daemon.handle(place_request(vm))
                    responses.append((response.get("server_id"),
                                      response.get("energy_delta"),
                                      response.get("candidates")))
            runs[prefetching] = (
                responses, daemon.handle({"op": "stats"})["energy_total"])
        assert runs[True] == runs[False]
        assert evicted["past"] > 0 and evicted["future"] > 0

    @pytest.mark.parametrize("engine", ["indexed", "indexed:gamma=2"])
    def test_books_cut_removed_and_compacted_between_prefetches(
            self, engine):
        # A commit only adds demand, so a stale fact would still refuse;
        # a cut or a remove frees a book the table saw refusing, and a
        # compact drops the segment a fact names. Each notifies, and the
        # table forgets: the walk that prefetches decides and counts like
        # the one that asks every busy server.
        trails = {}
        for batch_after in (min_energy._BATCH_AFTER, math.inf):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(min_energy, "_BATCH_AFTER", batch_after)
                trails[batch_after] = _mutating_walk(
                    engine, DENSE_STREAMS["poisson"])
        trail, kinds = trails[min_energy._BATCH_AFTER]
        assert trail == trails[math.inf][0]
        assert kinds == {"cut", "remove", "compact"}


#: Long idle gaps: a ~5-tick VM every ~4 ticks on 60 servers, so most
#: busy servers have been quiet for longer than their type's saturating
#: gap when the next VM comes — each walk meets dormant clones.
IDLE_VMS = generate_vms(400, mean_interarrival=4.0, seed=0)
IDLE_CLUSTER = Cluster.paper_all_types(60)


def _select_loop(engine: str, vms, policy) -> list:
    """``select`` + ``place`` per VM in the given order — starts need not
    rise — as ``(vm, server, evaluated, feasible, delta hex)``."""
    engine, route = _built(engine)
    allocator = make_allocator("min-energy", engine=engine, policy=policy)
    states = [ServerState(server, policy=policy,
                          engine=allocator.engine_config)
              for server in IDLE_CLUSTER]
    with route:
        allocator.prepare(states)
    trail = []
    for vm in vms:
        chosen = allocator.select(vm, states)
        trail.append((vm.vm_id, chosen.server.server_id,
                      allocator.candidates_evaluated,
                      allocator.candidates_feasible, chosen.place(vm).hex()))
    return trail


class TestMinEnergyCloneClass:
    """The walk admits and prices a type's clone class (its pristine
    and dormant servers) by the type, asking none of them, and still
    decides — and counts — like the walk that asks each, and like
    collect-then-``choose``."""

    @pytest.mark.parametrize("policy", list(SleepPolicy))
    def test_the_walk_decides_like_choose_without_pricing_clones(
            self, policy, monkeypatch):
        deltas = busy_admitted = pristine_asked = 0
        idle_delta, admits = ServerState.idle_delta, ServerState.admits

        def counted_delta(state, interval):
            nonlocal deltas
            deltas += 1
            return idle_delta(state, interval)

        def counted_admits(state, vm):
            nonlocal busy_admitted, pristine_asked
            fits = admits(state, vm)
            if state.quiet_after is None:
                pristine_asked += 1
            elif fits:
                busy_admitted += 1
            return fits

        with monkeypatch.context() as patch:
            patch.setattr(ServerState, "idle_delta", counted_delta)
            patch.setattr(ServerState, "admits", counted_admits)
            walk, *_ = _min_energy_trail("indexed", IDLE_VMS, IDLE_CLUSTER,
                                         policy=policy)
        chosen, *_ = _min_energy_trail("unindexed", IDLE_VMS, IDLE_CLUSTER,
                                       policy=policy)
        assert [(row[0], row[1], row[4]) for row in walk] \
            == [(row[0], row[1], row[4]) for row in chosen]
        # A pristine server is admitted and priced by its type: never
        # asked. The walk prices each busy server it admits, and only
        # those; each commit books its walk's price, pricing nothing.
        assert pristine_asked == 0
        assert deltas == busy_admitted
        feasible = sum(row[3] for row in walk)
        evaluated = sum(row[2] for row in walk)
        if policy is not SleepPolicy.NEVER_SLEEP:  # clones go unpriced
            assert deltas < feasible / 2 and feasible <= evaluated

    @pytest.mark.parametrize("policy", list(SleepPolicy))
    def test_starts_out_of_order_settle_back(self, policy):
        # A stream's second half interleaved with its first: the dormant
        # queues are cut ~200 ticks late, then back early, by turns. With
        # ~10 VMs alive at once a type has several servers the early VMs
        # just left, warm again for the next early one.
        ordered = sorted(generate_vms(400, mean_interarrival=1.0,
                                      mean_duration=10.0, seed=0),
                         key=lambda v: (v.start, v.vm_id))
        vms = [vm for pair in zip(ordered[200:], ordered[:200])
               for vm in pair]
        walk = _select_loop("indexed", vms, policy)
        chosen = _select_loop("unindexed", vms, policy)
        assert [(row[0], row[1], row[4]) for row in walk] \
            == [(row[0], row[1], row[4]) for row in chosen]


def _full_batch_choice(allocator, vm, states):
    """The score rule over every candidate's verdict — what
    ``_best_scored`` did before it probed one clone per idle class — and
    the counters that scan keeps."""
    allocator.candidates_evaluated = allocator.candidates_feasible = 0
    batch = allocator._probe_batch(vm, states)
    rows = allocator._admissible_rows(vm, batch)
    chosen = None if not rows.size else batch.state_at(
        rows[int(np.argmin(allocator.score(vm, batch)[rows]))])
    return chosen, (allocator.candidates_evaluated,
                    allocator.candidates_feasible)


def _kernel_calls(allocator) -> int:
    kernel = allocator._index._kernel
    return 0 if kernel is None else kernel.probe_calls


#: name -> (VMs in the order they are offered, servers): long idle gaps
#: (dormant clones), starts out of order (the settle rewind), a dense
#: stream (more warm rows than the scalar fill takes: one probe_fleet),
#: and the radii a Γ spec charges.
_SCORE_STREAMS = {
    "idle": (IDLE_VMS, 60),
    "interleaved": ([vm for pair in zip(IDLE_VMS[200:], IDLE_VMS[:200])
                     for vm in pair], 60),
    "dense": (sorted(DENSE_STREAMS["poisson"][:300],
                     key=lambda v: (v.start, v.vm_id)), 90),
    "phased": (sorted(DENSE_STREAMS["phased"][:300],
                      key=lambda v: (v.start, v.vm_id)), 90),
}


class TestScoreScanCloneClass:
    """Best-fit and worst-fit probe each type's warm servers and one
    member of its clone class, and choose — and count — like the scan
    that probes every candidate, on books that retire and compact."""

    @pytest.mark.parametrize("policy", list(SleepPolicy))
    @pytest.mark.parametrize("engine", ["indexed", "indexed/scalar",
                                        "indexed:gamma=2"])
    @pytest.mark.parametrize("stream", sorted(_SCORE_STREAMS))
    @pytest.mark.parametrize("algo", SCORE_FAMILY)
    def test_the_reduced_scan_is_the_full_batchs(self, algo, stream,
                                                  engine, policy):
        engine, _, route = engine.partition("/")
        vms, servers = _SCORE_STREAMS[stream]
        allocator = make_allocator(algo, engine=engine, policy=policy)
        states = [ServerState(server, policy=policy,
                              engine=allocator.engine_config)
                  for server in Cluster.paper_all_types(servers)]
        allocator.prepare(states)
        running: list = []
        fleet_probes = 0
        with probe_route(route) if route else nullcontext():
            for vm in vms:
                # retire what ended two ticks ago, compacting the book
                for entry in [e for e in running if e[0] < vm.start - 1]:
                    running.remove(entry)
                    entry[1].retire(entry[2], before=vm.start - 1)
                calls = _kernel_calls(allocator)
                chosen = allocator.select(vm, states)
                fleet_probes += _kernel_calls(allocator) - calls
                counters = (allocator.candidates_evaluated,
                            allocator.candidates_feasible)
                assert (chosen, counters) \
                    == _full_batch_choice(allocator, vm, states)
                if chosen is not None:
                    chosen.place(vm)
                    running.append((vm.end, chosen, vm))
        if stream == "dense" and not route:
            assert fleet_probes > 0   # the named rows went to the kernel
        elif stream == "idle":
            assert fleet_probes == 0


class TestEngineEquivalence:
    @pytest.mark.parametrize("algo", allocator_names())
    def test_identical_placements_and_energy(self, algo):
        placed_idx, energy_idx = _run(algo, "indexed")
        placed_unx, energy_unx = _run(algo, "unindexed")
        assert placed_idx == placed_unx
        assert energy_idx == energy_unx  # bit-identical, no approx

    @pytest.mark.parametrize("algo", ["min-energy", "ffps", "random-fit",
                                      "round-robin"])
    @pytest.mark.parametrize("seed", [1, 7])
    def test_seeded_runs_agree(self, algo, seed):
        placed_idx, energy_idx = _run(algo, "indexed", seed=seed)
        placed_unx, energy_unx = _run(algo, "unindexed", seed=seed)
        assert placed_idx == placed_unx
        assert energy_idx == energy_unx

    @pytest.mark.parametrize("algo", allocator_names())
    def test_phased_workload_agrees(self, algo):
        vms = PhasedWorkload(mean_interarrival=3.0).generate(80, rng=0)
        cluster = Cluster.paper_all_types(40)
        placed_idx, energy_idx = _run(algo, "indexed", vms, cluster)
        placed_unx, energy_unx = _run(algo, "unindexed", vms, cluster)
        assert placed_idx == placed_unx
        assert energy_idx == energy_unx

    @pytest.mark.parametrize("algo", ["min-energy", "first-fit",
                                      "best-fit"])
    def test_constrained_runs_agree(self, algo):
        ids = [vm.vm_id for vm in VMS[:20]]
        constraints = PlacementConstraints.build(
            separate=[ids[:6], ids[10:14]])
        placed_idx, energy_idx = _run(algo, "indexed",
                                      constraints=constraints)
        placed_unx, energy_unx = _run(algo, "unindexed",
                                          constraints=constraints)
        assert placed_idx == placed_unx
        assert energy_idx == energy_unx

    @pytest.mark.parametrize("gamma", [0, 2])
    @pytest.mark.parametrize("algo", FIRST_FIT_FAMILY + SCORE_FAMILY)
    def test_walks_agree_on_server_and_counters(self, algo, gamma):
        vms = PhasedWorkload(mean_interarrival=1.0,
                             uncertainty=0.3).generate(150, rng=4)
        cluster = Cluster.paper_all_types(60)
        # Some server type can never host some VM: the walks must skip
        # it uncounted on every engine.
        assert any(vm.cpu > server.cpu_capacity
                   or vm.memory > server.memory_capacity
                   for vm in vms for server in cluster)
        ids = [vm.vm_id for vm in vms]
        constraints = PlacementConstraints.build(
            separate=[ids[:6], ids[20:24], ids[90:94]])
        engine = f"indexed:gamma={gamma}" if gamma else "indexed"
        with probe_route("kernel"):
            kernel = _trail(algo, engine, vms, cluster, constraints)
        with probe_route("scalar"):
            scalar = _trail(algo, engine, vms, cluster, constraints)
        assert len(kernel) == len(vms)
        assert scalar == kernel
        unindexed = _trail(algo, f"{engine}/unindexed", vms, cluster,
                           constraints)
        # With no index every server is probed, so the types the index
        # skips count as evaluated too.
        assert [(vm, sid, feasible) for vm, sid, _, feasible in unindexed] \
            == [(vm, sid, feasible) for vm, sid, _, feasible in kernel]

    def test_tight_fleet_agrees_under_pressure(self):
        # Few servers: feasibility pruning and tie-breaking both bite.
        vms = generate_vms(80, mean_interarrival=2.0, seed=3)
        cluster = Cluster.paper_all_types(30)
        for algo in allocator_names():
            placed_idx, energy_idx = _run(algo, "indexed", vms, cluster)
            placed_unx, energy_unx = _run(algo, "unindexed", vms, cluster)
            assert placed_idx == placed_unx, algo
            assert energy_idx == energy_unx, algo


def _explanations(algo: str, engine: str, stream: str) -> list:
    """``explain_select`` + ``place`` over a golden stream; a rejected
    VM is explained and skipped."""
    vms, servers = STREAMS[stream]
    engine, route = _built(engine)
    allocator = make_allocator(algo, seed=5, engine=engine)
    states = [ServerState(server, engine=allocator.engine_config)
              for server in Cluster.paper_all_types(servers)]
    with route:
        allocator.prepare(states)
    by_id = {state.server.server_id: state for state in states}
    explanations = []
    for vm in allocator.order_vms(list(vms)):
        chosen, explanation = allocator.explain_select(vm, states)
        if algo != "round-robin":  # its cursor has moved on by now
            # the per-candidate hook is the rule the batch was rated by
            assert all(
                allocator.candidate_score(vm, by_id[v.server_id]) == v.score
                for v in explanation.candidates if v.feasible)
        explanations.append(explanation)
        if chosen is not None:
            chosen.place(vm)
    return explanations


class TestExplainParity:
    @pytest.mark.parametrize("stream", STREAMS)
    @pytest.mark.parametrize("algo", allocator_names())
    def test_explanations_equal_whoever_probed(self, algo, stream):
        for specs in (NOMINAL, ROBUST):
            # a golden fleet is shorter than _FLEET_PROBE_FROM: the
            # default probes scalar, the patch sends every batch to the
            # kernel
            with probe_route("kernel"):
                first = _explanations(algo, specs[0], stream)
            others = [_explanations(algo, engine, stream)
                      for engine in specs]
            assert len(first) == len(STREAMS[stream][0])
            assert any(v.feasible for e in first for v in e.candidates)
            for other in others:
                assert other == first
