"""Micro-benchmarks: allocation throughput of the core algorithms.

These use pytest-benchmark's statistics properly (multiple rounds) and
guard the library's performance envelope: the paper's heuristic evaluates
the incremental cost on every feasible server per VM, so it must stay
usable at the paper's 1000-VM scale. The 1000-VM / 300-server point also
pins the indexed placement engine's speedup over the dense oracle — the
contract that justified replacing the numpy timelines with the skyline
index (see ``docs/api.md``, *Placement engine*).
"""

from __future__ import annotations

import os
import sys
import time

import pytest

from repro.allocators import make_allocator
from repro.allocators.base import Allocator
from repro.allocators.state import ServerState
from repro.energy import allocation_cost, energy_report
from repro.energy import power
from repro.energy.cost import saturating_gap
from repro.ilp import build_problem
from repro.model.cluster import Cluster
from repro.model.intervals import TimeInterval
from repro.service.daemon import AllocationDaemon
from repro.service.protocol import place_batch_request
from repro.service.state import ClusterStateStore
from repro.simulation import SimulationEngine
from repro.workload.generator import generate_vms
from repro.workload.phased import PhasedWorkload

from conftest import record_json, record_result

VMS = generate_vms(300, mean_interarrival=4.0, seed=0)
CLUSTER = Cluster.paper_all_types(150)

#: The tentpole scale point: 1000 VMs onto 300 servers.
VMS_1K = generate_vms(1000, mean_interarrival=4.0, seed=0)
CLUSTER_300 = Cluster.paper_all_types(300)


@pytest.mark.parametrize("algo", ["min-energy", "ffps", "best-fit"])
def test_allocator_throughput(benchmark, algo):
    allocation = benchmark(
        lambda: make_allocator(algo, seed=0).allocate(VMS, CLUSTER))
    assert len(allocation) == len(VMS)


@pytest.mark.parametrize("algo", ["min-energy", "ffps", "best-fit"])
def test_allocator_throughput_1k(benchmark, algo):
    allocation = benchmark(
        lambda: make_allocator(algo, seed=0).allocate(VMS_1K, CLUSTER_300))
    assert len(allocation) == len(VMS_1K)


def _best_run(algo: str, engine: str, vms, cluster, rounds: int
              ) -> tuple[float, dict[int, int]]:
    best = float("inf")
    placements: dict[int, int] = {}
    for _ in range(rounds):
        allocator = make_allocator(algo, seed=0, engine=engine)
        started = time.perf_counter()
        plan = allocator.allocate(vms, cluster)
        best = min(best, time.perf_counter() - started)
        placements = {vm.vm_id: sid for vm, sid in plan.items()}
    return best, placements


def _probe_counts(algo: str, vms, cluster, monkeypatch
                  ) -> tuple[int, int, int]:
    """One untimed ``kernel=on`` run: (scalar ``ServerState.admits``
    calls — the walk's yes/no probes, kernel calls (``probe_fleet`` or
    ``admits_fleet``), rows those calls covered)."""
    scalar = 0
    admits = ServerState.admits

    def counted(state, vm):
        nonlocal scalar
        scalar += 1
        return admits(state, vm)

    allocator = make_allocator(algo, seed=0, engine="indexed:kernel=on")
    with monkeypatch.context() as patch:
        patch.setattr(ServerState, "admits", counted)
        allocator.allocate(vms, cluster)
    kernel = allocator._index.kernel
    return scalar, kernel.probe_calls, kernel.rows_probed


def test_indexed_engine_speedup_1k():
    """Indexed >= 3x faster than dense at 1000 VMs / 300 servers, with
    identical placements (the equivalence contract on the hot path)."""
    indexed_s, indexed_placed = _best_run(
        "min-energy", "indexed", VMS_1K, CLUSTER_300, 3)
    dense_s, dense_placed = _best_run(
        "min-energy", "dense", VMS_1K, CLUSTER_300, 3)
    assert indexed_placed == dense_placed
    speedup = dense_s / indexed_s
    record_result("engine_speedup", "\n".join([
        "min-energy, 1000 VMs / 300 servers (best of 3)",
        f"indexed engine: {indexed_s * 1000:8.1f} ms",
        f"dense engine:   {dense_s * 1000:8.1f} ms",
        f"speedup:        {speedup:8.2f}x (floor: 3.00x)",
    ]))
    record_json("engine", {
        "benchmark": "min-energy, 1000 VMs / 300 servers (best of 3)",
        "indexed_ms": round(indexed_s * 1000, 1),
        "dense_ms": round(dense_s * 1000, 1),
        "speedup": round(speedup, 2),
        "floor": 3.0,
    })
    assert speedup >= 3.0


#: The kernel-scale fleet: 3000 servers, ten times the paper's largest.
CLUSTER_3K = Cluster.paper_all_types(3000)
VMS_10K = generate_vms(10_000, mean_interarrival=1.0, seed=0)

#: What the candidate queues are for: a walk costs the servers it
#: probes, not the fleet it skips. One sparse stream, two fleets. Measured
#: 1.07x (kernel on) / 1.15x (off) for ten times the servers; the
#: fleet-order scan the queues replaced grew 5.57x.
VMS_SPARSE_5K = generate_vms(5000, mean_interarrival=1.0, seed=0)
FLEET_SCALING_CEILING = 2.0
#: Servers the walk asks one at a time (``Allocator._examine``, one
#: ``ServerState.admits`` each) per VM of that stream on 3000 servers:
#: the warm ones — a type's clone class, its pristine and dormant
#: servers, is admitted and priced by the type. A count, so it repeats
#: exactly: measured 2.887 (6.105 while one member of each clone class
#: was asked, 14.957 while each dormant server was); the gate is 1.25x
#: that.
EXAMINES_PER_VM = 2.887
EXAMINES_CEILING = round(1.25 * EXAMINES_PER_VM, 2)


def _examine_calls(algo: str, vms, cluster, monkeypatch) -> int:
    """One untimed run's scalar ``Allocator._examine`` calls."""
    calls = 0
    examine = Allocator._examine

    def counted(allocator, vm, state):
        nonlocal calls
        calls += 1
        return examine(allocator, vm, state)

    with monkeypatch.context() as patch:
        patch.setattr(Allocator, "_examine", counted)
        make_allocator(algo, seed=0).allocate(vms, cluster)
    return calls


def test_candidate_index_fleet_scaling(monkeypatch):
    """min-energy on one sparse 5000-VM stream takes <= 2x as long on
    3000 servers as on 300, with and without a kernel; both specs place
    identically, and — refusals being rare on a sparse stream — the walk
    never calls ``probe_fleet`` (the kernel itself is gated below). At
    3000 servers it asks <= 1.25x the measured servers per VM one at a
    time — a count, not a stopwatch, that fails if the walk goes back to
    asking each idle server."""
    fleets = {300: CLUSTER_300, 3000: CLUSTER_3K}
    engines = ("indexed", "indexed:kernel=off")
    seconds = {(engine, n): float("inf") for n in fleets
               for engine in engines}
    placed = {}
    for _ in range(3):  # take turns: every side sees the same box phases
        for engine, n in seconds:
            run_s, placed[engine, n] = _best_run(
                "min-energy", engine, VMS_SPARSE_5K, fleets[n], 1)
            seconds[engine, n] = min(seconds[engine, n], run_s)
    for n, cluster in fleets.items():
        assert placed["indexed", n] == placed["indexed:kernel=off", n]
        assert _probe_counts("min-energy", VMS_SPARSE_5K, cluster,
                             monkeypatch)[1] == 0
    examines = _examine_calls("min-energy", VMS_SPARSE_5K, CLUSTER_3K,
                              monkeypatch) / len(VMS_SPARSE_5K)
    title = "min-energy, 5000 sparse VMs, 3000 vs 300 servers " \
            "(best of 3, alternating); 0 probe_fleet calls"
    lines = [title]
    summary = {"benchmark": title, "ceiling": FLEET_SCALING_CEILING,
               "examines_per_vm_3000": round(examines, 3),
               "examines_per_vm_ceiling": EXAMINES_CEILING}
    for engine in engines:
        small, large = seconds[engine, 300], seconds[engine, 3000]
        summary[engine] = {"servers_300_ms": round(small * 1000, 1),
                           "servers_3000_ms": round(large * 1000, 1),
                           "growth": round(large / small, 2)}
        lines.append(f"{engine:18s}: {small * 1000:7.1f} ms -> "
                     f"{large * 1000:7.1f} ms  {large / small:5.2f}x "
                     f"(ceiling {FLEET_SCALING_CEILING:.2f}x)")
    lines.append(f"servers asked one at a time per VM at 3000: "
                 f"{examines:.3f} (ceiling {EXAMINES_CEILING:.2f})")
    record_result("candidate_index_scaling", "\n".join(lines))
    record_json("kernel", summary, section="candidate_index")
    for engine in engines:
        assert summary[engine]["growth"] <= FLEET_SCALING_CEILING, summary
    assert examines <= EXAMINES_CEILING, summary


def _idle(state: ServerState, start: int) -> bool:
    """Whether ``state`` is in its type's clone class for a VM starting
    at ``start``: pristine, or dormant for it (quiet since its type's
    saturating gap before ``start``)."""
    quiet = state.quiet_after
    gap = saturating_gap(state.server.spec, state.policy)
    return quiet is None or gap is not None and quiet <= start - 1 - gap


def test_min_energy_asks_no_idle_server(monkeypatch):
    """min-energy on the sparse 5000-VM stream, 3000 servers: its walks
    make no ``admits`` and no ``idle_delta`` call on a pristine server
    or one dormant for the VM (the commits price nothing:
    :func:`test_min_energy_prices_once`), and <= ``EXAMINES_CEILING``
    ``admits`` calls per VM. Counts, not a stopwatch: it fails if the
    walk goes back to asking an idle server what its type already
    answers."""
    walking = False
    idle_asked = admits_calls = 0
    admits, idle_delta = ServerState.admits, ServerState.idle_delta

    def counted_admits(state, vm):
        nonlocal idle_asked, admits_calls
        if walking:
            admits_calls += 1
            idle_asked += _idle(state, vm.start)
        return admits(state, vm)

    def counted_delta(state, interval):
        nonlocal idle_asked
        if walking:
            idle_asked += _idle(state, interval.start)
        return idle_delta(state, interval)

    allocator = make_allocator("min-energy", seed=0)
    select = allocator.select

    def walk(vm, states):
        nonlocal walking
        walking = True
        try:
            return select(vm, states)
        finally:
            walking = False

    allocator.select = walk
    with monkeypatch.context() as patch:
        patch.setattr(ServerState, "admits", counted_admits)
        patch.setattr(ServerState, "idle_delta", counted_delta)
        allocator.allocate(VMS_SPARSE_5K, CLUSTER_3K)
    per_vm = admits_calls / len(VMS_SPARSE_5K)
    record_json("kernel", {
        "benchmark": "min-energy, 5000 sparse VMs / 3000 servers: what "
                     "the walks ask (counts)",
        "idle_server_asks": idle_asked,
        "admits_per_vm": round(per_vm, 3),
        "admits_per_vm_ceiling": EXAMINES_CEILING,
    }, section="min_energy_idle_asks")
    assert idle_asked == 0
    assert per_vm <= EXAMINES_CEILING, per_vm


def test_min_energy_prices_once(monkeypatch):
    """min-energy prices each decision once: its walk prices the
    winner, the commit books that price. Over ``allocate`` on the sparse
    5000-VM stream, 3000 servers: 0 ``ServerState.incremental_cost``
    calls, 0 ``run_energy`` calls (the walk reads a type's ``W_ij`` off
    the spec and the VM's ``cpu_time``) and no ``idle_delta`` call
    outside a walk; and a daemon's ``place_batch`` on 300 servers makes
    0 ``incremental_cost`` calls from its commits. Counts, not a
    stopwatch: it fails if a commit goes back to pricing its VM again
    (while commits priced: 5000 ``incremental_cost``, 25 623
    ``run_energy`` and 5000 ``idle_delta`` calls outside a walk, and 200
    daemon commit prices)."""
    walking = committing = False
    calls = {"incremental_cost": 0, "run_energy": 0, "idle_delta": 0,
             "idle_delta_outside_walks": 0, "daemon_commit_prices": 0}
    incremental_cost, idle_delta = (ServerState.incremental_cost,
                                    ServerState.idle_delta)
    run_energy = power.run_energy

    def counted_cost(state, vm):
        calls["incremental_cost"] += 1
        calls["daemon_commit_prices"] += committing
        return incremental_cost(state, vm)

    def counted_delta(state, interval):
        calls["idle_delta"] += 1
        calls["idle_delta_outside_walks"] += not walking
        return idle_delta(state, interval)

    def counted_run(spec, vm):
        calls["run_energy"] += 1
        return run_energy(spec, vm)

    allocator = make_allocator("min-energy", seed=0)
    select = allocator.select

    def walk(vm, states):
        nonlocal walking
        walking = True
        try:
            return select(vm, states)
        finally:
            walking = False

    allocator.select = walk
    with monkeypatch.context() as patch:
        patch.setattr(ServerState, "incremental_cost", counted_cost)
        patch.setattr(ServerState, "idle_delta", counted_delta)
        # every module of the package that imported the function by name
        for name, module in list(sys.modules.items()):
            if name.startswith("repro.") and \
                    getattr(module, "run_energy", None) is run_energy:
                patch.setattr(module, "run_energy", counted_run)
        allocator.allocate(VMS_SPARSE_5K, CLUSTER_3K)
        offline = dict(calls)
        commit = ClusterStateStore.commit

        def counted_commit(store, *args):
            nonlocal committing
            committing = True
            try:
                return commit(store, *args)
            finally:
                committing = False

        patch.setattr(ClusterStateStore, "commit", counted_commit)
        daemon = AllocationDaemon(
            ClusterStateStore(Cluster.paper_all_types(300)))
        response = daemon.handle(place_batch_request(VMS_SPARSE_5K[:200]))
    assert response["ok"] and response["placed"] == 200, response
    record_json("kernel", {
        "benchmark": "min-energy, 5000 sparse VMs / 3000 servers, and a "
                     "200-VM place_batch on 300 servers: what pricing "
                     "the commits ask (counts)",
        "incremental_cost_calls": offline["incremental_cost"],
        "run_energy_calls": offline["run_energy"],
        "idle_delta_per_vm": round(
            offline["idle_delta"] / len(VMS_SPARSE_5K), 3),
        "idle_delta_outside_walks": offline["idle_delta_outside_walks"],
        "daemon_commit_prices": calls["daemon_commit_prices"],
    }, section="min_energy_prices_once")
    assert offline["incremental_cost"] == 0
    assert offline["run_energy"] == 0
    assert offline["idle_delta_outside_walks"] == 0
    assert calls["daemon_commit_prices"] == 0


#: The model's derived values: stored at construction, never computed
#: by a call. ``length`` is a ``TimeInterval``'s, the two power terms a
#: ``ServerSpec``'s, ``pieces`` a ``PhasedVM``'s, the rest a ``VM``'s.
STORED_VALUES = frozenset({
    "start", "end", "duration", "cpu", "memory", "cpu_radius",
    "mem_radius", "cpu_time", "pieces", "length", "transition_cost",
    "power_per_cpu_unit"})
MODEL_FILES = tuple(f"repro{os.sep}model{os.sep}{name}.py"
                    for name in ("vm", "phases", "intervals", "server"))


def test_model_values_are_stored():
    """One zoo pass — the six ``offline-zoo-1k`` allocator configs over
    1000 VMs on 300 servers, each plan priced by ``energy_report`` —
    calls no function of ``repro.model``'s value types named as a
    stored value, and no ``TimeInterval.__lt__``: the readers read
    slots, and interval sorts go by ``(start, end)``. Counts, under
    ``sys.setprofile``: while the values were properties, seed 0 made
    286 632 such calls (47.8 per decision) and 14 018 ``__lt__`` calls
    (2.34 per decision)."""
    vms = generate_vms(1000, mean_interarrival=1.0, seed=0)
    streams = {"plain": vms, "radii": PhasedWorkload(
        mean_interarrival=1.0, uncertainty=0.3).generate(1000, rng=0)}
    members = [("min-energy", {}, "plain"),
               ("min-energy", {"engine": "indexed:kernel=off"}, "plain"),
               ("min-energy", {"engine": "indexed:gamma=2"}, "radii"),
               ("ffps", {"seed": 0}, "plain"),
               ("first-fit", {}, "plain"),
               ("best-fit", {}, "plain")]
    less_than = TimeInterval.__lt__.__code__
    calls = {"stored_value_calls": 0, "interval_lt_calls": 0}

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code is less_than:
                calls["interval_lt_calls"] += 1
            elif code.co_name in STORED_VALUES and \
                    code.co_filename.endswith(MODEL_FILES):
                calls["stored_value_calls"] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for algo, params, stream in members:
            plan = make_allocator(algo, **params).allocate(
                streams[stream], CLUSTER_300)
            energy_report(plan)
    finally:
        sys.setprofile(previous)
    assert len(plan) == len(vms)
    decisions = len(members) * len(vms)
    record_json("kernel", {
        "benchmark": "the six offline-zoo-1k configs, 1000 VMs / 300 "
                     "servers, plus energy_report: calls of the model's "
                     "derived values and of TimeInterval.__lt__ (counts)",
        "decisions": decisions,
        **calls,
        "while_properties_per_decision": {"stored_value_calls": 47.772,
                                "interval_lt_calls": 2.336},
    }, section="model_values_stored")
    assert calls == {"stored_value_calls": 0, "interval_lt_calls": 0}


#: Where ``probe_fleet`` runs: best-fit probes each type's warm servers
#: (a clone class scores as its type), so the kernel must win at fleet
#: scale where the warm rows are many — dense (~1200 concurrent VMs,
#: ~290 rows a call) — and is not reached where they are few — sparse
#: (~5 concurrent; one long history beside thousands of short ones).
PROBE_FLEET_3K = {
    "sparse": generate_vms(2000, mean_interarrival=1.0, seed=0),
    "dense": generate_vms(2000, mean_interarrival=0.05, mean_duration=60,
                          seed=0),
}
#: ... and at paper scale the kernel-on engine may cost the walks that
#: never probe a batch (first-fit, ffps) at most this much.
VMS_PAPER = generate_vms(1000, mean_interarrival=1.0, seed=0)
PROBE_FLOOR = 2.0
PAPER_SCALE_CEILING = 1.25
#: The sparse point, as counts (kernel on ~ off there): measured 0
#: ``probe_fleet`` calls and 3.758 scalar ``ServerState.probe`` calls per
#: VM, the warm servers only (7.847 while each clone class's first
#: member was probed too; the scan that probed every candidate made one
#: 3000-row call per VM); the gates are 1.25x those.
SPARSE_FLEET_CALLS = 0
SPARSE_PROBES_PER_VM = 3.758


def _score_probe_counts(vms, cluster, monkeypatch) -> tuple[int, int]:
    """One untimed best-fit ``kernel=on`` run: (scalar
    ``ServerState.probe`` calls, ``probe_fleet`` calls)."""
    scalar = 0
    probe = ServerState.probe

    def counted(state, vm):
        nonlocal scalar
        scalar += 1
        return probe(state, vm)

    allocator = make_allocator("best-fit", seed=0, engine="indexed:kernel=on")
    with monkeypatch.context() as patch:
        patch.setattr(ServerState, "probe", counted)
        allocator.allocate(vms, cluster)
    return scalar, allocator._index.kernel.probe_calls


def test_probe_fleet_speedup(monkeypatch):
    """``FleetKernel.probe_fleet`` vs the scalar probe loop, identical
    placements: best-fit ``kernel=on`` >= 2x ``kernel=off`` at 2000 dense
    VMs / 3000 servers; on the sparse stream at that scale it makes
    <= 1.25x the measured ``probe_fleet`` calls and scalar probes per VM;
    first-fit / ffps / best-fit ``kernel=on`` <= 1.25x ``kernel=off`` at
    1000 VMs / 300 servers."""
    lines, summary = [], {}
    for label, vms in PROBE_FLEET_3K.items():
        on_s, on_placed = _best_run(
            "best-fit", "indexed:kernel=on", vms, CLUSTER_3K, 2)
        off_s, off_placed = _best_run(
            "best-fit", "indexed:kernel=off", vms, CLUSTER_3K, 1)
        assert on_placed == off_placed
        row = {"kernel_on_ms": round(on_s * 1000, 1),
               "kernel_off_ms": round(off_s * 1000, 1),
               "speedup": round(off_s / on_s, 2)}
        if label == "dense":
            row["floor"] = PROBE_FLOOR
            gate = f"(floor {PROBE_FLOOR:.2f}x)"
        else:
            scalar, calls = _score_probe_counts(vms, CLUSTER_3K, monkeypatch)
            row.update(
                probe_fleet_calls=calls,
                probe_fleet_calls_ceiling=int(1.25 * SPARSE_FLEET_CALLS),
                scalar_probes_per_vm=round(scalar / len(vms), 3),
                scalar_probes_per_vm_ceiling=round(
                    1.25 * SPARSE_PROBES_PER_VM, 2))
            gate = (f"(probe_fleet calls {calls}, scalar probes / VM "
                    f"{scalar / len(vms):.3f}; ceilings "
                    f"{row['probe_fleet_calls_ceiling']}, "
                    f"{row['scalar_probes_per_vm_ceiling']:.2f})")
        summary[f"best-fit-3k-{label}"] = row
        lines.append(f"best-fit 2000 VMs / 3000 servers {label:6s}: "
                     f"on {on_s * 1000:8.1f} ms  off {off_s * 1000:8.1f} ms"
                     f"  {off_s / on_s:6.2f}x {gate}")
    for algo in ("first-fit", "ffps", "best-fit"):
        # ~15 ms runs on a box whose cores change speed: take turns, so
        # both sides see the same phases, and keep each side's best.
        on_s = off_s = float("inf")
        for _ in range(9):
            seconds, on_placed = _best_run(
                algo, "indexed:kernel=on", VMS_PAPER, CLUSTER_300, 1)
            on_s = min(on_s, seconds)
            seconds, off_placed = _best_run(
                algo, "indexed:kernel=off", VMS_PAPER, CLUSTER_300, 1)
            off_s = min(off_s, seconds)
        assert on_placed == off_placed
        summary[f"{algo}-1k"] = {
            "kernel_on_ms": round(on_s * 1000, 1),
            "kernel_off_ms": round(off_s * 1000, 1),
            "on_over_off": round(on_s / off_s, 2),
            "ceiling": PAPER_SCALE_CEILING}
        lines.append(f"{algo:9s} 1000 VMs / 300 servers        : "
                     f"on {on_s * 1000:8.1f} ms  off {off_s * 1000:8.1f} ms"
                     f"  on/off {on_s / off_s:5.2f} "
                     f"(ceiling {PAPER_SCALE_CEILING:.2f})")
    record_result("kernel_speedup", "\n".join(lines))
    record_json("kernel", summary, section="probe_fleet")
    for name, row in summary.items():
        if "floor" in row:
            assert row["speedup"] >= PROBE_FLOOR, (name, row)
        elif "scalar_probes_per_vm" in row:
            assert row["probe_fleet_calls"] \
                <= row["probe_fleet_calls_ceiling"], (name, row)
            assert row["scalar_probes_per_vm"] \
                <= row["scalar_probes_per_vm_ceiling"], (name, row)
        else:
            assert row["on_over_off"] <= PAPER_SCALE_CEILING, (name, row)


def _score_scan_counts(algo, vms, cluster, monkeypatch) -> dict:
    """One untimed ``algo`` run: its ``ServerState.probe`` calls, those
    on a pristine or dormant server, and the ``FeasibilityBatch``
    objects built."""
    from repro.placement.kernels import FeasibilityBatch

    counts = {"probes": 0, "idle_probes": 0, "batches": 0}
    probe, build = ServerState.probe, FeasibilityBatch.__init__

    def counted_probe(state, vm):
        counts["probes"] += 1
        counts["idle_probes"] += _idle(state, vm.start)
        return probe(state, vm)

    def counted_build(batch, *args, **kwargs):
        counts["batches"] += 1
        build(batch, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(ServerState, "probe", counted_probe)
        patch.setattr(FeasibilityBatch, "__init__", counted_build)
        make_allocator(algo, seed=0).allocate(vms, cluster)
    return counts


def test_score_scan_asks_no_idle_server(monkeypatch):
    """best-fit and worst-fit on the sparse 2000-VM stream, 3000
    servers: no ``ServerState.probe`` call on a pristine server or one
    dormant for the VM — a clone class scores as its type — and no
    ``FeasibilityBatch`` built — a scan of fewer than
    ``_FLEET_PROBE_FROM`` warm rows scores them one at a time. Counts,
    not a stopwatch: it fails if the scan goes back to probing a clone
    class's representative, or to numpy columns for a few rows."""
    vms = PROBE_FLEET_3K["sparse"]
    summary = {}
    for algo in ("best-fit", "worst-fit"):
        counts = _score_scan_counts(algo, vms, CLUSTER_3K, monkeypatch)
        summary[algo] = {
            "idle_server_probes": counts["idle_probes"],
            "batches_built": counts["batches"],
            "scalar_probes_per_vm": round(counts["probes"] / len(vms), 3)}
    record_json("kernel", {
        "benchmark": "best-fit and worst-fit, 2000 sparse VMs / 3000 "
                     "servers: what the score scans ask (counts)",
        **summary}, section="score_scan_idle_asks")
    for algo, row in summary.items():
        assert row["idle_server_probes"] == 0, (algo, row)
        assert row["batches_built"] == 0, (algo, row)


#: The dense point: ~1200 VMs alive at once, so the cheap types' busy
#: queues are full servers and min-energy's walk is refused over and
#: over — where it finishes with one batch probe of its frontier.
VMS_DENSE_5K = generate_vms(5000, mean_interarrival=0.05, mean_duration=60,
                            seed=0)
#: Measured 21.1 scalar probes and 0.86 ``probe_fleet`` calls per VM
#: (225.9 and 0 with ``kernel=off``: the same walk, never prefetching),
#: 1.75x ``kernel=off``.
DENSE_SCALAR_PROBES_PER_VM = 40
DENSE_FRONTIER_FLOOR = 1.3


def test_min_energy_dense_frontier(monkeypatch):
    """min-energy at 5000 VMs / 3000 servers, dense — one walk, batched
    (``kernel=on``) vs unbatched (``off``): identical placements; at
    most one kernel call (``admits_fleet``; the JSON key keeps its
    ``probe_fleet_calls_per_vm`` name) and 40 scalar probes per VM (counts —
    they fail without a stopwatch if the walk goes back to one probe
    per full server); and batched >= 1.3x unbatched."""
    on_s = off_s = float("inf")
    for _ in range(2):  # take turns: both sides see the same box phases
        seconds, on_placed = _best_run(
            "min-energy", "indexed:kernel=on", VMS_DENSE_5K, CLUSTER_3K, 1)
        on_s = min(on_s, seconds)
        seconds, off_placed = _best_run(
            "min-energy", "indexed:kernel=off", VMS_DENSE_5K, CLUSTER_3K, 1)
        off_s = min(off_s, seconds)
    assert on_placed == off_placed
    scalar, calls, rows = _probe_counts(
        "min-energy", VMS_DENSE_5K, CLUSTER_3K, monkeypatch)
    n = len(VMS_DENSE_5K)
    speedup = off_s / on_s
    record_json("kernel", {
        "benchmark": "min-energy, 5000 dense VMs / 3000 servers "
                     "(best of 2, alternating)",
        "kernel_on_ms": round(on_s * 1000, 1),
        "kernel_off_ms": round(off_s * 1000, 1),
        "speedup": round(speedup, 2), "floor": DENSE_FRONTIER_FLOOR,
        "scalar_probes_per_vm": round(scalar / n, 2),
        "scalar_probes_per_vm_ceiling": DENSE_SCALAR_PROBES_PER_VM,
        "probe_fleet_calls_per_vm": round(calls / n, 3),
        "rows_probed_per_vm": round(rows / n, 1),
    }, section="min_energy_frontier")
    assert calls <= n
    assert scalar <= DENSE_SCALAR_PROBES_PER_VM * n
    assert speedup >= DENSE_FRONTIER_FLOOR


def test_kernel_equivalence_at_scale_10k():
    """Bit-identical Eq.-17 energy, kernel on vs off, at the 10k point."""
    totals = []
    for engine in ("indexed:kernel=on", "indexed:kernel=off"):
        allocator = make_allocator("min-energy", seed=0, engine=engine)
        totals.append(
            allocation_cost(allocator.allocate(VMS_10K, CLUSTER_3K)).total)
    assert totals[0] == totals[1]


def test_engine_equivalence_at_scale():
    """Bit-identical Eq.-17 energy between engines at the 1k point."""
    totals = []
    for engine in ("indexed", "dense"):
        allocator = make_allocator("min-energy", seed=0, engine=engine)
        totals.append(
            allocation_cost(allocator.allocate(VMS_1K, CLUSTER_300)).total)
    assert totals[0] == totals[1]


def test_energy_replay_throughput(benchmark):
    allocation = make_allocator("min-energy").allocate(VMS, CLUSTER)
    engine = SimulationEngine(CLUSTER)
    result = benchmark(lambda: engine.replay(allocation))
    assert result.total_energy > 0


def test_ilp_build_throughput(benchmark):
    vms = generate_vms(20, mean_interarrival=2.0, seed=0)
    cluster = Cluster.paper_all_types(8)
    problem = benchmark(lambda: build_problem(vms, cluster))
    assert problem.n_variables > 0


def test_workload_generation_throughput(benchmark):
    vms = benchmark(lambda: generate_vms(5000, mean_interarrival=1.0,
                                         seed=1))
    assert len(vms) == 5000
