"""Benchmark: live failure handling in the allocation daemon.

Measures the cost of one ``fail_server`` episode — split every affected
VM, re-place the remainders through min-incremental-energy, rebuild the
victim's planning book, rebuild the live fleet view — at a realistic
load point, and verifies the live path's energy agrees with the offline
``inject_failures`` oracle at that scale. The recorded table tracks how
re-placement latency scales with the number of VMs cut."""

from __future__ import annotations

import time

import pytest

from repro.allocators import MinIncrementalEnergy
from repro.energy import allocation_cost
from repro.model.cluster import Cluster
from repro.service import AllocationDaemon, ClusterStateStore
from repro.service.protocol import fail_server_request, place_request
from repro.simulation import simulate_online
from repro.simulation.failures import ServerFailure, inject_failures
from repro.workload.generator import generate_vms

from conftest import record_result

VMS = generate_vms(400, mean_interarrival=1.0, mean_duration=40.0,
                   seed=2)
N_SERVERS = 200


def _loaded_daemon():
    store = ClusterStateStore(Cluster.paper_all_types(N_SERVERS))
    daemon = AllocationDaemon(store)
    for vm in sorted(VMS, key=lambda v: (v.start, v.end, v.vm_id)):
        response = daemon.handle(place_request(vm))
        assert response["decision"] == "placed", response
    return daemon, store


def _busiest_server(store):
    running = {}
    for vm, sid in store.placements:
        if vm.end >= store.clock + 1:
            running[sid] = running.get(sid, 0) + 1
    return max(running.items(), key=lambda kv: (kv[1], -kv[0]))


def test_fail_server_latency(benchmark):
    """One failure episode on the busiest server, re-placing its VMs."""
    def setup():
        daemon, store = _loaded_daemon()
        victim, _ = _busiest_server(store)
        return (daemon, victim), {}

    def fail(daemon, victim):
        response = daemon.handle(
            fail_server_request(victim, daemon.store.clock + 1))
        assert response["ok"], response
        return response

    response = benchmark.pedantic(fail, setup=setup, rounds=5,
                                  iterations=1)
    assert response["replaced"] + len(response["lost"]) >= 1


def test_live_failures_match_offline_at_scale():
    daemon, store = _loaded_daemon()
    clock = store.clock
    by_load = {}
    for vm, sid in store.placements:
        if vm.end >= clock + 5:
            by_load[sid] = by_load.get(sid, 0) + 1
    victims = sorted(by_load, key=lambda s: (-by_load[s], s))[:5]
    schedule = sorted(
        (ServerFailure(server_id=sid, time=clock + 1 + i)
         for i, sid in enumerate(sorted(victims))),
        key=lambda f: (f.time, f.server_id))

    lines = ["failure episodes on the busiest servers "
             f"({len(VMS)} VMs, {N_SERVERS} servers):",
             f"{'server':>8} {'time':>6} {'cut':>5} {'replaced':>9} "
             f"{'lost':>5} {'ms':>8}"]
    for failure in schedule:
        started = time.perf_counter()
        response = daemon.handle(
            fail_server_request(failure.server_id, failure.time))
        elapsed = (time.perf_counter() - started) * 1e3
        assert response["ok"], response
        lines.append(
            f"{failure.server_id:>8} {failure.time:>6} "
            f"{len(response['replacements']):>5} "
            f"{response['replaced']:>9} {len(response['lost']):>5} "
            f"{elapsed:>8.2f}")
    store.run_to_completion()

    alloc, _ = simulate_online(VMS, Cluster.paper_all_types(N_SERVERS),
                               MinIncrementalEnergy())
    outcome = inject_failures(alloc, schedule)
    assert store.energy_total() == pytest.approx(
        allocation_cost(outcome.allocation).total, rel=1e-12)
    lines.append(f"live == offline energy: {store.energy_total():.1f} "
                 "W·min (rel 1e-12)")
    record_result("failure_recovery", "\n".join(lines))
