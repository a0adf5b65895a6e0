"""Cross-module property-based tests (hypothesis).

These are the system-level invariants: any workload the generator can
produce must yield feasible allocations from every algorithm, consistent
energies across the analytic accounting and the simulator, and cost
orderings that respect optimality.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.allocators import make_allocator
from repro.allocators.registry import allocator_names
from repro.energy.cost import SleepPolicy, allocation_cost, server_cost
from repro.model.catalog import STANDARD_VM_TYPES
from repro.model.cluster import Cluster
from repro.simulation import SimulationEngine
from repro.workload.generator import PoissonWorkload

from conftest import make_vm

SLOW = settings(max_examples=20, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


def workload_strategy():
    return st.tuples(
        st.integers(5, 35),                  # vm count
        st.floats(0.5, 8.0),                 # mean inter-arrival
        st.floats(1.0, 12.0),                # mean duration
        st.integers(0, 10_000),              # seed
    )


@SLOW
@given(workload_strategy(), st.sampled_from(sorted(allocator_names())))
def test_every_allocator_produces_feasible_plans(params, algo):
    # Standard VM types fit every server type, so every draw is feasible
    # even for adversarially bad allocators (worst-fit can otherwise
    # starve the few servers able to host m2.4xlarge VMs).
    count, ia, dur, seed = params
    wl = PoissonWorkload(mean_interarrival=ia, mean_duration=dur,
                         vm_types=STANDARD_VM_TYPES)
    vms = wl.generate(count, rng=seed)
    cluster = Cluster.paper_all_types(max(5, count))
    allocation = make_allocator(algo, seed=seed).allocate(vms, cluster)
    allocation.validate(vms=vms)
    assert len(allocation) == count


@SLOW
@given(workload_strategy(),
       st.sampled_from(["min-energy", "ffps", "best-fit"]))
def test_simulated_energy_equals_analytic(params, algo):
    count, ia, dur, seed = params
    wl = PoissonWorkload(mean_interarrival=ia, mean_duration=dur,
                         vm_types=STANDARD_VM_TYPES)
    vms = wl.generate(count, rng=seed)
    cluster = Cluster.paper_all_types(max(5, count))
    allocation = make_allocator(algo, seed=seed).allocate(vms, cluster)
    sim = SimulationEngine(cluster).replay(allocation)
    assert sim.total_energy == pytest.approx(
        allocation_cost(allocation).total, rel=1e-9)


@SLOW
@given(workload_strategy())
def test_min_energy_never_worse_than_its_own_greedy_bound(params):
    # The heuristic's accumulated incremental costs must equal the final
    # Eq.-17 cost of its plan (internal consistency of the greedy).
    count, ia, dur, seed = params
    wl = PoissonWorkload(mean_interarrival=ia, mean_duration=dur,
                         vm_types=STANDARD_VM_TYPES)
    vms = wl.generate(count, rng=seed)
    cluster = Cluster.paper_all_types(max(5, count))
    allocation = make_allocator("min-energy").allocate(vms, cluster)
    total = allocation_cost(allocation).total
    recomputed = sum(
        server_cost(cluster.server(sid).spec,
                    allocation.vms_on(sid)).total
        for sid in allocation.used_servers())
    assert total == pytest.approx(recomputed, rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 60), st.integers(0, 10)),
                min_size=1, max_size=12))
def test_optimal_sleep_policy_dominates(pairs):
    vms = [make_vm(i, s, s + d, cpu=0.5, memory=0.5)
           for i, (s, d) in enumerate(pairs)]
    spec = Cluster.paper_all_types(1)[0].spec
    optimal = server_cost(spec, vms, policy=SleepPolicy.OPTIMAL).total
    never = server_cost(spec, vms, policy=SleepPolicy.NEVER_SLEEP).total
    always = server_cost(spec, vms, policy=SleepPolicy.ALWAYS_SLEEP).total
    assert optimal <= never + 1e-9
    assert optimal <= always + 1e-9


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 1000), st.integers(4, 10))
def test_ilp_optimum_lower_bounds_every_heuristic(seed, count):
    from repro.ilp import solve_ilp

    wl = PoissonWorkload(mean_interarrival=2.0, mean_duration=4.0,
                         vm_types=STANDARD_VM_TYPES)
    vms = wl.generate(count, rng=seed)
    cluster = Cluster.paper_all_types(4)
    optimal = solve_ilp(vms, cluster).objective
    for algo in ("min-energy", "ffps", "best-fit", "worst-fit"):
        cost = allocation_cost(
            make_allocator(algo, seed=seed).allocate(vms, cluster)).total
        assert optimal <= cost + 1e-6


def _peak_alive(vms) -> int:
    """The most VMs alive at one tick (some VM's start is such a tick)."""
    return max(sum(other.start <= vm.start <= other.end for other in vms)
               for vm in vms)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
# five memory-3 VMs alive at once: more than ten servers' four slots
@example(8076)
def test_energy_components_nonnegative(seed):
    wl = PoissonWorkload(mean_interarrival=2.0, mean_duration=5.0)
    vms = wl.generate(20, rng=seed)
    # Every VM type fits the largest server type alone, and a fleet
    # cycling through the five types has one of those per five servers:
    # one each for the VMs alive at once is always enough.
    cluster = Cluster.paper_all_types(max(10, 5 * _peak_alive(vms)))
    allocation = make_allocator("min-energy").allocate(vms, cluster)
    cost = allocation_cost(allocation)
    assert cost.run >= 0
    assert cost.busy_idle >= 0
    assert cost.gaps >= 0
    assert cost.initial_wake >= 0
