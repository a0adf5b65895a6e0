"""Extension study: value of clairvoyance (offline VM orderings).

The paper's heuristic is online in arrival order. These variants keep its
selection rule but process VMs largest-footprint-first or longest-first —
orders only an offline planner could use. The gap between online and
offline bounds how much the arrival-order restriction costs.
"""

from __future__ import annotations

from conftest import record_result
from repro.allocators import make_allocator
from repro.energy.cost import allocation_cost
from repro.experiments.figures import format_table
from repro.model.cluster import Cluster
from repro.workload.generator import generate_vms

SEEDS = (0, 1, 2, 3, 4)
ALGOS = ("min-energy", "min-energy-offline", "min-energy-longest", "ffps")


def run_study():
    energies = {algo: 0.0 for algo in ALGOS}
    for seed in SEEDS:
        vms = generate_vms(300, mean_interarrival=5.0, seed=seed)
        cluster = Cluster.paper_all_types(150)
        for algo in ALGOS:
            energies[algo] += allocation_cost(
                make_allocator(algo, seed=seed).allocate(vms,
                                                         cluster)).total
    return {algo: total / len(SEEDS) for algo, total in energies.items()}


def test_extension_offline(benchmark):
    means = benchmark.pedantic(run_study, rounds=1, iterations=1)
    online = means["min-energy"]
    rows = [(algo, round(energy, 0),
             round(100 * (online - energy) / online, 2))
            for algo, energy in sorted(means.items(),
                                       key=lambda kv: kv[1])]
    record_result("extension_offline", format_table(
        ("algorithm", "energy", "vs online min-energy %"), rows))

    # every min-energy variant beats FFPS
    for algo in ("min-energy", "min-energy-offline", "min-energy-longest"):
        assert means[algo] < means["ffps"]
    # clairvoyance is worth little: the online heuristic is within a few
    # percent of its offline variants (|gap| < 5 %)
    for algo in ("min-energy-offline", "min-energy-longest"):
        assert abs(means[algo] - online) / online < 0.05
