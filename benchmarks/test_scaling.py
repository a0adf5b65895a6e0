"""Extra study: empirical complexity of the allocators.

The paper's Fig. 2 argues the heuristic is scalable (the reduction is
stable as m grows) but never reports *runtime*. This bench measures it:
wall time across instance sizes with a fitted log-log exponent. With
fleets sized at m/2, scanning every feasible server per VM would grow
~m^2; the candidate index's walk asks a handful of servers per VM (one
per clone class, the warm ones its run-cost bound has not dropped)
whatever the fleet size, so the heuristic grows near-linearly, like
FFPS's first-fit scan (measured exponents ~0.9-1.1 for both).
"""

from __future__ import annotations

from conftest import record_result
from repro.experiments.figures import format_table
from repro.experiments.scaling import measure_scaling

COUNTS = (50, 100, 200, 400, 800)


def run_study():
    return {
        algo: measure_scaling(COUNTS, algorithm=algo, repeats=2)
        for algo in ("min-energy", "ffps")
    }


def test_scaling(benchmark):
    studies = benchmark.pedantic(run_study, rounds=1, iterations=1)
    rows = []
    for algo, study in studies.items():
        for point in study.points:
            rows.append((algo, point.n_vms,
                         round(point.seconds * 1000, 1)))
        rows.append((algo, "exponent", round(study.exponent, 2)))
    record_result("scaling", format_table(
        ("algorithm", "VMs", "ms (or exponent)"), rows))

    heuristic = studies["min-energy"]
    ffps = studies["ffps"]
    # the walk's cost per VM does not grow with the fleet: far from the
    # ~m^2 of scanning it
    assert heuristic.exponent < 1.5
    # FFPS stays cheaper than the heuristic at the largest size
    assert ffps.points[-1].seconds < heuristic.points[-1].seconds
    # and the paper-scale instance (m=1000-ish) stays interactive
    assert heuristic.points[-1].seconds < 10.0
