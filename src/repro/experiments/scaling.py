"""Empirical complexity: how allocation time grows with problem size.

Read literally, the heuristic evaluates every feasible server per VM, so
its work would grow like ``m * n`` (with ``n = m/2`` in the paper's
fleets, ~``m^2``); the candidate index's walk asks a handful per VM
instead. This harness measures wall time across instance sizes and fits
the empirical exponent with a log-log linear fit — the scalability claim
of the paper's Fig. 2 ("our algorithm is scalable") made quantitative
for the implementation itself.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Sequence

from repro.allocators.registry import make_allocator
from repro.exceptions import ValidationError
from repro.metrics.fitting import FitResult, linear_fit
from repro.model.cluster import Cluster
from repro.workload.generator import generate_vms

__all__ = ["ScalingPoint", "ScalingStudy", "measure_scaling"]


@dataclass(frozen=True)
class ScalingPoint:
    """One instance size with its measured wall time."""

    n_vms: int
    n_servers: int
    seconds: float


@dataclass(frozen=True)
class ScalingStudy:
    """Measured points plus the fitted log-log exponent."""

    algorithm: str
    points: tuple[ScalingPoint, ...]
    loglog_fit: FitResult

    @property
    def exponent(self) -> float:
        """Empirical growth exponent: time ~ m^exponent."""
        return self.loglog_fit.params[1]

    def format(self) -> str:
        rows = [f"{p.n_vms:6d} VMs / {p.n_servers:5d} servers: "
                f"{p.seconds * 1000:9.1f} ms" for p in self.points]
        rows.append(f"empirical exponent: {self.exponent:.2f} "
                    f"(adjR2 {self.loglog_fit.adj_r_squared:.3f})")
        return "\n".join(rows)


def measure_scaling(counts: Sequence[int],
                    algorithm: str = "min-energy",
                    mean_interarrival: float = 4.0,
                    repeats: int = 3,
                    seed: int = 0) -> ScalingStudy:
    """Time ``algorithm`` across instance sizes and fit the exponent.

    Each size is measured ``repeats`` times (minimum taken, the standard
    noise-robust estimator for wall-time benchmarking).
    """
    if len(counts) < 2:
        raise ValidationError("need at least two sizes to fit a slope")
    if repeats < 1:
        raise ValidationError(f"repeats must be >= 1, got {repeats}")
    points = []
    for count in counts:
        vms = generate_vms(count, mean_interarrival=mean_interarrival,
                           seed=seed)
        cluster = Cluster.paper_all_types(max(5, count // 2))
        best = float("inf")
        for _ in range(repeats):
            allocator = make_allocator(algorithm, seed=seed)
            start = time.perf_counter()
            allocator.allocate(vms, cluster)
            best = min(best, time.perf_counter() - start)
        points.append(ScalingPoint(n_vms=count, n_servers=len(cluster),
                                   seconds=best))
    fit = linear_fit([math.log(p.n_vms) for p in points],
                     [math.log(max(p.seconds, 1e-9)) for p in points])
    return ScalingStudy(algorithm=algorithm, points=tuple(points),
                        loglog_fit=fit)
