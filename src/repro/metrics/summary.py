"""Multi-seed aggregation: means, spreads and confidence intervals.

Every point in the paper's figures is "averaged over 5 random runs"; the
experiment harness aggregates per-seed measurements through
:func:`aggregate`, which also carries a Student-t confidence interval so
EXPERIMENTS.md can report uncertainty the paper omitted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.exceptions import ValidationError

__all__ = ["Aggregate", "aggregate"]


@dataclass(frozen=True)
class Aggregate:
    """Summary statistics of repeated measurements of one quantity."""

    mean: float
    std: float
    sem: float
    ci_low: float
    ci_high: float
    n: int

    @property
    def ci_halfwidth(self) -> float:
        return (self.ci_high - self.ci_low) / 2

    def __str__(self) -> str:
        return f"{self.mean:.4g} ± {self.ci_halfwidth:.2g} (n={self.n})"


def aggregate(values: Sequence[float], confidence: float = 0.95) -> Aggregate:
    """Mean, sample std, SEM and a Student-t confidence interval.

    A single observation yields a degenerate interval at the point itself.
    """
    if not 0 < confidence < 1:
        raise ValidationError(
            f"confidence must be in (0, 1), got {confidence}")
    data = np.asarray(list(values), dtype=float)
    if data.size == 0:
        raise ValidationError("cannot aggregate an empty sequence")
    mean = float(data.mean())
    if data.size == 1:
        return Aggregate(mean=mean, std=0.0, sem=0.0, ci_low=mean,
                         ci_high=mean, n=1)
    std = float(data.std(ddof=1))
    sem = std / math.sqrt(data.size)
    from scipy import stats  # on the call: importing this module stays cheap

    t_crit = float(stats.t.ppf((1 + confidence) / 2, df=data.size - 1))
    half = t_crit * sem
    return Aggregate(mean=mean, std=std, sem=sem, ci_low=mean - half,
                     ci_high=mean + half, n=int(data.size))
