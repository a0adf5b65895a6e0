"""Statistical significance of algorithm comparisons.

Figures that average a handful of seeds can mislead; these helpers put a
p-value behind "X beats Y". Comparisons are *paired* — both algorithms
run on identical workloads per seed — so the paired t-test and the
paired bootstrap are the right tools.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.exceptions import ValidationError

__all__ = ["PairedComparison", "paired_t_test", "bootstrap_mean_diff"]


@dataclass(frozen=True)
class PairedComparison:
    """Outcome of a paired significance test on per-seed costs."""

    mean_diff: float
    statistic: float
    p_value: float
    n: int

    @property
    def significant(self) -> bool:
        """Two-sided significance at the conventional 5 % level."""
        return self.p_value < 0.05


def _validate_pairs(a: Sequence[float],
                    b: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(list(a), dtype=float)
    b = np.asarray(list(b), dtype=float)
    if a.size != b.size:
        raise ValidationError(
            f"paired samples differ in length: {a.size} vs {b.size}")
    if a.size < 2:
        raise ValidationError("need at least two pairs")
    return a, b


def paired_t_test(a: Sequence[float],
                  b: Sequence[float]) -> PairedComparison:
    """Two-sided paired t-test on per-seed measurements.

    ``mean_diff`` is ``mean(a - b)``: negative means ``a`` is cheaper.
    Identical samples yield ``p = 1`` (no evidence of a difference).
    """
    a, b = _validate_pairs(a, b)
    diffs = a - b
    if np.ptp(diffs) < 1e-12 * max(1.0, float(np.abs(diffs).max())):
        # Constant difference: zero means no evidence; any nonzero
        # constant is a perfectly consistent difference (p -> 0).
        if abs(diffs[0]) < 1e-15:
            return PairedComparison(mean_diff=0.0, statistic=0.0,
                                    p_value=1.0, n=int(a.size))
        return PairedComparison(mean_diff=float(diffs.mean()),
                                statistic=float("inf"), p_value=0.0,
                                n=int(a.size))
    from scipy import stats  # on the call: importing this module stays cheap

    result = stats.ttest_rel(a, b)
    return PairedComparison(
        mean_diff=float(diffs.mean()),
        statistic=float(result.statistic),
        p_value=float(result.pvalue),
        n=int(a.size),
    )


def bootstrap_mean_diff(a: Sequence[float], b: Sequence[float], *,
                        resamples: int = 10_000,
                        confidence: float = 0.95,
                        seed: int | None = None
                        ) -> tuple[float, float, float]:
    """Bootstrap CI for the paired mean difference ``mean(a - b)``.

    Returns ``(mean_diff, ci_low, ci_high)``. Distribution-free, so it
    complements the t-test when seeds are few and skewed.
    """
    if not 0 < confidence < 1:
        raise ValidationError(
            f"confidence must be in (0, 1), got {confidence}")
    if resamples < 100:
        raise ValidationError(
            f"resamples must be >= 100, got {resamples}")
    a, b = _validate_pairs(a, b)
    diffs = a - b
    rng = np.random.default_rng(seed)
    indices = rng.integers(diffs.size, size=(resamples, diffs.size))
    means = diffs[indices].mean(axis=1)
    alpha = (1 - confidence) / 2
    return (float(diffs.mean()),
            float(np.quantile(means, alpha)),
            float(np.quantile(means, 1 - alpha)))
