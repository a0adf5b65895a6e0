"""Least-squares curve fits with adjusted R² (as the paper's figures report).

Every figure in the paper overlays a fitted curve and quotes its adjusted
r-square: linear fits (Figs. 2, 5, 9), logarithmic fits (Figs. 4, 7) and an
exponential fit (Fig. 5, 3-minute transition). These helpers reproduce the
same three families so EXPERIMENTS.md can report fit quality alongside the
raw series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.exceptions import ValidationError

__all__ = ["FitResult", "linear_fit", "logarithmic_fit", "exponential_fit",
           "adjusted_r_squared"]


@dataclass(frozen=True)
class FitResult:
    """A fitted curve with its goodness of fit."""

    kind: str
    params: tuple[float, ...]
    r_squared: float
    adj_r_squared: float
    predict: Callable[[float], float]

    def __str__(self) -> str:
        coeffs = ", ".join(f"{p:.4g}" for p in self.params)
        return (f"{self.kind}({coeffs}) adjR2={self.adj_r_squared:.3f}")


def adjusted_r_squared(y: Sequence[float], predicted: Sequence[float],
                       n_params: int) -> tuple[float, float]:
    """Return ``(r_squared, adjusted_r_squared)`` of a fit.

    Adjusted R² penalises parameter count:
    ``1 - (1 - R²)(n - 1) / (n - p - 1)``. When the denominator degenerates
    (tiny samples) the plain R² is returned for both.
    """
    y = np.asarray(y, dtype=float)
    predicted = np.asarray(predicted, dtype=float)
    if y.size != predicted.size:
        raise ValidationError(
            f"y and predictions differ in length: {y.size} vs "
            f"{predicted.size}")
    ss_res = float(np.sum((y - predicted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    n = y.size
    if n - n_params - 1 <= 0:
        return r2, r2
    adj = 1.0 - (1.0 - r2) * (n - 1) / (n - n_params - 1)
    return r2, adj


def _validate_xy(x: Sequence[float], y: Sequence[float],
                 minimum: int) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size != y.size:
        raise ValidationError(
            f"x and y differ in length: {x.size} vs {y.size}")
    if x.size < minimum:
        raise ValidationError(
            f"need at least {minimum} points, got {x.size}")
    return x, y


def linear_fit(x: Sequence[float], y: Sequence[float]) -> FitResult:
    """Fit ``y = a + b*x`` by ordinary least squares."""
    x, y = _validate_xy(x, y, 2)
    b, a = np.polyfit(x, y, 1)
    predicted = a + b * x
    r2, adj = adjusted_r_squared(y, predicted, 1)
    return FitResult(kind="linear", params=(float(a), float(b)),
                     r_squared=r2, adj_r_squared=adj,
                     predict=lambda t, a=a, b=b: float(a + b * t))


def logarithmic_fit(x: Sequence[float], y: Sequence[float]) -> FitResult:
    """Fit ``y = a + b*ln(x)``; requires strictly positive ``x``."""
    x, y = _validate_xy(x, y, 2)
    if np.any(x <= 0):
        raise ValidationError("logarithmic fit requires positive x values")
    lx = np.log(x)
    b, a = np.polyfit(lx, y, 1)
    predicted = a + b * lx
    r2, adj = adjusted_r_squared(y, predicted, 1)
    return FitResult(kind="logarithmic", params=(float(a), float(b)),
                     r_squared=r2, adj_r_squared=adj,
                     predict=lambda t, a=a, b=b: float(a + b * math.log(t)))


def exponential_fit(x: Sequence[float], y: Sequence[float]) -> FitResult:
    """Fit ``y = a * exp(b*x) + c`` by nonlinear least squares.

    The three-parameter saturating exponential matches the paper's Fig. 5
    (3-minute transition curve). Falls back on sensible initial guesses
    derived from the data; raises :class:`ValidationError` when the
    optimiser cannot converge.
    """
    # scipy.optimize is imported on the call: linear and logarithmic
    # fits, and every caller of the rest of repro.metrics, never pay it.
    from scipy import optimize

    x, y = _validate_xy(x, y, 4)

    def model(t, a, b, c):
        return a * np.exp(b * t) + c

    spread = float(y.max() - y.min()) or 1.0
    x_span = float(x.max() - x.min()) or 1.0
    rates = (0.1, -0.1, 1.0 / x_span, -1.0 / x_span, 3.0 / x_span,
             -3.0 / x_span)
    guesses = [(sign * spread, rate, anchor)
               for rate in rates
               for sign in (1.0, -1.0)
               for anchor in (float(y.min()), float(y.max()),
                              float(y.mean()))]
    best: tuple[float, float, tuple[float, float, float]] | None = None
    last_error: Exception | None = None
    for guess in guesses:
        try:
            params, _ = optimize.curve_fit(model, x, y, p0=guess,
                                           maxfev=20000)
        except (RuntimeError, optimize.OptimizeWarning) as exc:
            last_error = exc
            continue
        predicted = model(x, *params)
        if not np.all(np.isfinite(predicted)):
            continue
        r2, adj = adjusted_r_squared(y, predicted, 3)
        if best is None or r2 > best[0]:
            best = (r2, adj, tuple(float(p) for p in params))
        if r2 > 0.999999:
            break
    if best is None:
        raise ValidationError(
            f"exponential fit failed to converge: {last_error}")
    r2, adj, (a, b, c) = best
    return FitResult(
        kind="exponential", params=(a, b, c),
        r_squared=r2, adj_r_squared=adj,
        predict=lambda t, a=a, b=b, c=c: float(a * math.exp(b * t) + c))
