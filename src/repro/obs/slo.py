"""Service-level objectives: latency/availability targets and burn rates.

An :class:`SLOTracker` observes every request outcome (latency, ok/error)
and answers two operator questions:

* **Are we meeting the objectives right now?** Per-window *burn rates*:
  for each trailing window (default 1 min / 5 min / 1 h), the fraction
  of bad events divided by the objective's error budget
  ``1 - target``. Burn 1.0 means the budget is being spent exactly as
  fast as allowed; above 1.0 the objective will be missed if the rate
  holds. Multi-window burn is the standard alerting shape — a short
  window catches a fast burn, a long window a slow leak.
* **What happened overall?** Lifetime totals (requests, errors, slow
  requests) for the ``repro_slo_*`` Prometheus families and the
  ``repro slo`` CLI report.

Two objectives are tracked:

* **latency** — a request is *fast* when it finishes within
  ``latency_objective`` seconds; the target is the fraction of requests
  that must be fast (e.g. 0.99 → "99% of requests under 100 ms").
* **availability** — a request is *good* when it does not error; the
  target is the fraction that must be good (e.g. 0.999).

Observations live in a bounded deque pruned to the longest window, so
memory stays constant under sustained load.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Mapping

from repro.exceptions import ValidationError

__all__ = ["SLOConfig", "SLOTracker"]

#: Default trailing windows (seconds): fast burn / medium / slow leak.
DEFAULT_WINDOWS = (60.0, 300.0, 3600.0)

#: Cap on retained observations; beyond this the oldest are evicted
#: even inside the longest window (protects memory under load spikes).
DEFAULT_CAPACITY = 65536


@dataclass(frozen=True)
class SLOConfig:
    """The objectives a service is held to.

    ``latency_objective`` is the per-request latency threshold in
    seconds; ``latency_target`` / ``availability_target`` are the
    required good fractions in (0, 1); ``windows`` are the trailing
    burn-rate windows in seconds, ascending.
    """

    latency_objective: float = 0.1
    latency_target: float = 0.99
    availability_target: float = 0.999
    windows: tuple[float, ...] = DEFAULT_WINDOWS

    def __post_init__(self) -> None:
        if self.latency_objective <= 0:
            raise ValidationError(
                f"latency_objective must be positive, got "
                f"{self.latency_objective}")
        for name in ("latency_target", "availability_target"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ValidationError(
                    f"{name} must be in (0, 1), got {value}")
        if not self.windows:
            raise ValidationError("at least one burn-rate window required")
        object.__setattr__(self, "windows", tuple(
            float(w) for w in self.windows))
        previous = 0.0
        for window in self.windows:
            if window <= previous:
                raise ValidationError(
                    f"windows must be positive and ascending, got "
                    f"{self.windows}")
            previous = window

    def to_record(self) -> dict[str, object]:
        """A JSON-safe record (persisted in snapshot config)."""
        return {"latency_objective": self.latency_objective,
                "latency_target": self.latency_target,
                "availability_target": self.availability_target,
                "windows": list(self.windows)}

    @classmethod
    def from_record(cls, record: Mapping[str, object]) -> "SLOConfig":
        return cls(
            latency_objective=float(record["latency_objective"]),
            latency_target=float(record["latency_target"]),
            availability_target=float(record["availability_target"]),
            windows=tuple(float(w) for w in record["windows"]))


class _Observation:
    __slots__ = ("ts", "fast", "ok")

    def __init__(self, ts: float, fast: bool, ok: bool) -> None:
        self.ts = ts
        self.fast = fast
        self.ok = ok


@dataclass
class _WindowBurn:
    """Burn rates of one trailing window (internal accumulator)."""

    window: float
    requests: int = 0
    slow: int = 0
    errors: int = 0
    latency_burn: float = 0.0
    availability_burn: float = 0.0


class SLOTracker:
    """Observes request outcomes; reports multi-window burn rates.

    Thread-safe. ``clock`` is injectable (monotonic seconds) so tests
    can step time deterministically.
    """

    def __init__(self, config: SLOConfig | None = None, *,
                 clock: Callable[[], float] = time.monotonic,
                 capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity <= 0:
            raise ValidationError(
                f"capacity must be positive, got {capacity}")
        self.config = config if config is not None else SLOConfig()
        self._clock = clock
        self._lock = threading.Lock()
        self._observations: deque[_Observation] = deque(maxlen=capacity)
        self.requests = 0
        self.errors = 0
        self.slow = 0

    def observe(self, latency_seconds: float, *, ok: bool = True) -> None:
        """Record one finished request."""
        fast = latency_seconds <= self.config.latency_objective
        with self._lock:
            self.requests += 1
            if not ok:
                self.errors += 1
            if not fast:
                self.slow += 1
            self._observations.append(
                _Observation(self._clock(), fast, ok))
            self._prune(self._clock())

    def _prune(self, now: float) -> None:
        horizon = now - self.config.windows[-1]
        observations = self._observations
        while observations and observations[0].ts < horizon:
            observations.popleft()

    def _burns(self) -> list[_WindowBurn]:
        now = self._clock()
        latency_budget = 1.0 - self.config.latency_target
        availability_budget = 1.0 - self.config.availability_target
        burns = [_WindowBurn(window=w) for w in self.config.windows]
        with self._lock:
            self._prune(now)
            for obs in self._observations:
                age = now - obs.ts
                for burn in burns:
                    if age <= burn.window:
                        burn.requests += 1
                        if not obs.fast:
                            burn.slow += 1
                        if not obs.ok:
                            burn.errors += 1
        for burn in burns:
            if burn.requests:
                burn.latency_burn = \
                    (burn.slow / burn.requests) / latency_budget
                burn.availability_burn = \
                    (burn.errors / burn.requests) / availability_budget
        return burns

    def report(self) -> dict[str, object]:
        """The full objective report (the ``repro slo`` payload).

        ``healthy`` is True when no window burns above 1.0 — the error
        budget is being spent no faster than the objectives allow.
        """
        burns = self._burns()
        with self._lock:
            totals = {"requests": self.requests, "errors": self.errors,
                      "slow": self.slow}
        windows = [{
            "window_seconds": burn.window,
            "requests": burn.requests,
            "slow": burn.slow,
            "errors": burn.errors,
            "latency_burn_rate": round(burn.latency_burn, 6),
            "availability_burn_rate": round(burn.availability_burn, 6),
        } for burn in burns]
        healthy = all(burn.latency_burn <= 1.0
                      and burn.availability_burn <= 1.0 for burn in burns)
        return {"config": self.config.to_record(), "totals": totals,
                "windows": windows, "healthy": healthy}
