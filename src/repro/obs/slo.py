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

Observations live in one log pruned to the longest window and a
capacity, so memory stays constant under sustained load; each window
is a moving left edge into it, so a report costs O(windows).
"""

from __future__ import annotations

import threading
import time
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


class SLOTracker:
    """Observes request outcomes; reports multi-window burn rates.

    Thread-safe. ``clock`` is injectable (monotonic seconds) so tests
    can step time deterministically.

    Each observation is logged as ``(ts, slow, errors)`` — its time and
    the lifetime slow / error totals *before* it — so a window's counts
    are the totals now minus those at its left edge. The edges only move
    forwards, so an observation costs one append and a report O(windows),
    amortised, however many requests the windows hold.
    """

    def __init__(self, config: SLOConfig | None = None, *,
                 clock: Callable[[], float] = time.monotonic,
                 capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity <= 0:
            raise ValidationError(
                f"capacity must be positive, got {capacity}")
        self.config = config if config is not None else SLOConfig()
        self._clock = clock
        self._capacity = capacity
        self._lock = threading.Lock()
        self._log: list[tuple[float, int, int]] = []
        #: Log index of the oldest retained observation (within the
        #: longest window and the capacity), and of each window's oldest.
        self._head = 0
        self._edges = [0] * len(self.config.windows)
        self.requests = 0
        self.errors = 0
        self.slow = 0

    @property
    def _observations(self) -> list[tuple[float, int, int]]:
        """The retained observations, oldest first."""
        return self._log[self._head:]

    def observe(self, latency_seconds: float, *, ok: bool = True) -> None:
        """Record one finished request."""
        fast = latency_seconds <= self.config.latency_objective
        with self._lock:
            now = self._clock()
            self._log.append((now, self.slow, self.errors))
            self.requests += 1
            if not ok:
                self.errors += 1
            if not fast:
                self.slow += 1
            self._retain(now)

    def _retain(self, now: float) -> None:
        """Move the head past what the capacity evicts and what the
        longest window has left; drop the dead prefix once it outgrows
        the capacity (amortised O(1))."""
        log, head = self._log, self._head
        n, horizon = len(log), now - self.config.windows[-1]
        if n - head > self._capacity:
            head = n - self._capacity
        while head < n and log[head][0] < horizon:
            head += 1
        if head > self._capacity:
            del log[:head]
            self._edges = [max(edge - head, 0) for edge in self._edges]
            head = 0
        self._head = head

    def report(self) -> dict[str, object]:
        """The full objective report (the ``repro slo`` payload).

        ``healthy`` is True when no window burns above 1.0 — the error
        budget is being spent no faster than the objectives allow.
        """
        latency_budget = 1.0 - self.config.latency_target
        availability_budget = 1.0 - self.config.availability_target
        counts = []
        with self._lock:
            now = self._clock()
            self._retain(now)
            log, end = self._log, len(self._log)
            totals = {"requests": self.requests, "errors": self.errors,
                      "slow": self.slow}
            for k, window in enumerate(self.config.windows):
                edge = max(self._edges[k], self._head)
                while edge < end and now - log[edge][0] > window:
                    edge += 1
                self._edges[k] = edge
                _, slow, errors = log[edge] if edge < end \
                    else (now, self.slow, self.errors)
                counts.append((window, end - edge, self.slow - slow,
                               self.errors - errors))
        windows, healthy = [], True
        for seconds, requests, slow, errors in counts:
            latency_burn = availability_burn = 0.0
            if requests:
                latency_burn = (slow / requests) / latency_budget
                availability_burn = (errors / requests) / availability_budget
            healthy &= latency_burn <= 1.0 and availability_burn <= 1.0
            windows.append({
                "window_seconds": seconds, "requests": requests,
                "slow": slow, "errors": errors,
                "latency_burn_rate": round(latency_burn, 6),
                "availability_burn_rate": round(availability_burn, 6)})
        return {"config": self.config.to_record(), "totals": totals,
                "windows": windows, "healthy": healthy}
