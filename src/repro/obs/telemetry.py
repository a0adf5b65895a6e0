"""The fleet telemetry ring: bounded per-tick time series of live state.

The daemon records one :class:`TelemetrySample` per cluster tick —
servers by power state, instantaneous Eq.-1 fleet power, cumulative
Eq.-17 energy, the :class:`~repro.consolidation.fragmentation`
score, inflight/pending counts — into a bounded :class:`TelemetryRing`
(oldest samples fall off; memory is constant however long the daemon
runs). The ring answers the protocol-v2 ``telemetry`` op (what
``repro top`` polls), serializes to JSON records, and exports as
Chrome-trace counter series on the simulated-time track so a whole
day of fleet history opens in Perfetto next to the request spans.

Within a tick the *latest* state wins: recording a sample whose tick
equals the newest recorded tick replaces it instead of appending, so
the series holds at most one sample per tick and reads as a clean
step function.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, fields
from typing import Mapping, Sequence

from repro.exceptions import ValidationError
from repro.obs.tracer import COUNTER, TraceEvent

__all__ = ["DEFAULT_CAPACITY", "TelemetrySample", "TelemetryRing"]

#: Ticks a ring holds unless told otherwise (``repro serve
#: --telemetry-capacity``'s default).
DEFAULT_CAPACITY = 1024

#: Nanoseconds per simulated tick on the Chrome-trace axis (one tick
#: renders as 1 µs, matching :mod:`repro.simulation.telemetry`).
_NS_PER_TICK = 1000


@dataclass(frozen=True)
class TelemetrySample:
    """One tick's fleet state, as sampled by the daemon."""

    tick: int
    servers_active: int
    servers_asleep: int
    servers_failed: int
    running_vms: int
    fleet_power: float
    energy_accumulated: float
    fragmentation: float
    inflight: int
    pending: int
    placed: int
    rejected: int

    def to_record(self) -> dict[str, object]:
        """A JSON-safe record (the ``telemetry`` op's sample shape)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_record(cls, record: Mapping[str, object]) -> "TelemetrySample":
        # JSON does not keep int and float apart: cast each value back
        # to its field's declared type (the annotation, or its text
        # under ``from __future__ import annotations``).
        return cls(**{
            f.name: (float if f.type in (float, "float") else int)(
                record[f.name]) for f in fields(cls)})


class TelemetryRing:
    """A bounded, thread-safe ring of per-tick telemetry samples.

    ``capacity`` bounds memory: the ring holds the newest ``capacity``
    ticks. Capacity 0 disables the ring entirely (every record is a
    no-op) — what ``repro serve --telemetry-capacity 0`` and the
    observability-off benchmark configuration use.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 0:
            raise ValidationError(
                f"telemetry capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self._samples: deque[TelemetrySample] = deque(maxlen=capacity)
        self._lock = threading.Lock()

    @property
    def enabled(self) -> bool:
        return self.capacity > 0

    def record(self, sample: TelemetrySample) -> None:
        """Append ``sample``; a same-tick sample replaces the newest."""
        if self.capacity == 0:
            return
        with self._lock:
            if self._samples:
                newest = self._samples[-1].tick
                if newest > sample.tick:
                    # Out-of-order ticks never happen on the commit
                    # path; drop rather than corrupt the series.
                    return
                if newest == sample.tick:
                    self._samples.pop()
            self._samples.append(sample)

    def last(self, n: int | None = None) -> tuple[TelemetrySample, ...]:
        """The newest ``n`` samples (all of them when ``n`` is None),
        oldest first."""
        if n is not None and n < 0:
            raise ValidationError(f"n must be >= 0, got {n}")
        with self._lock:
            ordered = list(self._samples)
        if n is not None:
            ordered = ordered[len(ordered) - min(n, len(ordered)):]
        return tuple(ordered)

    def latest(self) -> TelemetrySample | None:
        """The newest sample, or ``None`` while the ring is empty."""
        samples = self.last(1)
        return samples[0] if samples else None

    def clear(self) -> None:
        with self._lock:
            self._samples.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._samples)

    def to_records(self, n: int | None = None) -> list[dict[str, object]]:
        """The newest ``n`` samples as JSON-safe records, oldest first."""
        return [sample.to_record() for sample in self.last(n)]

    def to_counter_events(self) -> list[TraceEvent]:
        """The ring as Chrome-trace counter series on simulated time.

        Three tracks — ``fleet.servers`` (active/asleep/failed),
        ``fleet.power`` (instantaneous watts), ``fleet.load``
        (running VMs, inflight) — one sample per recorded tick, ready
        to append to a tracer's events before export.
        """
        events: list[TraceEvent] = []
        for sample in self.last():
            ts_ns = sample.tick * _NS_PER_TICK
            events.append(TraceEvent(
                kind=COUNTER, name="fleet.servers", ts_ns=ts_ns,
                clock="sim",
                args={"active": sample.servers_active,
                      "asleep": sample.servers_asleep,
                      "failed": sample.servers_failed}))
            events.append(TraceEvent(
                kind=COUNTER, name="fleet.power", ts_ns=ts_ns,
                clock="sim", args={"watts": sample.fleet_power}))
            events.append(TraceEvent(
                kind=COUNTER, name="fleet.load", ts_ns=ts_ns,
                clock="sim",
                args={"running_vms": sample.running_vms,
                      "inflight": sample.inflight}))
        return events


def samples_from_records(records: Sequence[Mapping[str, object]]
                         ) -> list[TelemetrySample]:
    """Decode a ``telemetry`` op response's sample array (client side)."""
    return [TelemetrySample.from_record(record) for record in records]
