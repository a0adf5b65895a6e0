"""Spans, events and counters: the tracing core of :mod:`repro.obs`.

A :class:`Tracer` records three kinds of :class:`TraceEvent`:

* **spans** — named, nested durations (``with tracer.span("allocate")``)
  stamped with monotonic nanosecond timestamps;
* **instants** — point events with structured attributes;
* **counters** — named numeric series (e.g. fleet power per tick), either
  on the wall clock or on an explicit simulated-time axis.

The process-global tracer defaults to :data:`NULL_TRACER`, whose every
operation is a no-op returning a shared singleton span — instrumentation
left in hot paths costs a few attribute lookups when tracing is off.
Check ``tracer.enabled`` before building expensive attribute payloads;
the span/instant/counter calls themselves are always safe to make.

Enable tracing either globally (:func:`set_tracer`) or for a scope
(:func:`use_tracer`)::

    from repro.obs import Tracer, use_tracer

    tracer = Tracer()
    with use_tracer(tracer):
        simulate_online(vms, cluster, allocator)
    tracer.events  # -> spans of allocate / replay, fleet counters, ...

Recorded events export to Chrome ``trace_event`` JSON or JSONL via
:mod:`repro.obs.export`.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping

__all__ = ["TraceEvent", "Span", "Tracer", "NullTracer", "NULL_TRACER",
           "get_tracer", "set_tracer", "use_tracer"]

#: Event kinds a tracer records.
SPAN = "span"
INSTANT = "instant"
COUNTER = "counter"
_BOOKED = "booked"  # a finished_span, in seconds until it is read


@dataclass
class TraceEvent:
    """One recorded event on a tracer's timeline.

    ``ts_ns`` is nanoseconds on the event's clock: the process-monotonic
    clock for ``clock="wall"`` events, or simulated time (one tick =
    1000 ns, so one tick renders as 1 µs in trace viewers) for
    ``clock="sim"`` series such as the fleet-power counters.
    """

    kind: str
    name: str
    ts_ns: int
    dur_ns: int = 0
    tid: int = 0
    clock: str = "wall"
    args: dict = field(default_factory=dict)

    def to_record(self) -> dict[str, object]:
        """A JSON-safe record (the JSONL event-log line)."""
        return {"kind": self.kind, "name": self.name, "ts_ns": self.ts_ns,
                "dur_ns": self.dur_ns, "tid": self.tid, "clock": self.clock,
                "args": dict(self.args)}

    @classmethod
    def from_record(cls, record: Mapping[str, object]) -> "TraceEvent":
        return cls(kind=str(record["kind"]), name=str(record["name"]),
                   ts_ns=int(record["ts_ns"]),
                   dur_ns=int(record.get("dur_ns", 0)),
                   tid=int(record.get("tid", 0)),
                   clock=str(record.get("clock", "wall")),
                   args=dict(record.get("args", {})))


class Span:
    """An open duration; records one ``span`` event when it closes."""

    __slots__ = ("_tracer", "name", "args", "_start_ns", "_tid")

    def __init__(self, tracer: "Tracer", name: str,
                 args: dict | None = None) -> None:
        self._tracer = tracer
        self.name = name
        self.args = args if args is not None else {}
        self._start_ns = 0
        self._tid = 0

    def set(self, **attrs: object) -> "Span":
        """Attach attributes to the span (chainable)."""
        self.args.update(attrs)
        return self

    def event(self, name: str, **attrs: object) -> None:
        """Record an instant event while this span is open."""
        self._tracer.instant(name, **attrs)

    def __enter__(self) -> "Span":
        self._tid = threading.get_ident()
        self._start_ns = self._tracer._clock()
        return self

    def __exit__(self, *exc_info: object) -> None:
        tracer = self._tracer
        end = tracer._clock()
        # Raw tuple, no lock: list.append is atomic under the GIL and
        # TraceEvent construction is deferred until somebody reads the
        # timeline — this runs once per span on the request hot path.
        tracer._raw.append((SPAN, self.name, self._start_ns,
                            end - self._start_ns, self._tid, "wall",
                            self.args))


class Tracer:
    """Records spans, instants and counters on a monotonic clock.

    Thread-safe: events from concurrent request handlers land on one
    shared timeline, each stamped with its thread id.
    """

    enabled = True

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns
                 ) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        # Hot-path buffer of raw (kind, name, ts_ns, dur_ns, tid,
        # clock, args) tuples; materialized into TraceEvents lazily by
        # the ``events`` property. Appends are lock-free (GIL-atomic).
        self._raw: list[tuple] = []
        self._events: list[TraceEvent] = []
        self._materialized = 0

    @property
    def events(self) -> list[TraceEvent]:
        """The recorded timeline as :class:`TraceEvent` objects."""
        raw = self._raw
        n = len(raw)
        if self._materialized < n:
            with self._lock:
                events = self._events
                while self._materialized < n:
                    kind, name, ts_ns, dur_ns, tid, clock, args = \
                        raw[self._materialized]
                    if kind == _BOOKED:     # dur_ns holds the end
                        kind, ts_ns = SPAN, round(ts_ns * 1e9)
                        dur_ns = round(dur_ns * 1e9) - ts_ns
                    events.append(TraceEvent(
                        kind=kind, name=name, ts_ns=ts_ns,
                        dur_ns=dur_ns, tid=tid, clock=clock, args=args))
                    self._materialized += 1
        return self._events

    # -- recording ---------------------------------------------------------

    def span(self, name: str, **attrs: object) -> Span:
        """An open span; use as a context manager."""
        return Span(self, name, attrs if attrs else None)

    def finished_span(self, name: str, started: float, ended: float,
                      **attrs: object) -> None:
        """Book a span that ran from ``started`` to ``ended`` (seconds
        of ``time.perf_counter()``, the default clock): a hot loop books
        its stages from clock reads it takes anyway, when :attr:`enabled`."""
        self._raw.append((_BOOKED, name, started, ended,
                          threading.get_ident(), "wall", attrs))

    def instant(self, name: str, **attrs: object) -> None:
        """Record a point event."""
        self._raw.append((INSTANT, name, self._clock(), 0,
                          threading.get_ident(), "wall", attrs))

    def counter(self, name: str, *, ts_ns: int | None = None,
                clock: str = "wall", **values: float) -> None:
        """Record a counter sample (one numeric series per key).

        ``ts_ns``/``clock`` place the sample on an explicit timeline —
        simulation telemetry replays its per-tick series with
        ``clock="sim"`` so trace viewers show it as its own track.
        """
        self._raw.append((
            COUNTER, name,
            self._clock() if ts_ns is None else ts_ns, 0,
            threading.get_ident() if clock == "wall" else 0,
            clock, values))

    # -- introspection -----------------------------------------------------

    def clear(self) -> None:
        with self._lock:
            self._raw.clear()
            self._events.clear()
            self._materialized = 0

    def spans(self, name: str | None = None) -> list[TraceEvent]:
        """All span events, optionally filtered by name."""
        return [e for e in self.events
                if e.kind == SPAN and (name is None or e.name == name)]

    def __len__(self) -> int:
        return len(self._raw)


class _NullSpan:
    """The shared do-nothing span handed out while tracing is off."""

    __slots__ = ()

    def set(self, **attrs: object) -> "_NullSpan":
        return self

    def event(self, name: str, **attrs: object) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer(Tracer):
    """A tracer that records nothing; the process-global default."""

    enabled = False

    def __init__(self) -> None:
        super().__init__()

    def span(self, name: str, **attrs: object) -> _NullSpan:  # type: ignore[override]
        return _NULL_SPAN

    def finished_span(self, *args: object, **attrs: object) -> None:
        pass

    def instant(self, name: str, **attrs: object) -> None:
        pass

    def counter(self, name: str, *, ts_ns: int | None = None,
                clock: str = "wall", **values: float) -> None:
        pass


#: The shared no-op tracer installed by default.
NULL_TRACER = NullTracer()

_current: Tracer = NULL_TRACER


def get_tracer() -> Tracer:
    """The process-global tracer (:data:`NULL_TRACER` unless installed)."""
    return _current


def set_tracer(tracer: Tracer | None) -> Tracer:
    """Install ``tracer`` globally (``None`` restores the no-op default);
    returns the previously installed tracer."""
    global _current
    previous = _current
    _current = tracer if tracer is not None else NULL_TRACER
    return previous


@contextmanager
def use_tracer(tracer: Tracer) -> Iterator[Tracer]:
    """Install ``tracer`` for the duration of a ``with`` block."""
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)
