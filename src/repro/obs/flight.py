"""The flight recorder: a bounded ring of recent request outcomes.

A :class:`FlightRecorder` keeps the last N request/response tuples —
op, trace ids, outcome, latency, compacted request and response
payloads, and the error (if any). When something goes wrong in a
daemon that has been running for hours, the recorder answers *"what
were the last requests before this?"* without any log shipping:

* the ``dump_debug`` protocol op returns the ring over the wire (also
  fired by the chaos :class:`~repro.service.faults.FaultInjector`);
* an unhandled daemon error dumps the ring automatically to a
  ``flight-dump-*.json`` file in the data dir — a black box for the
  post-mortem.

Payloads are *compacted* for the dump: internal ``_``-prefixed fields
(parsed VM objects) are dropped, long lists are truncated to their head
with a ``"... (+N more)"`` marker, and long strings are clipped — a
10 000-VM batch records as a handful of entries. A payload with a
top-level list longer than that head is clipped the same way, one level
deep, the moment its record enters the ring, so the ring never holds a
batch's full lists or its parsed VMs, and its memory is bounded
regardless of request size; the rest of the compaction waits for a
read.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from pathlib import Path
from time import perf_counter
from typing import Mapping

from repro.exceptions import ValidationError

__all__ = ["FlightRecord", "FlightRecorder"]

#: Compaction bounds: list head kept / string prefix kept.
MAX_LIST_ITEMS = 16
MAX_STRING_LENGTH = 256

#: Ops whose request and response carry no list: recorded as they come,
#: with no scan for one to clip (``place`` is the hot path).
_LISTLESS_OPS = frozenset({"place", "tick", "ping", "stats",
                           "recover_server", "snapshot", "shutdown"})


class _Head(list):
    """The first :data:`MAX_LIST_ITEMS` items of a longer list, and the
    length it had — what :func:`_clip` keeps of it."""

    __slots__ = ("total",)


def _clip(payload: Mapping | None) -> Mapping | None:
    """``payload`` itself when no top-level list is longer than
    :data:`MAX_LIST_ITEMS` (a ``place``: bounded already, and left
    uncopied on the hot path), else a copy without its ``_``-prefixed
    keys and with each such list cut to a :class:`_Head`. Either way
    :func:`_compact` of the result is :func:`_compact` of ``payload``."""
    if payload is None:
        return None
    for value in payload.values():
        # a payload's lists are lists (decoded JSON, or built as such)
        if value.__class__ is list and len(value) > MAX_LIST_ITEMS:
            break
    else:
        return payload
    clipped = {}
    for key, value in payload.items():
        if str(key).startswith("_"):
            continue
        if value.__class__ is list and len(value) > MAX_LIST_ITEMS:
            head = _Head(value[:MAX_LIST_ITEMS])
            head.total = len(value)
            value = head
        clipped[key] = value
    return clipped


def _compact(value: object, depth: int = 0) -> object:
    """A bounded copy of ``value``: long lists/strings clipped."""
    if depth > 6:
        return "..."
    if isinstance(value, str):
        if len(value) > MAX_STRING_LENGTH:
            return value[:MAX_STRING_LENGTH] \
                + f"... (+{len(value) - MAX_STRING_LENGTH} chars)"
        return value
    if isinstance(value, Mapping):
        return {str(k): _compact(v, depth + 1)
                for k, v in value.items()
                if not str(k).startswith("_")}
    if isinstance(value, (list, tuple)):
        items = [_compact(v, depth + 1) for v in value[:MAX_LIST_ITEMS]]
        total = getattr(value, "total", len(value))
        if total > MAX_LIST_ITEMS:
            items.append(f"... (+{total - MAX_LIST_ITEMS} more)")
        return items
    return value


class FlightRecord:
    """One request, from the moment it is read to the moment its answer
    is encoded: the daemon's one record of it.

    The daemon fills each field once; the ring keeps the object, and the
    request's log line, SLO sample and wrapper spans read it. Stamps are
    ``time.perf_counter()`` seconds, ``None`` for a stage not reached:
    ``read``; ``decoded`` (parsed and validated from a line — a message
    handed over in-process is decoded when read); ``locked`` (the
    commit lock taken); ``decided`` (the decision loop done);
    ``journaled`` (durable: journaled, and checkpointed when due);
    ``answered``; ``encoded``. ``latency_ms`` runs from ``decoded`` to
    ``answered``, as the ``service.request`` span does; ``ctx`` is the
    request's :class:`~repro.obs.context.TraceContext`.

    The ring keeps a payload with a long top-level list clipped one
    level deep (recording drops its ``_``-prefixed keys and cuts those
    lists to their heads); the rest of the compaction is deferred to
    first access, and the bounded copies are built (then cached) when
    the ring is read. The daemon never mutates a request or response after
    answering it, so the deferred copy observes the same payload an
    eager one would.
    """

    __slots__ = ("seq", "op", "version", "ctx", "ok", "error", "decision",
                 "read", "decoded", "locked", "decided", "journaled",
                 "answered", "encoded", "raw_request", "raw_response",
                 "_request", "_response")

    def __init__(self, read: float) -> None:
        self.read = self.decoded = read
        self.locked = self.decided = self.journaled = None
        self.answered = self.encoded = None
        self.seq, self.op, self.version, self.ctx = 0, None, 1, None
        self.ok, self.error, self.decision = False, None, None
        self.raw_request: Mapping | None = None
        self.raw_response: Mapping | None = None
        self._request: dict | None = None
        self._response: dict | None = None

    @property
    def latency_ms(self) -> float:
        return round((self.answered - self.decoded) * 1e3, 3)

    def durable(self) -> float:
        """Stamp ``journaled`` now; returns the milliseconds since the
        commit lock was taken — the ``latency_ms`` a mutating op
        reports."""
        self.journaled = now = perf_counter()
        return (now - self.locked) * 1e3

    @property
    def request(self) -> dict:
        if self._request is None:
            self._request = _compact(self.raw_request or {})
        return self._request

    @property
    def response(self) -> dict:
        if self._response is None:
            self._response = _compact(self.raw_response or {})
        return self._response

    def to_record(self) -> dict[str, object]:
        record: dict[str, object] = {
            "seq": self.seq, "op": self.op, "trace_id": self.ctx.trace_id,
            "request_id": self.ctx.request_id, "ok": self.ok,
            "latency_ms": self.latency_ms, "request": self.request,
            "response": self.response}
        if self.error is not None:
            record["error"] = self.error
        return record


class FlightRecorder:
    """A bounded, thread-safe ring of the last N request outcomes.

    Capacity 0 disables recording entirely (``record`` is a no-op) —
    the observability-off configuration.
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 0:
            raise ValidationError(
                f"flight capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self._records: deque[FlightRecord] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._seq = 0

    @property
    def enabled(self) -> bool:
        return self.capacity > 0

    def record(self, entry: FlightRecord) -> None:
        """Keep one answered request's record, numbered in arrival
        order, a payload with a long list clipped at its top level (the
        deep compaction happens on read)."""
        if self.capacity == 0:
            return
        if entry.op not in _LISTLESS_OPS:
            entry.raw_request = _clip(entry.raw_request)
            entry.raw_response = _clip(entry.raw_response)
        with self._lock:
            self._seq += 1
            entry.seq = self._seq
            self._records.append(entry)

    def last(self, n: int | None = None) -> tuple[FlightRecord, ...]:
        """The newest ``n`` records (all when ``None``), oldest first."""
        if n is not None and n < 0:
            raise ValidationError(f"n must be >= 0, got {n}")
        with self._lock:
            ordered = list(self._records)
        if n is not None:
            ordered = ordered[len(ordered) - min(n, len(ordered)):]
        return tuple(ordered)

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def clear(self) -> None:
        with self._lock:
            self._records.clear()

    def dump(self, n: int | None = None) -> list[dict[str, object]]:
        """The newest ``n`` records as JSON-safe dicts, oldest first."""
        return [record.to_record() for record in self.last(n)]

    def dump_to(self, path: str | Path, *,
                reason: str = "manual") -> Path:
        """Write the ring to ``path`` as a JSON document; returns it."""
        path = Path(path)
        document = {"reason": reason, "records": self.dump()}
        path.write_text(json.dumps(document, indent=2, default=str))
        return path
