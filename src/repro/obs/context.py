"""Trace-context propagation: one id from client to journal.

A :class:`TraceContext` is the pair of correlation ids every service
request carries:

* ``trace_id`` — names one logical operation end to end: a placement,
  a batch, a failure episode, a consolidation episode. The client mints
  it, the daemon echoes it on the response, stamps it on every span of
  the request's span tree, on the journal (group) entry, and on the
  structured log line — so one grep (or one Perfetto query) follows the
  operation across client → daemon → allocator → journal.
* ``request_id`` — names one wire request. Retries resend the *same*
  ``request_id`` (the ids are stamped once, before the first attempt),
  so an at-least-once duplicate is recognisable in the journal.

Requests without ids are stamped daemon-side, so server spans and
journal entries are always correlated; journal **replay reuses the
recorded ids verbatim and never re-generates them** — a restored
daemon's logs tell the same story as the original run.

Ids are lowercase hex (16 chars for traces, 8 for requests), minted
from the operating system's random source (:func:`os.urandom`, which
:mod:`secrets` draws from) — no coordination, no clock.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from typing import Mapping

from repro.exceptions import ServiceError

__all__ = ["TraceContext", "new_trace_id", "new_request_id",
           "trace_context_of"]

#: Wire field names of the trace envelope.
TRACE_ID_FIELD = "trace_id"
REQUEST_ID_FIELD = "request_id"

#: Ids longer than this are rejected as malformed (a sanity bound, not
#: a format requirement — callers may bring their own id scheme).
MAX_ID_LENGTH = 128


def _fresh_ids() -> str:
    """24 fresh hex chars from one draw: a trace id, then a request id."""
    return os.urandom(12).hex()


def new_trace_id() -> str:
    """A fresh 64-bit trace id (16 lowercase hex chars)."""
    return _fresh_ids()[:16]


def new_request_id() -> str:
    """A fresh 32-bit request id (8 lowercase hex chars)."""
    return _fresh_ids()[16:]


@dataclass(frozen=True)
class TraceContext:
    """The ``trace_id``/``request_id`` pair of one request."""

    trace_id: str
    request_id: str

    @classmethod
    def new(cls) -> "TraceContext":
        """Mint a fresh context (new trace id, new request id)."""
        return cls(trace_id=new_trace_id(), request_id=new_request_id())

    def child(self) -> "TraceContext":
        """The same trace, a fresh request id (one more wire request)."""
        return TraceContext(trace_id=self.trace_id,
                            request_id=new_request_id())

    def to_fields(self) -> dict[str, str]:
        """The wire/journal/log representation."""
        return {TRACE_ID_FIELD: self.trace_id,
                REQUEST_ID_FIELD: self.request_id}

    def stamp(self, message: dict) -> dict:
        """Stamp ``message`` in place (existing ids win); returns it."""
        message.setdefault(TRACE_ID_FIELD, self.trace_id)
        message.setdefault(REQUEST_ID_FIELD, self.request_id)
        return message


#: A sane id: 1 to :data:`MAX_ID_LENGTH` characters, no newline, not
#: all whitespace (``\s`` matches what ``str.isspace`` accepts).
_SANE_ID = re.compile(rf"(?=[^\n]{{1,{MAX_ID_LENGTH}}}\Z)\s*\S")


def trace_context_of(message: Mapping[str, object]) -> TraceContext:
    """The trace context of one request, minting what is missing.

    A request carrying ``trace_id`` (and optionally ``request_id``)
    keeps its ids; anything absent is minted here so every request —
    even from an id-less v1 client — is correlated daemon-side.

    Raises
    ------
    ServiceError
        When a present id is not a sane non-empty string.
    """
    trace_id = message[TRACE_ID_FIELD] if TRACE_ID_FIELD in message \
        else None
    request_id = message[REQUEST_ID_FIELD] if REQUEST_ID_FIELD in message \
        else None
    for field, value in ((TRACE_ID_FIELD, trace_id),
                         (REQUEST_ID_FIELD, request_id)):
        if value is None:
            continue
        try:
            sane = _SANE_ID.match(value) is not None
        except TypeError:   # not a str
            sane = False
        if not sane:
            raise ServiceError(
                f"request field {field!r} must be a non-empty string of "
                f"at most {MAX_ID_LENGTH} chars, got {value!r}")
    if trace_id is None or request_id is None:
        fresh = _fresh_ids()    # one draw mints whichever is missing
        trace_id = trace_id or fresh[:16]
        request_id = request_id or fresh[16:]
    return TraceContext(trace_id=trace_id, request_id=request_id)
