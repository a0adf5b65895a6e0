"""The typed error envelope of the allocation service.

Protocol v3 unifies every failure response into one shape::

    {"ok": false, "op": ..., "error": {
        "code": "overloaded",
        "message": "daemon shed the request under load",
        "retryable": true,
        "retry_after": 0.25        # only when the daemon has a hint
    }}

``code`` is a stable machine-readable identifier from :data:`CODES`
(clients dispatch on it — never on the message text), ``retryable``
says whether resending the identical request may succeed, and
``retry_after`` carries the daemon's backoff hint in seconds when it
has one. Extra self-describing fields (``supported_versions``,
``supported_ops``) stay top-level in the response, next to ``error``.

v1/v2 compatibility
-------------------
Pre-v3 readers keep the historical shape byte-for-byte: ``error`` is
the bare message string and ``retry_after`` rides top-level. The
daemon builds the envelope once and :func:`attach_error` projects it
onto whichever shape the request's negotiated version requires;
:func:`error_fields` reads *both* shapes back into one
:class:`ErrorFields` view, so client code (retry classification, the
CLI) never needs to know which daemon generation answered.

The HTTP gateway maps codes onto status codes via
:func:`http_status_of` — ``overloaded`` becomes ``429`` with a
``Retry-After`` header, ``unavailable`` becomes ``503``, validation
failures ``400``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.exceptions import (
    ProtocolVersionError,
    ReproError,
    RetryableError,
    UnavailableError,
    UnknownOperationError,
)

__all__ = ["CODES", "ErrorFields", "attach_error", "envelope",
           "envelope_of_exception", "error_fields", "http_status_of"]

#: Every error code the daemon emits, with its HTTP projection.
#: ``code -> (http_status, retryable_by_default)``
CODES: dict[str, tuple[int, bool]] = {
    "bad_request": (400, False),
    "unsupported_version": (400, False),
    "unknown_op": (400, False),
    "not_found": (404, False),
    "method_not_allowed": (405, False),
    "overloaded": (429, True),
    "internal": (500, False),
    "unavailable": (503, True),
}


@dataclass(frozen=True)
class ErrorFields:
    """One normalized view over both error-response generations."""

    code: str
    message: str
    retryable: bool
    retry_after: float | None = None


def envelope(code: str, message: str, *, retryable: bool | None = None,
             retry_after: float | None = None) -> dict[str, object]:
    """Build one v3 error envelope (the ``error`` object)."""
    if code not in CODES:
        raise ValueError(f"unknown error code {code!r}")
    if retryable is None:
        retryable = CODES[code][1]
    env: dict[str, object] = {"code": code, "message": message,
                              "retryable": bool(retryable)}
    if retry_after is not None:
        env["retry_after"] = retry_after
    return env


def envelope_of_exception(exc: ReproError) -> dict[str, object]:
    """The envelope of one service-side exception.

    The mapping is by type, most specific first; anything else from the
    typed hierarchy is a request the daemon understood but cannot
    honour — ``bad_request``.
    """
    if isinstance(exc, ProtocolVersionError):
        return envelope("unsupported_version", str(exc))
    if isinstance(exc, UnknownOperationError):
        return envelope("unknown_op", str(exc))
    if isinstance(exc, UnavailableError):
        return envelope("unavailable", str(exc))
    if isinstance(exc, RetryableError):
        return envelope("overloaded", str(exc), retryable=True,
                        retry_after=getattr(exc, "retry_after", None))
    return envelope("bad_request", str(exc))


def attach_error(response: dict[str, object], env: Mapping[str, object],
                 version: int) -> dict[str, object]:
    """Project ``env`` onto ``response`` in the shape ``version`` reads.

    v3 readers get the envelope verbatim under ``error``; v1/v2 readers
    get the historical bare string (plus top-level ``retry_after`` when
    the envelope carries a hint) — byte-for-byte what those clients
    always received.
    """
    response["ok"] = False
    if version >= 3:
        response["error"] = dict(env)
    else:
        response["error"] = str(env.get("message", ""))
        if "retry_after" in env:
            response["retry_after"] = env["retry_after"]
    return response


def error_fields(response: Mapping[str, object]) -> ErrorFields | None:
    """Normalize a failure response of either generation.

    Returns ``None`` for successful responses (``ok`` true) and for
    payloads with no readable error at all. Legacy responses are
    classified by the one string the old protocol made structural —
    ``"overloaded"`` — everything else is terminal.
    """
    if response.get("ok"):
        return None
    error = response.get("error")
    if isinstance(error, Mapping):
        code = str(error.get("code", "internal"))
        retry_after = error.get("retry_after")
        return ErrorFields(
            code=code,
            message=str(error.get("message", "")),
            retryable=bool(error.get("retryable",
                                     CODES.get(code, (500, False))[1])),
            retry_after=None if retry_after is None
            else float(retry_after))
    if isinstance(error, str):
        retry_after = response.get("retry_after")
        if error == "overloaded":
            return ErrorFields(
                code="overloaded", message=error, retryable=True,
                retry_after=None if retry_after is None
                else float(retry_after))
        return ErrorFields(code="bad_request", message=error,
                           retryable=False,
                           retry_after=None if retry_after is None
                           else float(retry_after))
    return None


def http_status_of(response: Mapping[str, object]) -> int:
    """The HTTP status code one daemon response maps onto."""
    if response.get("ok"):
        return 200
    fields = error_fields(response)
    if fields is None:
        return 500
    return CODES.get(fields.code, (500, False))[0]
