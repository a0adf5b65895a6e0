"""The JSON-lines wire protocol of the allocation service.

Every message is one JSON object per line, UTF-8, newline-terminated —
the same framing over stdin/stdout and TCP. Requests carry an ``op``
field; responses always carry ``ok`` (and ``error`` when ``ok`` is
false). The VM payload of a ``place`` request uses the canonical trace
record shape (:func:`repro.workload.trace.vm_to_record`), so a saved
trace streams to a daemon without translation.

Versioning
----------
A request may carry ``"v"``; absent means version 1, so every v1 client
keeps working byte-for-byte. The daemon speaks
:data:`SUPPORTED_VERSIONS` and echoes ``"v"`` back on every response to
a versioned request. A version outside that tuple (or a non-integer
``v``) is answered with a structured error::

    {"ok": false, "error": "...", "supported_versions": [1, 2, 3]}

so clients can renegotiate instead of guessing. Version 2 adds the
``place_batch``, ``fail_server`` and ``recover_server`` operations;
everything in version 1 is unchanged. An unknown ``op`` is answered
the same way — ``{"ok": false, "error": "...", "supported_ops":
[...]}`` — so a client talking to an older daemon can discover what it
actually speaks.

Version 3 changes no operation vocabulary; it changes the *failure
shape* and the *transport*:

* every failure response to a v3 request carries the typed error
  envelope ``{"ok": false, "error": {code, message, retryable[,
  retry_after]}}`` (see :mod:`repro.service.errors`); v1/v2 requests
  keep the historical bare-string ``error`` byte-for-byte;
* v3 connections may speak the length-prefixed binary framing of
  :mod:`repro.service.framing` — the socket front sniffs the first
  byte of each connection, so framed and line clients share one port;
* the HTTP/REST gateway (:mod:`repro.service.gateway`) translates
  ``POST /v1/place`` &c. onto these same operations at version 3.

Operations
----------
``place``
    ``{"op": "place", "vm": {vm_id, type, cpu, memory, start, end[,
    phases][, cpu_radius, mem_radius]}}`` — route one request through
    the allocator. The optional ``cpu_radius``/``mem_radius`` fields
    (uncertain demand, for Γ-robust placement) require ``"v": 3``; a
    v1/v2 request carrying them is rejected with ``bad_request``
    rather than silently treated as exact. The response
    reports ``decision`` (``"placed"`` or ``"rejected"``), the chosen
    ``server_id``, any admission ``delay``, the analytic
    ``energy_delta`` (Eq. 17) and the service-side ``latency_ms``.
    With the opt-in ``"explain": true`` field the response additionally
    carries ``explanation`` — the serialized
    :class:`~repro.obs.explain.PlacementExplanation` listing every
    candidate server with its feasibility verdict and cost terms.
``place_batch`` (v2)
    ``{"op": "place_batch", "v": 2, "vms": [record, ...]}`` — place a
    whole batch in one round trip. Records with demand radii require
    ``"v": 3``, as for ``place``. The response carries ``decisions``
    (one object per VM, *in request order*, each with ``vm_id``,
    ``decision``, and for placements ``server_id``/``delay``/
    ``energy_delta``), the aggregate ``energy_delta``, and ``placed``/
    ``count`` totals. The daemon journals the batch as one group, so a
    restore replays it atomically and bit-exact.
``tick``
    ``{"op": "tick", "now": T}`` — advance the cluster clock to ``T``,
    retiring expired VMs and powering down idle servers.
``fail_server`` (v2)
    ``{"op": "fail_server", "v": 2, "server_id": S[, "time": T]}`` —
    the server crashed at tick ``T`` (default: the daemon's clock).
    Affected VMs are split at the failure tick and their remainders
    re-placed through the active allocator; the response carries the
    resolved ``time``, ``killed``/``replaced``/``lost`` counts, the
    fleet-wide ``energy_delta`` and one record per re-placement (with
    its own Eq.-17 delta, including any forced wake on the target).
    The whole episode is journaled as one atomic group.
``recover_server`` (v2)
    ``{"op": "recover_server", "v": 2, "server_id": S}`` — the server
    is back; it returns to power-saving and becomes placeable again
    (its next wake pays the transition cost ``alpha``).
``consolidate`` (v2)
    ``{"op": "consolidate", "v": 2[, "time": T]}`` — run one live
    consolidation episode at tick ``T`` (default: the daemon's clock):
    rank drainable servers, split each spanning resident at ``T`` and
    migrate its remainder wherever the Eq.-17 saving beats the per-move
    migration cost. The response carries ``migrations``,
    ``servers_freed``, ``energy_saved``, ``migration_energy`` and one
    record per move. The whole episode is journaled as one atomic
    group (the same guarantee as ``fail_server``).
``stats``
    Counters, clock and energy accounting as JSON.
``metrics``
    The Prometheus text exposition as a ``text`` field (the gateway
    serves the same page at ``GET /metrics``, see
    :func:`repro.service.gateway.start_gateway`).
``telemetry`` (v2)
    ``{"op": "telemetry", "v": 2[, "last": N]}`` — the daemon's
    per-tick fleet telemetry ring (see
    :class:`repro.obs.telemetry.TelemetryRing`): the newest ``N``
    samples (all of them when ``last`` is absent) as a ``samples``
    array, plus the current SLO ``slo`` report. Read-only; this is
    what ``repro top`` and ``repro slo`` poll.
``dump_debug`` (v2)
    ``{"op": "dump_debug", "v": 2}`` — the daemon's flight recorder
    (the last N request/response tuples) as a ``records`` array, for
    live debugging. Read-only; the same ring is dumped to a file
    automatically on an unhandled daemon error.
``snapshot``
    Force a checkpoint now; responds with the snapshot path.
``ping`` / ``shutdown``
    Liveness probe / orderly stop (final snapshot, journal close).

Trace context
-------------
Any request may carry ``trace_id`` and ``request_id`` strings (the
protocol-v2 envelope; :class:`~repro.obs.context.TraceContext`).
:class:`~repro.service.client.AllocationClient` stamps both on every
request — retries resend the *same* ids — and the daemon echoes them
on the response, stamps them on the request's span tree, its journal
(group) entry and its structured log line. Requests without ids are
correlated daemon-side (ids are minted, attached to spans/journal/
logs) but the response stays byte-compatible for id-less v1 clients.

Backpressure: when the daemon's bounded ingest queue is full, mutating
operations are answered with ``{"ok": false, "error": "overloaded",
"retry_after": seconds}`` instead of queueing without bound; clients
should wait ``retry_after`` and resend.
"""

from __future__ import annotations

import json
from typing import Iterable, Mapping

from repro.exceptions import (
    ProtocolVersionError,
    ServiceError,
    UnknownOperationError,
)
from repro.model.vm import VM
from repro.workload.trace import vm_from_record, vm_to_record

__all__ = ["PROTOCOL_VERSION", "SUPPORTED_VERSIONS", "OPS",
           "Request", "negotiate_version", "requested_version",
           "echo_envelope", "parse_request",
           "validate_request", "parse_response",
           "encode", "place_request", "place_batch_request",
           "fail_server_request", "recover_server_request",
           "consolidate_request", "telemetry_request",
           "dump_debug_request", "vm_to_record", "vm_from_record"]

#: The newest protocol version this build speaks.
PROTOCOL_VERSION = 3

#: Every version the daemon accepts; requests without ``"v"`` are v1.
SUPPORTED_VERSIONS = (1, 2, 3)

#: Every operation the daemon understands (``place_batch``,
#: ``fail_server``, ``recover_server``, ``consolidate``, ``telemetry``
#: and ``dump_debug`` need v2).
OPS = ("place", "place_batch", "tick", "fail_server", "recover_server",
       "consolidate", "stats", "metrics", "telemetry", "dump_debug",
       "snapshot", "ping", "shutdown")


def encode(message: Mapping[str, object]) -> str:
    """One protocol line: compact JSON plus the terminating newline."""
    return json.dumps(message, separators=(",", ":")) + "\n"


def place_request(vm: VM, *, explain: bool = False) -> dict[str, object]:
    """The ``place`` request for one VM (optionally explain-enabled).

    Exact-demand VMs keep the original (version-less, v1) shape so the
    wire bytes are unchanged; a VM with demand radii stamps ``"v": 3``
    because the radius fields are a protocol-3 extension.
    """
    record = vm_to_record(vm)
    request: dict[str, object] = {"op": "place", "vm": record}
    if "cpu_radius" in record or "mem_radius" in record:
        request["v"] = PROTOCOL_VERSION
    if explain:
        request["explain"] = True
    return request


def place_batch_request(vms: Iterable[VM]) -> dict[str, object]:
    """The v2 ``place_batch`` request for a whole batch of VMs."""
    return {"op": "place_batch", "v": PROTOCOL_VERSION,
            "vms": [vm_to_record(vm) for vm in vms]}


def fail_server_request(server_id: int,
                        time: int | None = None) -> dict[str, object]:
    """The v2 ``fail_server`` request (``time`` defaults to the
    daemon's current tick)."""
    request: dict[str, object] = {"op": "fail_server",
                                  "v": PROTOCOL_VERSION,
                                  "server_id": server_id}
    if time is not None:
        request["time"] = time
    return request


def recover_server_request(server_id: int) -> dict[str, object]:
    """The v2 ``recover_server`` request."""
    return {"op": "recover_server", "v": PROTOCOL_VERSION,
            "server_id": server_id}


def consolidate_request(time: int | None = None) -> dict[str, object]:
    """The v2 ``consolidate`` request (``time`` defaults to the
    daemon's current tick)."""
    request: dict[str, object] = {"op": "consolidate",
                                  "v": PROTOCOL_VERSION}
    if time is not None:
        request["time"] = time
    return request


def telemetry_request(last: int | None = None) -> dict[str, object]:
    """The v2 ``telemetry`` request (``last`` limits the sample count)."""
    request: dict[str, object] = {"op": "telemetry",
                                  "v": PROTOCOL_VERSION}
    if last is not None:
        request["last"] = last
    return request


def dump_debug_request() -> dict[str, object]:
    """The v2 ``dump_debug`` request (flight-recorder dump)."""
    return {"op": "dump_debug", "v": PROTOCOL_VERSION}


def negotiate_version(message: Mapping[str, object]) -> int:
    """The effective protocol version of one request.

    A missing ``"v"`` means version 1 (pre-versioning clients).

    Raises
    ------
    ProtocolVersionError
        When ``v`` is not an integer in :data:`SUPPORTED_VERSIONS`; the
        exception carries the supported tuple for the structured error
        response.
    """
    version = message.get("v", 1)
    if isinstance(version, bool) or not isinstance(version, int) \
            or version not in SUPPORTED_VERSIONS:
        raise ProtocolVersionError(
            f"unsupported protocol version {version!r}; this daemon "
            f"speaks versions {list(SUPPORTED_VERSIONS)}",
            version=version, supported=SUPPORTED_VERSIONS)
    return version


def requested_version(message: object) -> int:
    """Best-effort read of the version a message or raw line asked for
    — the negotiated one when :func:`negotiate_version` accepts it.

    Decides which error shape a failure is answered in (the v3
    envelope or the legacy string); anything unparseable reads as v1,
    the conservative choice.
    """
    if isinstance(message, str):
        try:
            message = json.loads(message)
        except ValueError:
            return 1
    if isinstance(message, Mapping):
        version = message.get("v", 1)
        if isinstance(version, int) and not isinstance(version, bool):
            return version
    return 1


def echo_envelope(request: Mapping[str, object],
                  response: dict[str, object],
                  ids: Mapping[str, str]) -> dict[str, object]:
    """``response`` in the dialect ``request`` spoke: the trace ``ids``
    echoed when it carried either (an id-less v1 client keeps getting
    byte-identical replies), and its ``"v"`` when it sent one."""
    if "trace_id" in request or "request_id" in request:
        for key, value in ids.items():
            response.setdefault(key, value)
    if "v" in request:
        response.setdefault("v", request["v"])
    return response


class Request(dict):
    """One validated request — the only message type op handlers read.

    Only :func:`validate_request` builds one, so ``isinstance(message,
    Request)`` means every field rule below already held; a plain
    ``dict`` (the gateway's body, an in-process caller's literal) is
    validated by the daemon before any handler sees it. The decoded
    VM(s) of ``place`` / ``place_batch`` ride under ``"_vm"`` /
    ``"_vms"``.
    """

    __slots__ = ()


#: Operations that exist from protocol version 2 on.
_V2_OPS = ("place_batch", "fail_server", "recover_server", "consolidate",
           "telemetry", "dump_debug")

#: ``op -> ((field, required, minimum, message), ...)``: the integer
#: fields of each operation, checked in this order. Optional fields
#: are checked only when present.
_INT_FIELDS: dict[str, tuple[tuple[str, bool, int, str], ...]] = {
    "tick": (
        ("now", True, 0,
         "tick request needs a non-negative integer 'now'"),),
    "fail_server": (
        ("server_id", True, 0,
         "fail_server request needs a non-negative integer 'server_id'"),
        ("time", False, 1,
         "fail_server field 'time' must be a positive integer")),
    "recover_server": (
        ("server_id", True, 0,
         "recover_server request needs a non-negative integer 'server_id'"),),
    "consolidate": (
        ("time", False, 1,
         "consolidate field 'time' must be a positive integer"),),
    "telemetry": (
        ("last", False, 1,
         "telemetry field 'last' must be a positive integer"),),
}


def parse_request(line: str) -> Request:
    """Decode and validate one request line.

    Raises :class:`ServiceError` on malformed JSON and on everything
    :func:`validate_request` refuses.
    """
    try:
        message = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ServiceError(f"malformed request line: {exc}") from exc
    return validate_request(message)


def validate_request(message: object) -> Request:
    """Check one decoded request against every field rule.

    Returns a :class:`Request` copy of ``message`` with the decoded
    VM(s) attached; any ``"_vm"`` / ``"_vms"`` key the sender put there
    is overwritten or dropped. Raises :class:`ServiceError` on a
    non-object payload, an unsupported protocol version
    (:class:`~repro.exceptions.ProtocolVersionError`), an unknown
    ``op`` (:class:`~repro.exceptions.UnknownOperationError`), an
    operation newer than the request's version, or a malformed field.
    """
    if not isinstance(message, dict):
        raise ServiceError(
            f"request must be a JSON object, got {type(message).__name__}")
    version = negotiate_version(message)
    op = message.get("op")
    if op not in OPS:
        raise UnknownOperationError(
            f"unknown op {op!r}; this daemon supports: {list(OPS)}",
            op=op, supported=OPS)
    if op in _V2_OPS and version < 2:
        raise ServiceError(
            f'{op} requires protocol version 2; send "v": 2')
    request = Request(message)
    request.pop("_vm", None)
    request.pop("_vms", None)
    if op == "place":
        record = request.get("vm")
        if not isinstance(record, dict):
            raise ServiceError("place request needs a 'vm' record object")
        _check_radius_fields(record, version, "vm")
        try:
            request["_vm"] = vm_from_record(record)
        except (TypeError, KeyError, ValueError) as exc:
            raise ServiceError(f"malformed vm record: {exc}") from exc
        explain = request.get("explain", False)
        if not isinstance(explain, bool):
            raise ServiceError(
                f"place request field 'explain' must be a boolean, "
                f"got {explain!r}")
    elif op == "place_batch":
        request["_vms"] = parse_batch_records(request.get("vms"),
                                              version=version)
    for field, required, minimum, rule in _INT_FIELDS.get(op, ()):
        if not required and field not in request:
            continue
        value = request.get(field)
        if isinstance(value, bool) or not isinstance(value, int) \
                or value < minimum:
            raise ServiceError(f"{rule}, got {value!r}")
    return request


def parse_batch_records(records: object, *,
                        version: int = PROTOCOL_VERSION) -> list[VM]:
    """Validate and decode the ``vms`` array of a ``place_batch``."""
    if not isinstance(records, list):
        raise ServiceError(
            f"place_batch request needs a 'vms' array, got "
            f"{type(records).__name__}")
    vms: list[VM] = []
    for position, record in enumerate(records):
        if not isinstance(record, dict):
            raise ServiceError(
                f"place_batch vms[{position}] must be a VM record object")
        _check_radius_fields(record, version, f"vms[{position}]")
        try:
            vms.append(vm_from_record(record))
        except (TypeError, KeyError, ValueError) as exc:
            raise ServiceError(
                f"malformed vm record at vms[{position}]: {exc}") from exc
    return vms


def _check_radius_fields(record: Mapping[str, object], version: int,
                         where: str) -> None:
    """Reject demand-radius fields on pre-v3 requests.

    The radii are a protocol-3 extension; a v1/v2 client sending them
    is answered with the typed ``bad_request`` envelope (projected to
    the legacy bare-string ``error`` for those versions by
    :func:`repro.service.errors.attach_error`) instead of silently
    dropping the uncertainty the client asked for.
    """
    if version >= 3:
        return
    present = [key for key in ("cpu_radius", "mem_radius")
               if key in record]
    if present:
        raise ServiceError(
            f"{where} record fields {present} (uncertain demand) require "
            f'protocol version 3; send "v": 3')


def parse_response(line: str) -> dict[str, object]:
    """Decode one response line (client side)."""
    try:
        message = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ServiceError(f"malformed response line: {exc}") from exc
    if not isinstance(message, dict) or "ok" not in message:
        raise ServiceError(f"malformed response: {line!r}")
    return message
