"""The JSON-lines wire protocol of the allocation service.

Every message is one JSON object per line, UTF-8, newline-terminated —
the same framing over stdin/stdout and TCP (a v3 connection may speak
the length-prefixed frames of :mod:`repro.service.framing` instead).
Requests carry an ``op``, optionally a protocol version ``"v"``
(absent: version 1) and the trace ids of :mod:`repro.obs.context`;
responses always carry ``ok``. The VM payload of a ``place`` request
uses the canonical trace record shape
(:func:`repro.workload.trace.vm_to_record`), so a saved trace streams
to a daemon without translation.

The operations and the version each needs, their fields, the failure
shapes (:mod:`repro.service.errors`), the trace-id echo and
backpressure are specified once, in ``docs/service.md`` ("The wire
protocol"); ``tests/fixtures/wire_v1_v2_v3.json`` pins their bytes.
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
from repro.obs.context import REQUEST_ID_FIELD, TRACE_ID_FIELD, TraceContext
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


#: ``json.dumps(..., separators=(",", ":"))``, built once: the encoder
#: holds no state between calls, so every thread shares it.
COMPACT = json.JSONEncoder(separators=(",", ":"))


def encode(message: Mapping[str, object]) -> str:
    """One protocol line: compact JSON plus the terminating newline."""
    return COMPACT.encode(message) + "\n"


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
                  ctx: TraceContext) -> dict[str, object]:
    """``response`` in the dialect ``request`` spoke: the trace ids of
    ``ctx`` echoed when it carried either (an id-less v1 client keeps
    getting byte-identical replies), and its ``"v"`` when it sent one;
    a key the response already holds is kept."""
    if TRACE_ID_FIELD in request or REQUEST_ID_FIELD in request:
        if TRACE_ID_FIELD not in response:
            response[TRACE_ID_FIELD] = ctx.trace_id
        if REQUEST_ID_FIELD not in response:
            response[REQUEST_ID_FIELD] = ctx.request_id
    if "v" in request and "v" not in response:
        response["v"] = request["v"]
    return response


class Request(dict):
    """One validated request — the only message type op handlers read.

    Only :func:`validate_request` builds one, so ``isinstance(message,
    Request)`` means every field rule below already held; a plain
    ``dict`` (the gateway's body, an in-process caller's literal) is
    validated by the daemon before any handler sees it. The decoded
    VM(s) of ``place`` / ``place_batch`` ride under ``"_vm"`` /
    ``"_vms"``, and :attr:`version` is the negotiated protocol version.
    """

    __slots__ = ("version",)


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
    request.version = version
    request.pop("_vm", None)
    request.pop("_vms", None)
    if op == "place":
        record = request["vm"] if "vm" in request else None
        if not isinstance(record, dict):
            raise ServiceError("place request needs a 'vm' record object")
        _check_radius_fields(record, version, "vm")
        try:
            request["_vm"] = vm_from_record(record)
        except (TypeError, KeyError, ValueError) as exc:
            raise ServiceError(f"malformed vm record: {exc}") from exc
        if "explain" in request and type(request["explain"]) is not bool:
            raise ServiceError(
                f"place request field 'explain' must be a boolean, "
                f"got {request['explain']!r}")
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
    if version < 3 and ("cpu_radius" in record or "mem_radius" in record):
        present = [key for key in ("cpu_radius", "mem_radius")
                   if key in record]
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
