"""Client side of the allocation service: connect, retry, summarize.

:class:`AllocationClient` speaks the allocation protocol over TCP —
JSON-lines by default, or the protocol-v3 binary framing with
``framing="frames"`` — through *typed methods only*: :meth:`place`,
:meth:`place_batch`, :meth:`consolidate`, :meth:`telemetry`,
:meth:`slo` and friends. The raw-dict ``request()`` escape hatch —
deprecated since the v3 framing landed — is gone; code never builds
protocol dicts by hand.

Failures are classified with the typed hierarchy of
:mod:`repro.exceptions`, dispatching on the error envelope's stable
``code`` (:mod:`repro.service.errors`) — never on message text — and
reading the legacy v1/v2 string shape through the same normalizer:
transient transport faults (reset, timeout, connection closed
mid-response) raise :class:`~repro.exceptions.TransportError` and
overload shedding (code ``overloaded``) raises
:class:`~repro.exceptions.OverloadedError` — both are
:class:`~repro.exceptions.RetryableError`, and with a retry budget in
:class:`ClientConfig` the client reconnects and resends under capped
exponential backoff (honouring the daemon's ``retry_after`` hint).
Terminal protocol errors are never retried: the daemon's structured
error payload is returned to the caller unchanged.

Retries are at-least-once: a send that dies mid-response may already
have been applied by the daemon, so a retried mutating operation can be
applied twice. That matches the journal semantics (every applied
request is journaled); exactly-once callers should keep ``retries=0``
(the default).

:func:`replay_trace` streams a whole workload — a
:class:`~repro.workload.trace.Trace` or any VM iterable — in the
paper's online order (start time, ties by end then id), lifts every
response into a typed :class:`~repro.results.PlacementResult`, and
aggregates them into a :class:`ReplaySummary`. With ``batch=N`` it
chunks the stream into ``place_batch`` round trips instead of one
``place`` per VM — same placements, far fewer round trips. This is
what ``repro client`` runs.
"""

from __future__ import annotations

import random
import socket
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from repro.exceptions import (
    OverloadedError,
    RetryableError,
    ServiceError,
    TransportError,
    ValidationError,
)
from repro.model.vm import VM
from repro.obs.context import (
    REQUEST_ID_FIELD,
    TRACE_ID_FIELD,
    new_request_id,
    new_trace_id,
)
from repro.results import PlacementResult
from repro.service.errors import error_fields
from repro.service.framing import encode_frame, read_frame
from repro.service.protocol import (
    consolidate_request,
    dump_debug_request,
    encode,
    fail_server_request,
    parse_response,
    place_batch_request,
    place_request,
    recover_server_request,
    telemetry_request,
)

__all__ = ["AllocationClient", "ClientConfig",
           "ReplaySummary", "replay_trace"]

#: The client's wire dialects: newline-terminated JSON (compatible
#: with every daemon generation) or v3 length-prefixed frames.
FRAMINGS = ("lines", "frames")


@dataclass(frozen=True)
class ClientConfig:
    """Timeout and retry policy of one :class:`AllocationClient`.

    ``retries`` is the number of *additional* attempts after the first
    (0 = never retry). The delay before retry attempt ``k`` (0-based)
    is ``min(backoff_cap, backoff * 2**k)`` seconds, stretched by up to
    ``jitter`` (a fraction: 0.1 adds up to +10%, drawn from a
    ``random.Random(seed)`` so test schedules are reproducible), and
    never less than an :class:`~repro.exceptions.OverloadedError`'s
    ``retry_after`` hint.
    """

    timeout: float = 30.0
    retries: int = 0
    backoff: float = 0.05
    backoff_cap: float = 2.0
    jitter: float = 0.0
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.timeout <= 0:
            raise ValidationError(
                f"timeout must be positive, got {self.timeout!r}")
        if self.retries < 0:
            raise ValidationError(
                f"retries must be >= 0, got {self.retries!r}")
        if self.backoff < 0 or self.backoff_cap < 0:
            raise ValidationError(
                f"backoff delays must be >= 0, got backoff="
                f"{self.backoff!r}, backoff_cap={self.backoff_cap!r}")
        if self.jitter < 0:
            raise ValidationError(
                f"jitter must be >= 0, got {self.jitter!r}")


class AllocationClient:
    """A blocking allocation-service client with typed errors and
    retries.

    ``framing`` selects the wire dialect: ``"lines"`` (JSON-lines, the
    default, byte-compatible with every daemon generation) or
    ``"frames"`` (the protocol-v3 binary framing — requires the socket
    front of :mod:`repro.service.tcp`, which sniffs each connection's
    first byte). Both sides read frames with the same
    :func:`~repro.service.framing.read_frame`, and the front answers on
    the thread that read the request.

    ``connect`` and ``sleep`` are injectable for tests: ``connect()``
    must return a connected socket-like object (``makefile``/``close``)
    and defaults to a TCP connection to ``host:port``; ``sleep`` is
    called with each backoff delay.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 7077, *,
                 timeout: float | None = None,
                 config: ClientConfig | None = None,
                 framing: str = "lines",
                 connect: Callable[[], socket.socket] | None = None,
                 sleep: Callable[[float], None] = time.sleep) -> None:
        if framing not in FRAMINGS:
            raise ValidationError(
                f"unknown framing {framing!r}; valid framings: {FRAMINGS}")
        if config is None:
            config = ClientConfig() if timeout is None \
                else ClientConfig(timeout=timeout)
        elif timeout is not None and timeout != config.timeout:
            raise ValidationError(
                "pass the timeout inside ClientConfig, not alongside it")
        self.config = config
        self.framing = framing
        self._connect = connect if connect is not None else (
            lambda: socket.create_connection((host, port),
                                             timeout=config.timeout))
        self._sleep = sleep
        self._rng = random.Random(config.seed)
        self._sock: socket.socket | None = None
        self._reader = None
        self._writer = None
        self._open()

    # ------------------------------------------------------------------
    # Connection management
    # ------------------------------------------------------------------

    def _open(self) -> None:
        try:
            self._sock = self._connect()
            if self.framing == "frames":
                self._reader = self._sock.makefile("rb")
                self._writer = self._sock.makefile("wb")
            else:
                self._reader = self._sock.makefile("r", encoding="utf-8")
                self._writer = self._sock.makefile("w", encoding="utf-8")
        except OSError as exc:
            self._drop()
            raise TransportError(
                f"cannot connect to daemon: {exc}") from exc

    def _drop(self) -> None:
        for closer in (self._reader, self._writer, self._sock):
            if closer is None:
                continue
            try:
                closer.close()
            except OSError:  # pragma: no cover - best-effort teardown
                pass
        self._sock = self._reader = self._writer = None

    def close(self) -> None:
        self._drop()

    def __enter__(self) -> "AllocationClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------

    def _backoff_delay(self, attempt: int) -> float:
        config = self.config
        delay = min(config.backoff_cap, config.backoff * 2 ** attempt)
        if config.jitter:
            delay *= 1.0 + config.jitter * self._rng.random()
        return delay

    def _exchange(self, message: Mapping[str, object]) -> str:
        """One wire round trip in the configured framing; returns the
        raw response line ("" when the peer closed cleanly)."""
        if self.framing == "frames":
            payload = encode(message).rstrip("\n").encode("utf-8")
            self._writer.write(encode_frame(payload))
            self._writer.flush()
            data = read_frame(self._reader)
            return "" if data is None \
                else data.decode("utf-8", errors="replace")
        self._writer.write(encode(message))
        self._writer.flush()
        return self._reader.readline()

    def _request_once(self, message: Mapping[str, object]
                      ) -> dict[str, object]:
        """One attempt: send, read, classify.

        Transport faults and overload shedding raise the retryable
        exceptions; every other response — including the daemon's
        structured terminal errors — is returned as-is. Classification
        dispatches on the error envelope's stable ``code`` (the legacy
        string shape normalizes through the same
        :func:`~repro.service.errors.error_fields` view).
        """
        try:
            if self._sock is None:
                self._open()
            line = self._exchange(message)
        except (OSError, ValueError, ServiceError) as exc:
            # ValueError covers writes on a half-closed file object; a
            # connection dying mid-frame is a TransportError already.
            self._drop()
            if isinstance(exc, TransportError):
                raise
            raise TransportError(
                f"connection to daemon failed: {exc}") from exc
        if not line:
            self._drop()
            raise TransportError("daemon closed the connection")
        response = parse_response(line)
        fields = error_fields(response)
        if fields is not None and fields.code == "overloaded":
            raise OverloadedError(
                "daemon shed the request under load",
                retry_after=fields.retry_after)
        return response

    def _request(self, message: Mapping[str, object]) -> dict[str, object]:
        """Send one request; retry transient failures per the config.

        Every request is stamped with a ``trace_id``/``request_id``
        pair before the first attempt (caller-supplied ids win) — the
        daemon echoes them on the response and attaches them to its
        spans, journal entries and log lines, and retries resend the
        *same* ids, so an at-least-once duplicate is recognisable.

        Raises the final :class:`~repro.exceptions.RetryableError` once
        the budget is exhausted. Terminal errors (malformed request,
        unknown op, validation) come back as the daemon's structured
        ``{"ok": false, ...}`` payload without consuming any retries.
        """
        message = dict(message)
        message.setdefault(TRACE_ID_FIELD, new_trace_id())
        message.setdefault(REQUEST_ID_FIELD, new_request_id())
        attempt = 0
        while True:
            try:
                return self._request_once(message)
            except RetryableError as exc:
                if attempt >= self.config.retries:
                    raise
                delay = self._backoff_delay(attempt)
                if isinstance(exc, OverloadedError) \
                        and exc.retry_after is not None:
                    delay = max(delay, float(exc.retry_after))
                self._sleep(delay)
                attempt += 1

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------

    def place(self, vm: VM, *, explain: bool = False,
              trace_id: str | None = None) -> dict[str, object]:
        request = place_request(vm, explain=explain)
        if trace_id is not None:
            request[TRACE_ID_FIELD] = trace_id
        return self._request(request)

    def place_batch(self, vms: Iterable[VM], *,
                    trace_id: str | None = None) -> dict[str, object]:
        """Place a whole batch in one v2 round trip (``place_batch``)."""
        request = place_batch_request(vms)
        if trace_id is not None:
            request[TRACE_ID_FIELD] = trace_id
        return self._request(request)

    def tick(self, now: int) -> dict[str, object]:
        return self._request({"op": "tick", "now": now})

    def fail_server(self, server_id: int,
                    time: int | None = None) -> dict[str, object]:
        """Report a server failure (v2 ``fail_server``); the response
        carries the re-placement outcome."""
        return self._request(fail_server_request(server_id, time))

    def recover_server(self, server_id: int) -> dict[str, object]:
        """Bring a failed server back (v2 ``recover_server``)."""
        return self._request(recover_server_request(server_id))

    def consolidate(self, time: int | None = None) -> dict[str, object]:
        """Run one live consolidation episode (v2 ``consolidate``);
        the response carries the committed migrations and their yield."""
        return self._request(consolidate_request(time))

    def telemetry(self, last: int | None = None) -> dict[str, object]:
        """The daemon's fleet telemetry ring + SLO report (the
        ``telemetry`` op); ``last`` limits the sample count."""
        return self._request(telemetry_request(last))

    def slo(self) -> dict[str, object]:
        """The daemon's SLO report alone (objectives, burn rates,
        attainment) — the ``slo`` section of :meth:`telemetry`."""
        response = self._request(telemetry_request(1))
        if not response.get("ok"):
            raise ServiceError(
                f"telemetry request failed: {response.get('error')}")
        slo = response.get("slo")
        return dict(slo) if isinstance(slo, Mapping) else {}

    def dump_debug(self) -> dict[str, object]:
        """The daemon's flight recorder (v2 ``dump_debug``): the last
        N request/response tuples."""
        return self._request(dump_debug_request())

    def stats(self) -> dict[str, object]:
        return self._request({"op": "stats"})

    def metrics(self) -> str:
        """The daemon's Prometheus text exposition (``metrics`` op)."""
        response = self._request({"op": "metrics"})
        if not response.get("ok"):
            raise ServiceError(
                f"metrics request failed: {response.get('error')}")
        return str(response.get("text", ""))

    def ping(self) -> dict[str, object]:
        return self._request({"op": "ping"})

    def shutdown(self) -> dict[str, object]:
        return self._request({"op": "shutdown"})


@dataclass(frozen=True)
class ReplaySummary:
    """Aggregate outcome of streaming one workload at a daemon.

    ``mean_latency_ms`` is the daemon-side latency per *offered VM*
    whatever the request shape: a ``place`` reports its own, a
    ``place_batch`` round trip is shared by the VMs it carried.
    """

    offered: int
    placed: int
    rejected: int
    delayed: int
    energy_delta_total: float
    mean_latency_ms: float

    @property
    def rejection_rate(self) -> float:
        return self.rejected / self.offered if self.offered else 0.0


def replay_trace(client: AllocationClient, vms: Iterable[VM], *,
                 final_tick: bool = True,
                 batch: int | None = None) -> ReplaySummary:
    """Stream ``vms`` in online (start-time) order; returns the summary.

    With ``batch=N`` the workload is chunked into ``place_batch``
    requests of up to ``N`` VMs each (one v2 round trip per chunk,
    ``repro client --batch``); the default, ``None``, sends chunks of
    one as ``place``. Both yield identical placements — the daemon
    processes a batch in the same online order.

    Every per-VM outcome is lifted into a typed
    :class:`~repro.results.PlacementResult` before tallying, so the
    summary counts exactly what the result vocabulary defines
    (``deferred`` results count as placed *and* delayed).

    With ``final_tick`` the cluster clock is advanced past the last
    request's end afterwards, so the daemon retires everything and its
    telemetry covers the whole horizon.
    """
    if batch is not None and batch < 1:
        raise ServiceError(f"batch size must be >= 1, got {batch}")
    ordered = sorted(vms, key=lambda v: (v.start, v.end, v.vm_id))
    placed = rejected = delayed = 0
    energy = latency_total = 0.0
    size = batch or 1
    for offset in range(0, len(ordered), size):
        chunk = ordered[offset:offset + size]
        if batch is None:
            op, response = "place", client.place(chunk[0])
            items = [response]
        else:
            op, response = "place_batch", client.place_batch(chunk)
            items = response.get("decisions", [])
        if not response.get("ok"):
            raise ServiceError(
                f"daemon rejected the {op} request for vm{chunk[0].vm_id} "
                f"(offset {offset}): {response.get('error')}")
        latency_total += float(response.get("latency_ms", 0.0))
        for item in items:
            result = PlacementResult.from_response(item)
            if result.placed:
                placed += 1
                energy += result.energy_delta
                delayed += bool(result.delay)
            else:
                rejected += 1
    if final_tick and ordered:
        client.tick(max(0, *(vm.end for vm in ordered)) + 1)
    return ReplaySummary(
        offered=len(ordered), placed=placed, rejected=rejected,
        delayed=delayed, energy_delta_total=energy,
        mean_latency_ms=latency_total / len(ordered) if ordered else 0.0)
