"""The allocation daemon: streaming placement against live state.

An :class:`AllocationDaemon` owns a
:class:`~repro.service.state.ClusterStateStore` and routes each incoming
``place`` request through a registered allocator
(:func:`repro.allocators.registry.make_allocator`) under the admission
envelope of :func:`repro.simulation.admission.offer` — reject on
capacity exhaustion, or queue (shift the request later) up to
``max_delay`` ticks. Requests processed in start-time order produce the
exact placements — and therefore the exact analytic energy — of the
equivalent offline :func:`~repro.simulation.engine.simulate_online`
run; the end-to-end test asserts this bit-for-bit, across a mid-stream
kill and restore.

Durability: with a ``data_dir`` the daemon journals every mutating
request before answering and checkpoints the store every
``snapshot_every`` placements (see :mod:`repro.service.persistence`).
:meth:`AllocationDaemon.restore` rebuilds the identical daemon from the
newest snapshot plus the journal tail.

This module is the service core and opens no socket: the network
fronts are :func:`repro.service.tcp.serve_socket` (JSON lines and v3
frames on one port) and :func:`repro.service.gateway.start_gateway`
(HTTP), and :func:`serve_stdio` adapts a pair of text streams. Every
front ends in :meth:`AllocationDaemon.handle`, which runs each request
through :func:`repro.service.protocol.validate_request` exactly once
and keeps one :class:`~repro.obs.flight.FlightRecord` of it.

Consolidation: with ``consolidate_every`` and/or ``frag_threshold``
set, the daemon runs a background defragmentation pass at epoch
boundaries (every N ticks) or whenever the
:class:`~repro.consolidation.fragmentation.FragmentationMonitor`
reading crosses the threshold — at most one episode per tick — and
clients can force one with the protocol-v2 ``consolidate`` op. Each
episode runs the shared
:class:`~repro.consolidation.planner.MigrationPlanner` and is
journaled as **one atomic group** (like failure episodes), so
kill+restore mid-consolidation reproduces exact state.

Concurrency model
-----------------
Mutating operations, snapshots and shutdown serialize on one *commit
lock* (the op classes are :attr:`AllocationDaemon._OPS`): decisions
observe each other's commits in wire arrival order, and a scan and its
commit share one hold of the lock, so a probe never observes a
half-applied placement. Read-only operations take no lock —
:class:`ServiceMetrics` is thread-safe and the store's gauges are
single reads — so scrapes never queue behind placements. Ingest is
*bounded*: beyond ``max_inflight`` mutating requests in flight (one
counter under one lock) the daemon answers ``{"ok": false, "error":
"overloaded", "retry_after": ...}`` instead of piling up threads.
"""

from __future__ import annotations

import inspect
import threading
from pathlib import Path
from time import monotonic, perf_counter
from typing import IO, Callable, Mapping, Sequence

from repro.allocators.registry import make_allocator
from repro.consolidation.fragmentation import FragmentationMonitor
from repro.consolidation.planner import MigrationPlanner
from repro.exceptions import (
    OverloadedError,
    ProtocolVersionError,
    ReproError,
    ServiceError,
    UnavailableError,
    UnknownOperationError,
    ValidationError,
)
from repro.model.vm import VM
from repro.obs.context import TraceContext, trace_context_of
from repro.obs.explain import ExplainRecorder
from repro.obs.flight import FlightRecord, FlightRecorder
from repro.obs.logging import get_logger
from repro.obs.slo import SLOConfig, SLOTracker
from repro.obs.telemetry import DEFAULT_CAPACITY, TelemetryRing, \
    TelemetrySample
from repro.obs.tracer import get_tracer
from repro.placement.config import EngineConfig
from repro.service.errors import attach_error, envelope_of_exception
from repro.service.metrics import ServiceMetrics
from repro.service.persistence import (
    RequestJournal,
    SnapshotManager,
    read_journal,
)
from repro.service.protocol import (
    Request,
    echo_envelope,
    encode,
    parse_request,
    requested_version,
    validate_request,
)
from repro.service.state import ClusterStateStore, snapshot_meta
from repro.simulation.admission import offer
from repro.workload.trace import vm_to_record

__all__ = ["AllocationDaemon", "serve_stdio"]

JOURNAL_NAME = "journal.jsonl"


class AllocationDaemon:
    """Serves a stream of placement requests against live cluster state.

    Parameters
    ----------
    store:
        The live cluster state to allocate into.
    algorithm / seed:
        Registry name and seed of the placement algorithm.
    algo_params:
        Extra keyword parameters forwarded to the allocator constructor
        (``repro serve --algo-param k=v``), over ``seed`` and the store's
        ``policy`` and engine; persisted in snapshot metadata so
        :meth:`restore` rebuilds the same allocator, whose active Γ
        must be the store's (else ``ValidationError``).
    max_delay:
        Admission behaviour when nothing fits: ``0`` rejects outright,
        ``k > 0`` queues the request up to ``k`` ticks later (the first
        shifted start that fits wins).
    data_dir:
        Directory for the request journal and snapshots; ``None`` runs
        the daemon without durability.
    snapshot_every:
        Checkpoint the store after this many placements (0 disables
        periodic snapshots; a final one is still written on shutdown).
    fsync:
        Whether the journal fsyncs each entry (disable only in tests).
    max_inflight:
        Bounded ingest: at most this many mutating requests in flight
        before the daemon answers ``overloaded`` with a ``retry_after``
        hint. ``0`` disables the bound.
    consolidate_every:
        Run a consolidation episode at every Nth tick boundary
        (``repro serve --consolidate-epoch``); ``0`` disables the
        epoch trigger.
    frag_threshold:
        Run a consolidation episode whenever the fleet's fragmentation
        reading reaches this value in ``(0, 1]`` (``repro serve
        --frag-threshold``); ``None`` disables the threshold trigger.
        Both triggers fire at most one episode per tick; the
        ``consolidate`` op forces one regardless.
    migration_cost_per_gb:
        Per-move migration energy charged per GByte of VM memory by the
        episode planner.
    migration_k:
        When set, each migrating remainder is bid to at most this many
        feasible targets (the planner's k-sampling queue) — bounds
        episode latency on large fleets.
    slo:
        The latency/availability objectives this daemon is held to
        (:class:`~repro.obs.slo.SLOConfig`; default objectives when
        ``None``). Burn rates are exported as ``repro_slo_*`` metrics
        and served by the ``telemetry`` op / ``repro slo``.
    telemetry_capacity:
        Tick capacity of the fleet telemetry ring (one sample per
        cluster tick, newest kept; 0 disables sampling).
    flight_capacity:
        How many request records the flight recorder keeps (served by
        ``dump_debug``, dumped on unhandled errors; 0 disables it).
    """

    def __init__(self, store: ClusterStateStore, *,
                 algorithm: str = "min-energy", seed: int | None = None,
                 algo_params: Mapping[str, object] | None = None,
                 max_delay: int = 0, data_dir: str | Path | None = None,
                 snapshot_every: int = 100, fsync: bool = True,
                 max_inflight: int = 64,
                 consolidate_every: int = 0,
                 frag_threshold: float | None = None,
                 migration_cost_per_gb: float = 5.0,
                 migration_k: int | None = None,
                 slo: SLOConfig | None = None,
                 telemetry_capacity: int = DEFAULT_CAPACITY,
                 flight_capacity: int = 256,
                 _restored_seq: int | None = None) -> None:
        for name, value in (("max_delay", max_delay),
                            ("snapshot_every", snapshot_every),
                            ("max_inflight", max_inflight),
                            ("consolidate_every", consolidate_every)):
            if value < 0:
                raise ValidationError(f"{name} must be >= 0, got {value}")
        if frag_threshold is not None and \
                not 0.0 < float(frag_threshold) <= 1.0:
            raise ValidationError(
                f"frag_threshold must be in (0, 1], got {frag_threshold}")
        self.store = store
        algo_params = dict(algo_params or {})
        # The journaled config must be JSON: the engine is stored as
        # its canonical spec string (make_allocator parses it back), so
        # restores rebuild the same engine and robustness budget.
        if algo_params.get("engine") is not None:
            algo_params["engine"] = EngineConfig.coerce(
                algo_params["engine"], warn=False).spec
        self.config = {"algorithm": algorithm, "seed": seed,
                       "algo_params": algo_params,
                       "max_delay": max_delay,
                       "snapshot_every": snapshot_every,
                       "max_inflight": max_inflight,
                       "consolidate_every": consolidate_every,
                       "frag_threshold": None if frag_threshold is None
                       else float(frag_threshold),
                       "migration_cost_per_gb": float(migration_cost_per_gb),
                       "migration_k": migration_k,
                       "slo": None if slo is None else slo.to_record(),
                       "telemetry_capacity": telemetry_capacity,
                       "flight_capacity": flight_capacity}
        self.slo = SLOTracker(slo)
        self.telemetry = TelemetryRing(telemetry_capacity)
        self.flight = FlightRecorder(flight_capacity)
        self._last_sampled_tick = -1
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        self.planner = MigrationPlanner(float(migration_cost_per_gb),
                                        k_sample=migration_k)
        self.monitor = FragmentationMonitor()
        self._last_consolidated_tick = 0
        # Explicit --algo-param values win over the daemon-level defaults.
        params: dict[str, object] = {"seed": seed, "policy": store.policy,
                                     "engine": store.engine_config,
                                     **algo_params}
        self.allocator = make_allocator(algorithm, **params)
        mine, books = self.allocator.engine_config, store.engine_config
        if mine.active_robustness != books.active_robustness:
            raise ValidationError(
                f"allocator {algorithm!r} probes with engine {mine.spec!r} "
                f"but the store books with {books.spec!r}; their "
                f"Γ-robustness must agree")
        self.metrics = ServiceMetrics()
        self.metrics.register_algorithm(algorithm)
        from repro import __version__  # deferred: repro imports service
        self.metrics.set_build_info(version=__version__,
                                    algorithm=algorithm,
                                    engine=store.engine_config.spec)
        # The allocator scans only non-failed servers (a restored
        # snapshot may already carry dead ones), so build the list
        # through the same path fail/recover events use.
        self._rebuild_fleet()
        self.closed = False
        #: Serializes placement decisions and state mutation; read-only
        #: ops (stats/metrics/ping) never take it.
        self._commit_lock = threading.Lock()
        self._placed_since_snapshot = 0
        self._shutdown_hooks: list = []
        self._data_dir = None if data_dir is None else Path(data_dir)
        self.journal: RequestJournal | None = None
        self.snapshots: SnapshotManager | None = None
        if self._data_dir is not None:
            self.snapshots = SnapshotManager(self._data_dir)
            self.journal = RequestJournal(self._data_dir / JOURNAL_NAME,
                                          fsync=fsync)
            if _restored_seq is None:
                if self.journal.next_seq > 1:
                    raise ValidationError(
                        f"{data_dir} already holds a journal; use "
                        f"AllocationDaemon.restore() to resume it")
                # Seed the journal with the starting state so a crash
                # before the first snapshot is still recoverable.
                self.journal.append({
                    "op": "init",
                    "snapshot": store.to_snapshot(self._meta(seq=1)),
                })
        #: False while a restore is still replaying the journal tail
        #: (see :meth:`restore`): the gateway's ``/healthz`` and
        #: ``/readyz`` answer 503, ``/varz`` shows it, and every op
        #: that is not read-only is refused as ``unavailable``.
        self.ready = True
        self._sample_telemetry()

    def _rebuild_fleet(self) -> None:
        """(Re)build the scan list over the *live* servers — after a
        failure, a recovery or a consolidation swapped the state objects
        — and re-prepare the allocator on it. List positions are scan
        positions, not server ids, once a server is dead."""
        self._live = self.store.live_states()
        self.allocator.prepare(self._live)

    # -- durability --------------------------------------------------------

    def _meta(self, seq: int) -> dict[str, object]:
        return {"seq": seq, "config": dict(self.config),
                "counters": self.metrics.to_meta(),
                "last_consolidated_tick": self._last_consolidated_tick}

    def _last_seq(self) -> int:
        return self.journal.next_seq - 1 if self.journal else 0

    def write_snapshot(self) -> Path | None:
        """Checkpoint the store now; returns the snapshot path."""
        self._placed_since_snapshot = 0
        if self.snapshots is None:
            return None
        seq = self._last_seq()
        return self.snapshots.save(self.store.snapshot_parts(self._meta(seq)),
                                   seq)

    def _maybe_snapshot(self, placed: int) -> None:
        """Count ``placed`` commits (placements, re-placements, moves)
        toward the next checkpoint and write it once it is due."""
        self._placed_since_snapshot += placed
        every = int(self.config["snapshot_every"])
        if every > 0 and self._placed_since_snapshot >= every:
            self.write_snapshot()

    def _journal(self, op: str, ctx: TraceContext, **payload: object) -> None:
        """Append one mutation — the one writer of the entries
        :meth:`ClusterStateStore.apply` reads; no-op without a journal."""
        if self.journal is not None:
            with get_tracer().span("service.journal"):
                self.journal.append({"op": op, **ctx.to_fields(), **payload})

    @classmethod
    def restore(cls, data_dir: str | Path, *, fsync: bool = True,
                on_built: Callable[["AllocationDaemon"], None]
                | None = None) -> "AllocationDaemon":
        """Rebuild a daemon from ``data_dir``'s snapshot + journal tail.

        The snapshot loads as written (format 4; older formats replay
        their commit log), and journalled placements apply the recorded
        decision directly (no allocator re-run), so the restored state
        is identical even when the original decisions came from a
        randomized allocator; then the allocator hears of the last one
        made since the fleet last changed (``Allocator.replayed``:
        round robin resumes its rotation —
        random fit's and FFPS's draws are not replayed, see
        ``docs/service.md``). Replay logs the *recorded* trace ids,
        never fresh ones.

        ``on_built`` gets the daemon before the tail replays, while
        :attr:`ready` is still False — the CLI brings the gateway up
        there, so probes report not-ready and mutations are refused.
        """
        data_dir = Path(data_dir)
        document = SnapshotManager(data_dir).load_latest()
        entries = list(read_journal(data_dir / JOURNAL_NAME))
        if document is None:
            init = next((e for e in entries if e.get("op") == "init"), None)
            if init is None:
                raise ValidationError(
                    f"{data_dir}: no snapshot and no journal init entry; "
                    f"nothing to restore")
            document = init["snapshot"]
        meta = snapshot_meta(document)
        config = meta.get("config", {})
        if not isinstance(config, Mapping):
            raise ValidationError(f"{data_dir}: malformed snapshot config")
        store = ClusterStateStore.from_snapshot(document)
        covered = int(meta.get("seq", 0))
        for key in ("algo_params", "slo"):
            if config.get(key) is not None and \
                    not isinstance(config[key], Mapping):
                raise ValidationError(f"{data_dir}: malformed snapshot {key}")
        slo_record = config.get("slo")
        # Recorded keys the constructor takes are passed as recorded,
        # its signature supplies the ones a record lacks, and the rest
        # (``shards`` / ``scan_processes`` of older builds) are ignored.
        accepted = inspect.signature(cls).parameters
        daemon = cls(**{
            **{key: value for key, value in config.items()
               if key in accepted},
            "store": store, "data_dir": data_dir, "fsync": fsync,
            "_restored_seq": covered,
            "slo": None if slo_record is None
            else SLOConfig.from_record(slo_record)})
        counters = meta.get("counters")
        if isinstance(counters, Mapping):
            daemon.metrics.restore_meta(counters)
        # The trigger watermark rides in the meta (a snapshot taken
        # right after an episode leaves no consolidate entry to replay),
        # so a restored daemon never re-fires at an already-done tick.
        daemon._last_consolidated_tick = int(
            meta.get("last_consolidated_tick", 0))
        daemon.ready = False
        if on_built is not None:
            on_built(daemon)
        for entry in entries:
            if int(entry["seq"]) > covered:
                daemon._replay(entry)
        # Replay selected nothing: hand the allocator the last decision
        # made on today's fleet, as a daemon that never stopped saw it.
        for vm, server_id in store.commits_since_fleet_change():
            daemon.allocator.replayed(vm, store.states[server_id])
        daemon.ready = True
        daemon._sample_telemetry()
        return daemon

    def _replay(self, entry: Mapping[str, object]) -> None:
        op = entry.get("op")
        logger = get_logger()
        if logger.enabled:
            # Replay logs carry the *recorded* trace ids verbatim — a
            # restored daemon's log tells the original run's story.
            logger.info("service.replay", op=str(op), seq=entry.get("seq"),
                        **{key: entry[key] for key in ("trace_id",
                           "request_id") if key in entry})
        # Recorded decisions are applied verbatim, one atomic group per
        # batch/failure/episode; what comes back is what it counts for.
        applied = self.store.apply(entry)
        if op == "fail_server":
            self._count_failure(applied)
        elif op == "consolidate":
            self._count_consolidation(applied)
        elif applied:
            placed = sum(decision == "placed" for decision, _ in applied)
            self.metrics.observe_request(
                placed=placed, rejected=len(applied) - placed,
                delayed=sum(bool(delay) for _, delay in applied),
                algorithm=str(self.config["algorithm"]))
        # Failure, recovery and an episode that moved something swap
        # the state objects the allocator may scan.
        if op in ("fail_server", "recover_server") or \
                (op == "consolidate" and applied.moves):
            self._rebuild_fleet()

    def _count_failure(self, report) -> None:
        """One failure episode's counters, live or replayed."""
        self.metrics.count(failures=1, replacements=report.replaced,
                           vms_lost=len(report.lost))

    def _count_consolidation(self, report,
                             duration: float | None = None) -> None:
        """One episode's counters and trigger watermark, live or replayed."""
        self._last_consolidated_tick = report.time
        self.metrics.observe_consolidation(
            moves=report.migrations, servers_freed=report.servers_freed,
            energy_saved=report.energy_saved, duration_seconds=duration)

    # -- request handling --------------------------------------------------

    def handle_line(self, line: str) -> str:
        """Serve one raw protocol line; always returns a response line.

        The request's :class:`~repro.obs.flight.FlightRecord` is made
        here, stamped read, decoded and encoded; :meth:`handle` fills
        the rest. An unreadable line is refused and recorded nowhere."""
        record = FlightRecord(perf_counter())
        tracer = get_tracer()
        try:
            message = parse_request(line)
        except ServiceError as exc:
            text = self.refuse(exc, requested_version(line))
            if tracer.enabled:
                tracer.finished_span("service.ingest", record.read,
                                     perf_counter())
            return text
        record.decoded = perf_counter()
        text = encode(self.handle(message, record))
        record.encoded = perf_counter()
        if tracer.enabled:
            tracer.finished_span("service.ingest", record.read,
                                 record.decoded)
            tracer.finished_span("service.respond", record.answered,
                                 record.encoded)
        return text

    def refuse(self, error: ServiceError, version: int) -> str:
        """The answer to a request that could not be read at all — an
        invalid line, a bad frame header or an over-long line — in the
        shape ``version`` reads."""
        return encode(self._failure(error, version))

    def _failure(self, error: ReproError, version: int,
                 **head: object) -> dict[str, object]:
        """Count one failed request and assemble its response: the
        typed envelope, projected onto the shape ``version`` reads,
        plus what this daemon *does* speak when the request named a
        version or an op it does not."""
        if isinstance(error, OverloadedError):
            self.metrics.count(overloaded=1)
        else:
            self.metrics.count(errors=1)
        response = attach_error({"ok": False, **head},
                                envelope_of_exception(error), version)
        if isinstance(error, ProtocolVersionError):
            response["supported_versions"] = list(error.supported)
        if isinstance(error, UnknownOperationError):
            response["supported_ops"] = list(error.supported)
        return response

    def handle(self, message: Mapping[str, object],
               record: FlightRecord | None = None) -> dict[str, object]:
        """Serve one request; never raises on domain errors.

        ``record`` is the one :meth:`handle_line` made; an in-process
        message gets its own. A message that did not come out of
        ``parse_request`` is validated here, so every front is held to
        the same field rules. A request whose version or ids cannot be
        read is only answered; any other is served, and its record is
        what the flight ring keeps, the SLO tracker samples, the log
        line says and the wrapper spans are booked from. Id-less
        requests are still correlated internally with minted ids.
        """
        if record is None:
            record = FlightRecord(perf_counter())
        request, refusal = message, None
        if isinstance(message, Request):
            op, version = message["op"], message.version
        else:
            op = message.get("op")
            try:
                request = validate_request(message)
                version = request.version
            except ReproError as exc:
                refusal, version = exc, requested_version(message)
        record.version = version
        try:
            if isinstance(refusal, ProtocolVersionError):
                raise refusal
            record.ctx = ctx = trace_context_of(message)
        except ServiceError as exc:
            response = self._failure(exc, version, op=op)
            record.answered = perf_counter()
            return response
        record.op, record.raw_request = str(op), message
        try:
            if refusal is not None:
                raise refusal
            response = self._run(request, record)
        except ReproError as exc:
            response = self._failure(exc, version, op=op)
            record.error = str(exc)
        except Exception as exc:
            # An unhandled error is a daemon bug: preserve the raise,
            # but first capture the black box for the post-mortem.
            self._dump_on_error(exc, record)
            raise
        record.answered = perf_counter()
        record.ok = ok = bool(response["ok"])
        record.raw_response = response = echo_envelope(message, response,
                                                       ctx)
        self.slo.observe(record.answered - record.decoded, ok=ok)
        self.flight.record(record)
        logger = get_logger()
        if logger.enabled:
            fields: dict[str, object] = {
                "op": record.op, **ctx.to_fields(),
                "latency_ms": record.latency_ms}
            if record.decision is not None:
                fields["decision"] = record.decision
            if ok:
                logger.info("service.request", **fields)
            else:
                logger.error("service.request", error=record.error,
                             **fields)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.finished_span("service.request", record.decoded,
                                 record.answered, op=record.op,
                                 **ctx.to_fields(), ok=ok)
            spanned = self._OP_SPANS.get(record.op)
            if spanned is not None and ok:
                tracer.finished_span(f"service.{record.op}", record.locked,
                                     record.journaled, **spanned(response))
        return response

    #: ``op -> its span's attributes, read from its response``: the span
    #: runs from the commit lock to the durable point, inside
    #: ``service.request``. ``tick`` has none; a ``consolidate`` episode
    #: books its own, as a background one does.
    _OP_SPANS = {
        "place": lambda r: {"vm_id": r["vm_id"], "decision": r["decision"]},
        "place_batch": lambda r: {"batch": r["count"], "placed": r["placed"]},
        "fail_server": lambda r: {
            "server_id": r["server_id"], "time": r["time"],
            "killed": r["killed"], "replaced": r["replaced"],
            "lost": len(r["lost"])},
        "recover_server": lambda r: {"server_id": r["server_id"]},
    }

    def _run(self, request: Request,
             record: FlightRecord) -> dict[str, object]:
        """Apply the readiness gate and the ingest bound, take the
        lock the op's class needs (see :attr:`_OPS`), stamp the record
        ``locked`` and dispatch."""
        handler, kind = self._OPS[request["op"]]
        if kind == "read":
            if not self.closed:
                return handler(self, request, record)
        elif not self.ready:
            raise UnavailableError("daemon is restoring")
        mutating = kind == "mutating"
        if mutating:
            with self._inflight_lock:
                if 0 < self.config["max_inflight"] <= self._inflight:
                    raise OverloadedError("overloaded",
                                          retry_after=self._retry_after())
                self._inflight += 1
        try:
            with self._commit_lock:
                record.locked = perf_counter()
                if self.closed:
                    raise UnavailableError("daemon is shut down")
                response = handler(self, request, record)
                if mutating:
                    self._sample_telemetry()
                return response
        finally:
            if mutating:
                with self._inflight_lock:
                    self._inflight -= 1

    def _dump_on_error(self, exc: BaseException,
                       record: FlightRecord) -> None:
        """Dump the flight recorder on an unhandled error (best effort)."""
        logger, ctx = get_logger(), record.ctx
        if logger.enabled:
            logger.error("service.unhandled_error", op=record.op,
                         **ctx.to_fields(),
                         exception=f"{type(exc).__name__}: {exc}")
        if self._data_dir is None or not self.flight.enabled:
            return
        try:
            self.flight.dump_to(
                self._data_dir / f"flight-dump-{ctx.trace_id}.json",
                reason=f"unhandled {type(exc).__name__} in op "
                       f"{record.op!r}")
        except OSError:  # pragma: no cover - best-effort black box
            pass

    def _retry_after(self) -> float:
        """A resend hint under overload: the observed median decision
        latency scaled by the inflight window, clamped to a sane range."""
        p50 = self.metrics.latency.quantile(0.5) or 0.001
        window = int(self.config["max_inflight"]) or 1
        return round(min(5.0, max(0.01, p50 * window)), 4)

    def _handle_metrics(self, *_: object) -> dict[str, object]:
        return {"ok": True, "op": "metrics", "text": self.render_metrics()}

    def _handle_dump_debug(self, *_: object) -> dict[str, object]:
        return {"ok": True, "op": "dump_debug", "count": len(self.flight),
                "capacity": self.flight.capacity,
                "records": self.flight.dump()}

    def _handle_snapshot(self, *_: object) -> dict[str, object]:
        path = self.write_snapshot()
        if path is None:
            raise ServiceError(
                "daemon runs without a data_dir; nothing to snapshot")
        return {"ok": True, "op": "snapshot", "path": str(path)}

    def _handle_ping(self, *_: object) -> dict[str, object]:
        return {"ok": True, "op": "ping", "clock": self.store.clock}

    def _handle_telemetry(self, request: Request,
                          record: FlightRecord) -> dict[str, object]:
        return {"ok": True, "op": "telemetry",
                "clock": self.store.clock,
                "enabled": self.telemetry.enabled,
                "capacity": self.telemetry.capacity,
                "samples": self.telemetry.to_records(request.get("last")),
                "slo": self.slo.report()}

    def _sample_telemetry(self) -> None:
        """Record one fleet sample when the cluster tick has moved: on
        the commit path a request pays one integer compare, and the
        full sample (fragmentation scan included) runs once per tick."""
        store, clock = self.store, self.store.clock
        if clock == self._last_sampled_tick or not self.telemetry.capacity:
            return
        self._last_sampled_tick = clock
        fleet = store.fleet  # O(1) incrementally-maintained totals
        self.telemetry.record(TelemetrySample(
            tick=clock,
            servers_active=fleet.active,
            servers_asleep=fleet.asleep,
            servers_failed=store.servers_failed(),
            running_vms=fleet.running_vms,
            fleet_power=fleet.power,
            energy_accumulated=store.energy_accumulated,
            fragmentation=self.monitor.reading(store).fragmentation,
            inflight=self._inflight,
            pending=self.metrics.delayed,
            placed=self.metrics.requests["placed"],
            rejected=self.metrics.requests["rejected"]))

    def _decide(self, vms: Sequence[VM], record: FlightRecord,
                recorder: ExplainRecorder | None = None) -> tuple:
        """The one decision loop — ``place`` is a batch of one: each VM, in the
        paper's online order (start, end, id), advances the clock, runs the
        admission scan (``recorder`` explains it) and commits at the scan's
        ``chosen_cost``. Returns the response items in request order, the
        placed count, their deltas summed in decision order and the journal
        records (``None`` without a journal). One ``observe_request`` counts
        the decisions; its samples' clock reads also book the stage spans and
        stamp ``record.decided``."""
        store, allocator, live = self.store, self.allocator, self._live
        max_delay = int(self.config["max_delay"])
        algorithm = str(self.config["algorithm"])
        tracer = get_tracer()
        book = tracer.finished_span if tracer.enabled else None
        n = len(vms)
        order = range(n) if n < 2 else sorted(
            range(n), key=lambda i: (vms[i].start, vms[i].end, vms[i].vm_id))
        items: list = [None] * n
        entries = [] if self.journal is not None else None
        energy_delta, placed, delayed = 0.0, 0, 0
        latencies, candidates, scans = [], [], []
        ended = record.locked   # each decision starts where the last ended
        try:
            for i in order:
                vm = vms[i]
                started = scanning = ended
                if vm.start > store.clock:
                    store.advance_to(vm.start)
                    scanning = perf_counter()
                    if book:
                        book("service.advance", started, scanning, to=vm.start)
                decision = offer(vm, live, allocator, max_delay=max_delay,
                                 recorder=recorder)
                ended = perf_counter()
                scans.append(ended - scanning)
                if book:
                    book("service.allocate", scanning, ended,
                         algorithm=algorithm)
                if decision is None:
                    outcome: dict[str, object] = {"decision": "rejected"}
                    items[i] = {"vm_id": vm.vm_id, **outcome}
                else:
                    server_id = decision.state.server.server_id
                    delta = store.commit(decision.vm, server_id,
                                         allocator.chosen_cost)
                    scanned, ended = ended, perf_counter()
                    if book:
                        book("service.commit", scanned, ended,
                             server_id=server_id)
                    outcome = {"decision": "placed", "server_id": server_id,
                               "delay": decision.delay}
                    items[i] = {"vm_id": vm.vm_id, **outcome,
                                "energy_delta": delta}
                    energy_delta += delta
                    placed += 1
                    delayed += bool(decision.delay)
                latencies.append(ended - started)
                candidates.append(allocator.candidates_feasible)
                if entries is not None:
                    entries.append({"vm": vm_to_record(vm), **outcome})
        finally:    # a raising commit keeps the decided VMs' samples
            self.metrics.observe_request(
                placed=placed, rejected=len(latencies) - placed,
                delayed=delayed, algorithm=algorithm, latencies=latencies,
                candidates=candidates, scans=scans)
        record.decided = ended
        return items, placed, energy_delta, entries

    def _handle_place(self, request: Request,
                      record: FlightRecord) -> dict[str, object]:
        recorder = ExplainRecorder() if request.get("explain") else None
        (item,), placed, _, entries = self._decide([request["_vm"]], record,
                                                   recorder)
        if entries:
            self._journal("place", record.ctx, **entries[0])
        self._maybe_snapshot(placed)
        record.decision = item["decision"]
        response = {"ok": True, "op": "place", **item,
                    "latency_ms": record.durable()}
        if recorder is not None and recorder.last is not None:
            response["explanation"] = recorder.last.to_record()
        self._maybe_consolidate()
        return response

    def _handle_place_batch(self, request: Request,
                            record: FlightRecord) -> dict[str, object]:
        vms = request["_vms"]
        # A duplicate vm_id (in the batch or already placed) would fail
        # mid-batch and tear the journal group: refuse it up front.
        seen: set[int] = set()
        for vm in vms:
            if vm.vm_id in seen:
                raise ServiceError(
                    f"place_batch carries vm_id {vm.vm_id} twice")
            seen.add(vm.vm_id)
            if self.store.is_placed(vm.vm_id):
                raise ServiceError(f"vm_id {vm.vm_id} is already placed")
        self.metrics.batch_size.observe(len(vms))
        decisions, placed, energy_delta, entries = self._decide(vms, record)
        for item in decisions:  # a batch spells a rejection out
            if item["decision"] == "rejected":
                item.update(server_id=None, delay=0, energy_delta=0.0)
        if entries:
            # The trace ids ride the group header — one id for the
            # whole batch episode, replayed verbatim on restore.
            self._journal("place_batch", record.ctx, decisions=entries)
        self._maybe_snapshot(placed)
        response = {"ok": True, "op": "place_batch", "count": len(vms),
                    "placed": placed, "rejected": len(vms) - placed,
                    "decisions": decisions, "energy_delta": energy_delta,
                    "latency_ms": record.durable()}
        self._maybe_consolidate()
        return response

    def _handle_tick(self, request: Request,
                     record: FlightRecord) -> dict[str, object]:
        now = request["now"]
        if now > self.store.clock:
            self.store.advance_to(now)
            self._journal("tick", record.ctx, now=now)
            self._maybe_consolidate()
        return {"ok": True, "op": "tick", "clock": self.store.clock,
                "servers_active": self.store.servers_active(),
                "running_vms": self.store.running_vms()}

    def _handle_fail_server(self, request: Request,
                            record: FlightRecord) -> dict[str, object]:
        server_id = request["server_id"]
        # Default: the failure is observed now. Clock 0 (nothing placed
        # yet) rounds up to the first real tick.
        time = request.get("time", max(self.store.clock, 1))
        report = self.store.fail_server(server_id, time,
                                        recovery=self.allocator)
        self._rebuild_fleet()
        # One atomic journal group per failure: the episode's every
        # re-placement restores together or not at all.
        self._journal("fail_server", record.ctx, server_id=server_id,
                      time=report.time, replacements=report.records)
        self._count_failure(report)
        self._maybe_snapshot(report.replaced)
        return {
            "ok": True, "op": "fail_server", "server_id": server_id,
            "time": report.time, "killed": report.killed,
            "replaced": report.replaced,
            "lost": [vm.vm_id for vm in report.lost],
            "victim_delta": report.victim_delta,
            "energy_delta": report.energy_delta,
            "replacements": [
                {"vm_id": r.vm.vm_id,
                 "head_id": getattr(r.head, "vm_id", None),
                 "remainder_id": r.remainder.vm_id,
                 "server_id": r.server_id, "energy_delta": r.energy_delta}
                for r in report.replacements],
            "latency_ms": record.durable(),
        }

    # -- consolidation -----------------------------------------------------

    def _run_consolidation(self, time: int, ctx: TraceContext):
        """One consolidation episode at tick ``time``: plan against the
        store, journal the moves as one atomic group, refresh the fleet
        and the metrics. Returns the episode's report."""
        started = perf_counter()
        with get_tracer().span("service.consolidate", time=time,
                               trace_id=ctx.trace_id) as span:
            report = self.store.consolidate(time, planner=self.planner)
            if report.moves:
                # Drained sources were swapped for their live copies;
                # the fleet must scan the new objects.
                self._rebuild_fleet()
            span.set(migrations=report.migrations,
                     servers_freed=report.servers_freed,
                     residents=sum(len(s.vms) for s in self.store.states),
                     placements=self.store.placement_count())
            # One atomic group per episode: its moves restore together
            # or not at all. A zero-move episode is journaled too — an
            # on-demand one may still have advanced the clock.
            self._journal("consolidate", ctx, time=report.time,
                          moves=report.records)
            self._count_consolidation(report, perf_counter() - started)
            self._maybe_snapshot(report.migrations)
        return report

    def _maybe_consolidate(self) -> None:
        """Fire the background consolidation pass when a trigger is due
        — at most one episode per tick, however many triggers match."""
        clock = self.store.clock
        if clock < 1 or clock == self._last_consolidated_tick:
            return
        every = int(self.config["consolidate_every"])
        threshold = self.config["frag_threshold"]
        if (every > 0 and
                clock // every > self._last_consolidated_tick // every) or (
                threshold is not None and float(threshold) <=
                self.monitor.reading(self.store).fragmentation):
            # A background episode is its own logical operation: it
            # gets a fresh trace context of its own.
            self._run_consolidation(clock, TraceContext.new())

    def _handle_consolidate(self, request: Request,
                            record: FlightRecord) -> dict[str, object]:
        # Default: consolidate now. Clock 0 (nothing placed yet) rounds
        # up to the first real tick.
        time = request.get("time", max(self.store.clock, 1))
        report = self._run_consolidation(time, record.ctx)
        return {
            "ok": True, "op": "consolidate", "time": report.time,
            "migrations": report.migrations,
            "servers_freed": report.servers_freed,
            "energy_saved": report.energy_saved,
            "migration_energy": report.migration_energy,
            "moves": [
                {"vm_id": m.vm.vm_id, "head_id": m.head.vm_id,
                 "remainder_id": m.remainder.vm_id, "source_id": m.source_id,
                 "target_id": m.target_id, "saving": m.saving, "cost": m.cost}
                for m in report.moves],
            "latency_ms": record.durable(),
        }

    def _handle_recover_server(self, request: Request,
                               record: FlightRecord) -> dict[str, object]:
        server_id = request["server_id"]
        self.store.recover_server(server_id)
        self._rebuild_fleet()
        self._journal("recover_server", record.ctx, server_id=server_id)
        record.durable()
        return {"ok": True, "op": "recover_server",
                "server_id": server_id, "clock": self.store.clock,
                "servers_failed": self.store.servers_failed()}

    def _handle_stats(self, *_: object) -> dict[str, object]:
        return {
            "ok": True, "op": "stats",
            "clock": self.store.clock,
            "placed": self.metrics.requests["placed"],
            "rejected": self.metrics.requests["rejected"],
            "delayed": self.metrics.delayed,
            "errors": self.metrics.errors,
            "servers_active": self.store.servers_active(),
            "servers_asleep": self.store.servers_asleep(),
            "servers_failed": self.store.servers_failed(),
            "running_vms": self.store.running_vms(),
            "fleet_power": self.store.fleet_power(),
            "energy_accumulated": self.store.energy_accumulated,
            "energy_total": self.store.energy_total(),
            "migration_energy": self.store.migration_energy,
            "migrations": self.metrics.migrations,
        }

    def _handle_shutdown(self, *_: object) -> dict[str, object]:
        self.write_snapshot()
        if self.journal is not None:
            self.journal.close()
        self.closed = True
        for hook in self._shutdown_hooks:
            hook()
        return {"ok": True, "op": "shutdown", "clock": self.store.clock}

    #: The op table: ``op -> (handler, class)``. ``"mutating"`` ops count
    #: against the ingest window, take the commit lock and feed the
    #: telemetry ring; ``"control"`` ops take the commit lock only;
    #: ``"read"`` ops take none and alone are served during a restore.
    _OPS = {
        "place": (_handle_place, "mutating"),
        "place_batch": (_handle_place_batch, "mutating"),
        "tick": (_handle_tick, "mutating"),
        "fail_server": (_handle_fail_server, "mutating"),
        "recover_server": (_handle_recover_server, "mutating"),
        "consolidate": (_handle_consolidate, "mutating"),
        "stats": (_handle_stats, "read"),
        "metrics": (_handle_metrics, "read"),
        "telemetry": (_handle_telemetry, "read"),
        "dump_debug": (_handle_dump_debug, "read"),
        "ping": (_handle_ping, "read"),
        "snapshot": (_handle_snapshot, "control"),
        "shutdown": (_handle_shutdown, "control"),
    }

    def on_shutdown(self, hook) -> None:
        """Register a callable run when a shutdown request is served."""
        self._shutdown_hooks.append(hook)

    def render_metrics(self) -> str:
        """The Prometheus text page (``ServiceMetrics`` is internally
        thread-safe, so scrapes never queue behind placements)."""
        return self.metrics.render(self.store, slo=self.slo)

    def varz(self) -> dict[str, object]:
        """The ``/varz`` JSON document: build info, uptime, live
        gauges, the SLO report and the newest telemetry sample."""
        latest = self.telemetry.latest()
        return {
            "build": dict(self.metrics.build_info),
            "uptime_seconds": round(monotonic() - self.metrics.started, 3),
            "ready": self.ready,
            "closed": self.closed,
            "clock": self.store.clock,
            "stats": self._handle_stats(),
            "slo": self.slo.report(),
            "telemetry": None if latest is None else latest.to_record(),
            "flight_records": len(self.flight),
        }


def serve_stdio(daemon: AllocationDaemon, in_stream: IO[str],
                out_stream: IO[str]) -> None:
    """Serve JSON-lines over a pair of text streams until EOF/shutdown."""
    for line in in_stream:
        if not line.strip():
            continue
        out_stream.write(daemon.handle_line(line))
        out_stream.flush()
        if daemon.closed:
            break
