"""The online allocation service.

The paper's heuristics are online — VMs are placed in arrival order
against live cluster state — and this subsystem makes that literal: a
long-running daemon ingests a stream of placement requests (JSON lines
over stdin or TCP), routes each through a registered allocator against
a mutable :class:`ClusterStateStore`, journals every decision, and
checkpoints crash-safe snapshots, while the ``metrics`` op and the
gateway's ``/metrics`` page expose fleet power, occupancy and latency
in the Prometheus text format. Protocol v2 adds ``place_batch``
(a whole batch per round trip, journaled as one group, decided in the
same order as the same VMs sent one by one) and live failure
events: ``fail_server`` splits every affected VM at the failure tick
and re-places the remainders through the active allocator (one atomic
journal group per failure), ``recover_server`` brings the machine
back; :class:`AllocationClient` retries transient faults under a
:class:`ClientConfig` budget and :class:`FaultInjector` drives
deterministic chaos schedules for tests. The daemon also defragments
itself: consolidation episodes (epoch- or fragmentation-triggered, or
forced via the v2 ``consolidate`` op) migrate running VMs off
under-packed servers through the shared
:mod:`repro.consolidation` planner, each episode journaled as one
atomic group. See ``docs/service.md`` and the ``repro serve`` /
``repro client`` / ``repro consolidate`` CLI commands.

Protocol v3 is the multi-connection generation: one
:class:`ThreadingDaemonServer` port (a thread per connection) speaks
JSON-lines *and* length-prefixed binary frames (sniffed per
connection, v1/v2 clients byte-unchanged),
failures carry the typed error envelope of
:mod:`repro.service.errors`, and an HTTP/REST gateway
(:func:`start_gateway`) translates ``POST /v1/place`` and friends onto
the same op handlers.

The names resolve on first use, like the top-level :mod:`repro`'s: a
client imports the client, the codec and the framing, not the daemon,
the allocators or numpy, and a daemon imports the HTTP gateway only
when it serves one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

# The names as static imports, for type checkers and linters; at run time
# they resolve through ``__getattr__`` below. tests/test_layering.py
# keeps this block, ``_EXPORTS`` and ``__all__`` naming the same homes.
if TYPE_CHECKING:
    from repro.service.tcp import ThreadingDaemonServer, serve_socket
    from repro.service.client import (
        AllocationClient,
        ClientConfig,
        ReplaySummary,
        replay_trace,
    )
    from repro.service.daemon import AllocationDaemon, serve_stdio
    from repro.service.errors import (
        CODES,
        ErrorFields,
        envelope,
        envelope_of_exception,
        error_fields,
        http_status_of,
    )
    from repro.service.framing import (
        FRAME_MAGIC,
        FrameDecoder,
        encode_frame,
        read_frame,
        write_frame,
    )
    from repro.service.gateway import GatewayServer, start_gateway
    from repro.service.metrics import (
        Histogram,
        LatencyReservoir,
        ServiceMetrics,
        parse_exposition,
    )
    from repro.service.faults import FaultEvent, FaultInjector
    from repro.service.persistence import (
        RequestJournal,
        SnapshotManager,
        read_journal,
    )
    from repro.service.protocol import (
        OPS,
        PROTOCOL_VERSION,
        SUPPORTED_VERSIONS,
        consolidate_request,
        dump_debug_request,
        encode,
        fail_server_request,
        negotiate_version,
        parse_batch_records,
        parse_request,
        parse_response,
        place_batch_request,
        place_request,
        recover_server_request,
        telemetry_request,
        validate_request,
    )
    from repro.service.state import (
        SNAPSHOT_FORMAT_VERSION,
        ClusterStateStore,
        ConsolidationReport,
        FailureReport,
        Replacement,
        snapshot_meta,
    )

#: Home module of every name, imported on first access.
_EXPORTS: dict[str, tuple[str, ...]] = {
    "repro.service.tcp": ("ThreadingDaemonServer", "serve_socket"),
    "repro.service.client": (
        "AllocationClient", "ClientConfig", "ReplaySummary", "replay_trace",
    ),
    "repro.service.daemon": ("AllocationDaemon", "serve_stdio"),
    "repro.service.errors": (
        "CODES", "ErrorFields", "envelope", "envelope_of_exception",
        "error_fields", "http_status_of",
    ),
    "repro.service.framing": (
        "FRAME_MAGIC", "FrameDecoder", "encode_frame", "read_frame",
        "write_frame",
    ),
    "repro.service.gateway": ("GatewayServer", "start_gateway"),
    "repro.service.metrics": (
        "Histogram", "LatencyReservoir", "ServiceMetrics", "parse_exposition",
    ),
    "repro.service.faults": ("FaultEvent", "FaultInjector"),
    "repro.service.persistence": (
        "RequestJournal", "SnapshotManager", "read_journal",
    ),
    "repro.service.protocol": (
        "OPS", "PROTOCOL_VERSION", "SUPPORTED_VERSIONS", "consolidate_request",
        "dump_debug_request", "encode", "fail_server_request",
        "negotiate_version", "parse_batch_records", "parse_request",
        "parse_response", "place_batch_request", "place_request",
        "recover_server_request", "telemetry_request", "validate_request",
    ),
    "repro.service.state": (
        "SNAPSHOT_FORMAT_VERSION", "ClusterStateStore", "ConsolidationReport",
        "FailureReport", "Replacement", "snapshot_meta",
    ),
}

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

__all__ = [
    "AllocationClient",
    "AllocationDaemon",
    "ThreadingDaemonServer",
    "CODES",
    "ClientConfig",
    "ClusterStateStore",
    "ConsolidationReport",
    "ErrorFields",
    "FailureReport",
    "FaultEvent",
    "FaultInjector",
    "FRAME_MAGIC",
    "FrameDecoder",
    "GatewayServer",
    "Histogram",
    "LatencyReservoir",
    "OPS",
    "PROTOCOL_VERSION",
    "Replacement",
    "ReplaySummary",
    "RequestJournal",
    "ServiceMetrics",
    "SNAPSHOT_FORMAT_VERSION",
    "SUPPORTED_VERSIONS",
    "SnapshotManager",
    "consolidate_request",
    "dump_debug_request",
    "encode",
    "encode_frame",
    "envelope",
    "envelope_of_exception",
    "error_fields",
    "fail_server_request",
    "http_status_of",
    "negotiate_version",
    "parse_batch_records",
    "parse_exposition",
    "parse_request",
    "parse_response",
    "place_batch_request",
    "place_request",
    "read_frame",
    "read_journal",
    "recover_server_request",
    "replay_trace",
    "serve_socket",
    "serve_stdio",
    "snapshot_meta",
    "start_gateway",
    "telemetry_request",
    "validate_request",
    "write_frame",
]
