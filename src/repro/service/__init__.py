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

# This block is the export declaration: repro._lazy reads it at import.
if TYPE_CHECKING:
    from repro.service.tcp import (
        ThreadingDaemonServer as ThreadingDaemonServer,
        serve_socket as serve_socket,
    )
    from repro.service.client import (
        AllocationClient as AllocationClient,
        ClientConfig as ClientConfig,
        ReplaySummary as ReplaySummary,
        replay_trace as replay_trace,
    )
    from repro.service.daemon import (
        AllocationDaemon as AllocationDaemon,
        serve_stdio as serve_stdio,
    )
    from repro.service.errors import (
        CODES as CODES,
        ErrorFields as ErrorFields,
        envelope as envelope,
        envelope_of_exception as envelope_of_exception,
        error_fields as error_fields,
        http_status_of as http_status_of,
    )
    from repro.service.framing import (
        FRAME_MAGIC as FRAME_MAGIC,
        encode_frame as encode_frame,
        read_frame as read_frame,
        write_frame as write_frame,
    )
    from repro.service.gateway import (
        GatewayServer as GatewayServer,
        start_gateway as start_gateway,
    )
    from repro.service.metrics import (
        Histogram as Histogram,
        LatencyReservoir as LatencyReservoir,
        ServiceMetrics as ServiceMetrics,
        parse_exposition as parse_exposition,
    )
    from repro.service.faults import (
        FaultEvent as FaultEvent,
        FaultInjector as FaultInjector,
    )
    from repro.service.persistence import (
        RequestJournal as RequestJournal,
        SnapshotManager as SnapshotManager,
        read_journal as read_journal,
    )
    from repro.service.protocol import (
        OPS as OPS,
        PROTOCOL_VERSION as PROTOCOL_VERSION,
        SUPPORTED_VERSIONS as SUPPORTED_VERSIONS,
        consolidate_request as consolidate_request,
        dump_debug_request as dump_debug_request,
        encode as encode,
        fail_server_request as fail_server_request,
        negotiate_version as negotiate_version,
        parse_batch_records as parse_batch_records,
        parse_request as parse_request,
        parse_response as parse_response,
        place_batch_request as place_batch_request,
        place_request as place_request,
        recover_server_request as recover_server_request,
        telemetry_request as telemetry_request,
        validate_request as validate_request,
    )
    from repro.service.state import (
        SNAPSHOT_FORMAT_VERSION as SNAPSHOT_FORMAT_VERSION,
        ClusterStateStore as ClusterStateStore,
        ConsolidationReport as ConsolidationReport,
        FailureReport as FailureReport,
        Replacement as Replacement,
        snapshot_meta as snapshot_meta,
    )

__getattr__, __dir__, __all__ = lazy_exports(globals())
