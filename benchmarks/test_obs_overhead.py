"""Overhead guard: the no-op tracer must cost (almost) nothing.

The instrumentation left in the hot paths — spans around
``simulate_online``/``allocate``/``replay``, the ``tracer.enabled``
guards, the per-``select`` candidate counters — is always executed, even
with tracing disabled. This benchmark compares the instrumented
:func:`repro.simulation.simulate_online` under the default
:data:`~repro.obs.tracer.NULL_TRACER` against a hand-written,
un-instrumented reconstruction of the exact same work (order, select,
place, replay) on a 2000-VM workload, and asserts the no-op path stays
within 5% of the bare loop. Minima over interleaved repetitions are
compared, so scheduler noise hits both variants alike.
"""

from __future__ import annotations

import statistics
import time

from repro.allocators import make_allocator
from repro.allocators.state import ServerState
from repro.model.allocation import Allocation
from repro.model.cluster import Cluster
from repro.obs.tracer import NULL_TRACER, get_tracer
from repro.simulation import SimulationEngine, simulate_online
from repro.workload.generator import generate_vms

from conftest import record_result

N_VMS = 2000
ALGORITHM = "ffps"
REPEATS = 7
MAX_OVERHEAD = 0.05

VMS = generate_vms(N_VMS, mean_interarrival=1.0, seed=0)
CLUSTER = Cluster.paper_all_types(N_VMS // 2)


def baseline_run():
    """The same allocate-then-replay trajectory with zero obs calls."""
    allocator = make_allocator(ALGORITHM, seed=0)
    ordered = allocator.order_vms(list(VMS))
    states = [ServerState(server) for server in CLUSTER]
    allocator.prepare(states)
    placements = {}
    for vm in ordered:
        chosen = allocator.select(vm, states)
        chosen.place(vm)
        placements[vm] = chosen.server.server_id
    allocation = Allocation(CLUSTER, placements)
    return SimulationEngine(CLUSTER)._replay(allocation)


def instrumented_run():
    _, result = simulate_online(VMS, CLUSTER,
                                make_allocator(ALGORITHM, seed=0))
    return result


def timed(fn) -> float:
    start = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - start
    assert result.total_energy > 0
    return elapsed


def test_null_tracer_overhead_under_five_percent():
    assert get_tracer() is NULL_TRACER  # the disabled default
    baseline_times = []
    instrumented_times = []
    timed(baseline_run), timed(instrumented_run)  # warm-up
    for _ in range(REPEATS):
        baseline_times.append(timed(baseline_run))
        instrumented_times.append(timed(instrumented_run))
    baseline = min(baseline_times)
    instrumented = min(instrumented_times)
    overhead = instrumented / baseline - 1.0
    lines = [
        f"no-op tracer overhead on simulate_online "
        f"({N_VMS} VMs, {len(CLUSTER)} servers, {ALGORITHM}, "
        f"min of {REPEATS} interleaved repeats)",
        "",
        f"{'variant':<24} {'min_s':>8} {'median_s':>9}",
        f"{'bare loop':<24} {baseline:>8.4f} "
        f"{statistics.median(baseline_times):>9.4f}",
        f"{'instrumented (no-op)':<24} {instrumented:>8.4f} "
        f"{statistics.median(instrumented_times):>9.4f}",
        "",
        f"overhead: {100 * overhead:+.2f}% "
        f"(budget {100 * MAX_OVERHEAD:.0f}%)",
    ]
    record_result("obs_overhead", "\n".join(lines))
    assert instrumented <= baseline * (1.0 + MAX_OVERHEAD), \
        f"no-op tracer overhead {100 * overhead:.2f}% exceeds " \
        f"{100 * MAX_OVERHEAD:.0f}% (baseline {baseline:.4f}s, " \
        f"instrumented {instrumented:.4f}s)"


# --- daemon scale point: the *enabled* stack must stay cheap too -----
#
# The simulator check above guards the disabled path. This one guards
# the opposite end: a daemon serving the 2000 VMs as traced requests
# with the full observability stack live (tracer, JSON logging,
# telemetry ring, SLO tracker, flight recorder) against the same daemon
# with every obs surface disabled. The budget is the same 5%, for two
# drives: one ``place`` per VM, and ``place_batch`` chunks of 200 —
# where every VM books its own stage spans inside the batch's span.

DAEMON_REPEATS = 5
BATCH = 200


def _request_lines(traced: bool, batch: int | None) -> list[str]:
    import json

    from repro.service import place_batch_request, place_request

    if batch is None:
        requests = [place_request(vm) for vm in VMS]
    else:
        ordered = sorted(VMS, key=lambda v: (v.start, v.end, v.vm_id))
        requests = [place_batch_request(ordered[i:i + batch])
                    for i in range(0, len(ordered), batch)]
    lines = []
    for i, request in enumerate(requests):
        if traced:
            request["trace_id"] = f"{i:016x}"
            request["request_id"] = f"{i:08x}"
        lines.append(json.dumps(request))
    return lines


LINES = {(traced, batch): _request_lines(traced, batch)
         for traced in (False, True) for batch in (None, BATCH)}


def _drive_daemon(observed: bool, batch: int | None) -> float:
    import io

    from repro.obs import JsonLogger, Tracer, use_logger, use_tracer
    from repro.obs.logging import NULL_LOGGER
    from repro.obs.tracer import NULL_TRACER
    from repro.service import AllocationDaemon, ClusterStateStore

    store = ClusterStateStore(Cluster.paper_all_types(N_VMS // 2))
    if observed:
        daemon = AllocationDaemon(store, algorithm=ALGORITHM, seed=0)
        tracer, logger = Tracer(), JsonLogger(io.StringIO(),
                                              level="info")
    else:
        daemon = AllocationDaemon(store, algorithm=ALGORITHM, seed=0,
                                  telemetry_capacity=0,
                                  flight_capacity=0)
        tracer, logger = NULL_TRACER, NULL_LOGGER
    lines = LINES[(observed, batch)]
    with use_tracer(tracer), use_logger(logger):
        start = time.perf_counter()
        for line in lines:
            daemon.handle_line(line)
        elapsed = time.perf_counter() - start
    stats = daemon.handle({"op": "stats"})
    assert stats["placed"] + stats["rejected"] + stats["delayed"] == N_VMS
    if observed:
        assert len(tracer.spans("service.allocate")) == N_VMS
    return elapsed


def test_daemon_obs_on_overhead_under_five_percent():
    lines = [
        f"daemon observability overhead ({N_VMS} VMs as traced requests "
        f"over the wire path, {ALGORITHM}, min of {DAEMON_REPEATS} "
        f"interleaved repeats)",
    ]
    overheads = {}
    for batch in (None, BATCH):
        drive = "place" if batch is None else f"place_batch of {batch}"
        off_times, on_times = [], []
        _drive_daemon(False, batch), _drive_daemon(True, batch)  # warm-up
        for _ in range(DAEMON_REPEATS):
            off_times.append(_drive_daemon(False, batch))
            on_times.append(_drive_daemon(True, batch))
        off, on = min(off_times), min(on_times)
        overheads[drive] = on / off - 1.0
        lines += [
            "",
            f"{drive}:",
            f"{'variant':<28} {'min_s':>8} {'median_s':>9}",
            f"{'obs off (all disabled)':<28} {off:>8.4f} "
            f"{statistics.median(off_times):>9.4f}",
            f"{'obs on (full stack)':<28} {on:>8.4f} "
            f"{statistics.median(on_times):>9.4f}",
            f"overhead: {100 * overheads[drive]:+.2f}% "
            f"(budget {100 * MAX_OVERHEAD:.0f}%)",
        ]
    record_result("obs_daemon_overhead", "\n".join(lines))
    for drive, overhead in overheads.items():
        assert overhead <= MAX_OVERHEAD, \
            f"obs-on daemon overhead on {drive} {100 * overhead:.2f}% " \
            f"exceeds {100 * MAX_OVERHEAD:.0f}%"
