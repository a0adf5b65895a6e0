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
# with every obs surface the product can disable disabled (the SLO
# tracker has no switch). The budget is the same 5%, for two drives: one
# ``place`` per VM, and ``place_batch`` chunks of 200 — where every VM
# books its own stage spans inside the batch's span.
#
# The ``place`` drive is also attributed: the daemon with nothing on —
# the SLO tracker switched off here, by the benchmark only — then with
# one consumer on at a time, then all five.

DAEMON_REPEATS = 5
BATCH = 200
#: The per-request obs consumers, each switchable in this benchmark.
CONSUMERS = ("tracer", "logger", "flight", "slo", "telemetry")


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


def obs_daemon(on: frozenset[str]):
    """A fresh daemon for the drive with the ``on`` consumers live, and
    the tracer and logger to serve it under."""
    import io

    from repro.obs import JsonLogger, Tracer
    from repro.obs.logging import NULL_LOGGER
    from repro.obs.tracer import NULL_TRACER
    from repro.service import AllocationDaemon, ClusterStateStore

    store = ClusterStateStore(Cluster.paper_all_types(N_VMS // 2))
    off = {f"{name}_capacity": 0 for name in ("telemetry", "flight")
           if name not in on}
    daemon = AllocationDaemon(store, algorithm=ALGORITHM, seed=0, **off)
    if "slo" not in on:
        daemon.slo.observe = lambda latency, ok=True: None
    tracer = Tracer() if "tracer" in on else NULL_TRACER
    logger = JsonLogger(io.StringIO(), level="info") if "logger" in on \
        else NULL_LOGGER
    return daemon, tracer, logger


def _drive_daemon(on: frozenset[str], batch: int | None,
                  traced: bool) -> float:
    """Seconds to serve the drive with the ``on`` consumers live, from
    request lines with (``traced``) or without trace ids."""
    from repro.obs import use_logger, use_tracer

    daemon, tracer, logger = obs_daemon(on)
    lines = LINES[(traced, batch)]
    with use_tracer(tracer), use_logger(logger):
        start = time.perf_counter()
        for line in lines:
            daemon.handle_line(line)
        elapsed = time.perf_counter() - start
    stats = daemon.handle({"op": "stats"})
    assert stats["placed"] + stats["rejected"] + stats["delayed"] == N_VMS
    if "tracer" in on:
        assert len(tracer.spans("service.allocate")) == N_VMS
    return elapsed


#: The gate's two sides: what the product can switch off (all but the
#: SLO tracker) from id-less requests, and the full stack from traced ones.
OBS_OFF = (frozenset({"slo"}), False)
OBS_ON = (frozenset(CONSUMERS), True)


def _min_times(variants: dict[str, tuple[frozenset[str], bool]],
               batch: int | None) -> dict[str, tuple[float, float]]:
    """``label -> (min, median)`` seconds over interleaved repeats."""
    times: dict[str, list[float]] = {label: [] for label in variants}
    for on, traced in variants.values():  # warm-up
        _drive_daemon(on, batch, traced)
    for _ in range(DAEMON_REPEATS):
        for label, (on, traced) in variants.items():
            times[label].append(_drive_daemon(on, batch, traced))
    return {label: (min(seconds), statistics.median(seconds))
            for label, seconds in times.items()}


def _attribution() -> list[str]:
    """The ``place`` drive per consumer: nothing on, then each consumer
    on alone, then all five — each row's cost over the nothing-on row."""
    variants = {"nothing on, no ids": (frozenset(), False),
                "nothing on": (frozenset(), True)}
    for name in CONSUMERS:
        variants[f"+ {name}"] = (frozenset({name}), True)
    variants["all five (full stack)"] = OBS_ON
    timed = _min_times(variants, None)
    base = timed["nothing on"][0]
    lines = ["", "place, per consumer (traced lines unless 'no ids'; "
             "each row alone over 'nothing on'):",
             f"{'variant':<28} {'min_s':>8} {'median_s':>9} "
             f"{'us/request':>11}"]
    for label, (low, median) in timed.items():
        lines.append(f"{label:<28} {low:>8.4f} {median:>9.4f} "
                     f"{1e6 * (low - base) / N_VMS:>+11.2f}")
    singles = sum(timed[f"+ {name}"][0] - base for name in CONSUMERS)
    lines.append(f"sum of the five single rows: "
                 f"{1e6 * singles / N_VMS:+.2f} us/request")
    return lines


def test_daemon_obs_on_overhead_under_five_percent():
    lines = [
        f"daemon observability overhead ({N_VMS} VMs as traced requests "
        f"over the wire path, {ALGORITHM}, min of {DAEMON_REPEATS} "
        f"interleaved repeats)",
    ]
    overheads = {}
    for batch in (None, BATCH):
        drive = "place" if batch is None else f"place_batch of {batch}"
        timed = _min_times({"off": OBS_OFF, "on": OBS_ON}, batch)
        (off, off_median), (on, on_median) = timed["off"], timed["on"]
        overheads[drive] = on / off - 1.0
        lines += [
            "",
            f"{drive}:",
            f"{'variant':<28} {'min_s':>8} {'median_s':>9}",
            f"{'obs off (all but the SLO)':<28} {off:>8.4f} "
            f"{off_median:>9.4f}",
            f"{'obs on (full stack)':<28} {on:>8.4f} {on_median:>9.4f}",
            f"overhead: {100 * overheads[drive]:+.2f}% "
            f"(budget {100 * MAX_OVERHEAD:.0f}%)",
        ]
    lines += _attribution()
    record_result("obs_daemon_overhead", "\n".join(lines))
    for drive, overhead in overheads.items():
        assert overhead <= MAX_OVERHEAD, \
            f"obs-on daemon overhead on {drive} {100 * overhead:.2f}% " \
            f"exceeds {100 * MAX_OVERHEAD:.0f}%"
