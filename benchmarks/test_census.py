"""The call census: what a decision and a request cost, in calls.

Call counts repeat exactly where timings are noisy. Each *drive* — a
fixed allocator run or daemon request stream — runs once under one
``sys.setprofile`` hook, and each of its *rows* reads one number off
that count (see :class:`Row`). A row with a ceiling is a gate; a row
gated at 0 names a *control* row of the same drive that must read > 0,
so a drive that stopped reaching the code cannot pass by counting
nothing. To add a row, declare it on its drive: a target, an optional
condition, a ceiling (or none) and, for a ceiling of 0, its control.

``BENCH_census.json`` records each row with its ceiling, and each
drive's calls per decision by ``repro`` subpackage (by top-level module
outside it). Those rollups move with the interpreter (3.12 inlines
list comprehensions, PEP 709), so they are never gated; the calls of a
named function do not. The one exception is a daemon drive's
``calls_per_place``, every call of a request: it is gated as measured
on CPython 3.11 (``BENCH_census.json`` names the interpreter), and a
3.12 run, where the comprehensions it counts are inlined, has not been
measured.

A drive can also split its calls by *stage*: a :class:`Stage` row
counts every call made while one of its functions is the outermost
stage on the stack (its own call included), and ``Stage(())`` counts
the calls made under no stage of the drive.
"""

from __future__ import annotations

import bisect
import sys
import tempfile
import weakref
from collections import Counter
from dataclasses import dataclass
from types import CodeType, FrameType
from typing import Callable, Union

import pytest

from repro.allocators import make_allocator
from repro.allocators.base import Allocator
from repro.allocators.state import ServerState
from repro.energy import energy_report, power
from repro.energy.cost import saturating_gap
from repro.model import intervals, phases, server, vm
from repro.model.cluster import Cluster
from repro.obs import flight, logging, slo, tracer
from repro.obs.context import REQUEST_ID_FIELD, TRACE_ID_FIELD
from repro.placement.kernels import FeasibilityBatch, FleetKernel
from repro.placement.occupancy import SkylineOccupancy
from repro.robust.skyline import RobustSkyline
from repro.service.daemon import AllocationDaemon
from repro.service.metrics import ServiceMetrics
from repro.service.protocol import (
    encode,
    parse_request,
    place_batch_request,
    place_request,
)
from repro.service.state import ClusterStateStore
from repro.simulation import admission
from repro.simulation.power_state import FleetAggregates
from repro.workload.generator import generate_vms
from repro.workload.phased import PhasedWorkload

from conftest import record_json
from test_obs_overhead import LINES as OBS_LINES, OBS_OFF, OBS_ON, obs_daemon


def calls(*functions: Callable) -> tuple[CodeType, ...]:
    """A row's target: the code objects of ``functions``, resolved by
    import, so a renamed or deleted function raises instead of reading 0.
    A builtin (no code object) is its own target; its ``when`` gets the
    frame that calls it."""
    return tuple(getattr(function, "__code__", function)
                 for function in functions)


def inside(frame: FrameType, code: CodeType) -> bool:
    """Whether ``frame`` was called, at any depth, from ``code``."""
    frame = frame.f_back
    while frame is not None and frame.f_code is not code:
        frame = frame.f_back
    return frame is not None


@dataclass(frozen=True)
class Stage:
    """The calls made while one of ``codes`` is the outermost stage on
    the stack, its own call included; ``Stage(())`` is the calls made
    under no stage of the drive."""

    codes: tuple[CodeType, ...]


@dataclass(frozen=True)
class Row:
    """One number a drive answers. ``of`` is the calls of these code
    objects (those whose frame ``when`` accepts, if given), or the calls
    whose ``(module, qualname)`` a rule accepts, or a :class:`Stage`'s
    calls, or the name of a counter the program keeps and the drive
    returns."""

    name: str
    of: Union[tuple[CodeType, ...], Callable[[str, str], bool], Stage, str]
    when: Callable[[FrameType], bool] | None = None
    ceiling: float | None = None
    control: str | None = None
    per_vm: bool = False


@dataclass(frozen=True)
class Drive:
    """A fixed run: ``setup()`` builds its inputs outside the profile
    and returns the profiled ``run``, which may return counters."""

    name: str
    title: str
    decisions: int
    setup: Callable[[], Callable[[], dict[str, int] | None]]
    rows: tuple[Row, ...]

    def __post_init__(self):
        names = {row.name for row in self.rows}
        for row in self.rows:
            if row.ceiling == 0 and row.control not in names:
                raise ValueError(f"{self.name}: {row.name} is gated at 0 "
                                 f"and names no control row of the drive")


def count(drive: Drive) -> tuple[dict[str, float], Counter]:
    """Run ``drive`` once under one profile hook: its row values, and
    its calls by ``(module, qualname)``, builtins included."""
    run = drive.setup()
    watched: dict[int, list[Row]] = {}
    for row in drive.rows:
        for code in row.of if isinstance(row.of, tuple) else ():
            watched.setdefault(id(code), []).append(row)
    stages = {id(code): row.name for row in drive.rows
              if isinstance(row.of, Stage) for code in row.of.codes}
    rest = next((row.name for row in drive.rows
                 if isinstance(row.of, Stage) and not row.of.codes), None)
    by_code: dict[int, int] = {}
    seen: dict[int, tuple[CodeType, str]] = {}
    named: Counter = Counter()
    hits: Counter = Counter()
    stage: list = [None, rest]  # the outermost stage's frame, its row

    def profile(frame, event, arg):
        if event == "call":
            key = id(frame.f_code)
            by_code[key] = by_code.get(key, 0) + 1
            if key not in seen:  # holds the code, so its id stays its own
                seen[key] = frame.f_code, frame.f_globals.get("__name__", "?")
            for row in watched.get(key, ()):
                hits[row.name] += row.when is None or row.when(frame)
            if stages:
                if stage[0] is None and key in stages:
                    stage[:] = frame, stages[key]
                hits[stage[1]] += 1
        elif event == "c_call":
            named[getattr(arg, "__module__", None) or "builtins",
                  getattr(arg, "__qualname__", "?")] += 1
            for row in watched.get(id(arg), ()):
                hits[row.name] += row.when is None or row.when(frame)
            if stages:
                hits[stage[1]] += 1
        elif event == "return" and frame is stage[0]:
            stage[:] = None, rest

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        counters = run() or {}
    finally:
        sys.setprofile(previous)
    for key, (code, module) in seen.items():
        named[module, getattr(code, "co_qualname", code.co_name)] += \
            by_code[key]
    values = {}
    for row in drive.rows:
        if isinstance(row.of, str):
            n = counters[row.of]
        elif isinstance(row.of, (tuple, Stage)):
            n = hits[row.name]
        else:
            n = sum(c for key, c in named.items() if row.of(*key))
        values[row.name] = round(n / drive.decisions, 3) if row.per_vm else n
    return values, named


# -- conditions and targets ----------------------------------------------------

def _idle(state: ServerState, start: int) -> bool:
    """Whether ``state`` is in its type's clone class for a VM starting
    at ``start``: pristine, or dormant for it (quiet since its type's
    saturating gap before ``start``)."""
    quiet = state.quiet_after
    gap = saturating_gap(state.server.spec, state.policy)
    return quiet is None or gap is not None and quiet <= start - 1 - gap


def in_walk(frame: FrameType) -> bool:
    return inside(frame, Allocator.select.__code__)


def on_idle(argument: str, walking: bool = False
            ) -> Callable[[FrameType], bool]:
    """A ``ServerState`` method called on a pristine or dormant server
    for its ``argument`` (a VM or an interval); inside a walk only, if
    ``walking``."""
    def when(frame: FrameType) -> bool:
        args = frame.f_locals
        return (not walking or in_walk(frame)) \
            and _idle(args["self"], args[argument].start)
    return when


ADMITS, IDLE_DELTA = calls(ServerState.admits), calls(ServerState.idle_delta)
KERNEL = calls(FleetKernel.probe_fleet)
ADMITS_PIECE = SkylineOccupancy.admits_piece.__code__
MODEL = frozenset(module.__name__ for module in (vm, phases, intervals, server))
#: The model's derived values: stored at construction, never computed by
#: a call (``getattr`` raises here on a renamed one).
STORED = frozenset(name for cls, names in (
    (intervals.TimeInterval, ("length",)),
    (server.ServerSpec, ("transition_cost", "power_per_cpu_unit")),
    (phases.PhasedVM, ("pieces",)),
    (vm.VM, ("start", "end", "duration", "cpu", "memory", "cpu_radius",
             "mem_radius", "cpu_time"))) for name in names
    if getattr(cls, name) is not None)


# -- drives -------------------------------------------------------------------

CLUSTER_300 = Cluster.paper_all_types(300)
CLUSTER_3K = Cluster.paper_all_types(3000)
VMS_SPARSE_5K = generate_vms(5000, mean_interarrival=1.0, seed=0)
VMS_DENSE_5K = generate_vms(5000, mean_interarrival=0.05, mean_duration=60,
                            seed=0)
VMS_SPARSE_2K = generate_vms(2000, mean_interarrival=1.0, seed=0)
VMS_PAPER = generate_vms(1000, mean_interarrival=1.0, seed=0)

#: Servers min-energy's walk asks one at a time per VM of the sparse 5k
#: stream on 3000 servers — the warm ones; a type's clone class is
#: admitted and priced by the type. Measured 2.887 (6.105 while one
#: member of each clone class was asked, 14.957 while each dormant
#: server was); the ceiling is 1.25x.
EXAMINES_CEILING = round(1.25 * 2.887, 2)
#: best-fit's scalar probes per VM of the sparse 2k stream on 3000
#: servers, the warm servers only: measured 3.758 (7.847 while each
#: clone class's first member was probed too); the ceiling is 1.25x.
SCORE_PROBES_CEILING = round(1.25 * 3.758, 2)
#: min-energy, dense 5k / 3k, default engine: measured 34.416 scalar
#: ``admits`` per VM and no kernel call (17.6 and 0.86 calls while the
#: prefetch asked the kernel; 225.9 never prefetching); the ceiling is
#: 1.1x.
DENSE_ADMITS_CEILING = round(1.1 * 34.416, 1)
#: Searches (``bisect_right``) in ``SkylineOccupancy.admits_piece`` per
#: VM of the same drive: measured 19.905 of its 34.416 calls, the rest
#: refused by the remembered segment (all 34.416 would search with no
#: memory); the ceiling is 1.1x.
DENSE_SEARCHES_CEILING = round(1.1 * 19.905, 1)
#: ``refuses`` calls per VM of the same drive, the nominal rule's and
#: the Γ-robust one's (``admits_piece`` asks it first when its skyline
#: remembers a refusal): measured 40.335 with the prefetch reading each
#: type's refusal table; 293.555 while it asked every busy server's
#: skyline; the ceiling is 1.1x.
DENSE_REFUSES_CEILING = round(1.1 * 40.335, 1)
#: Calls per ``place`` through ``handle_line``, ffps on 1000 servers,
#: no journal: 333.2 while a request was decoded into a VM and encoded
#: back, and each tick re-summed the fleet; 232.5 now, over this
#: ceiling (see ROADMAP.md, "What a ``place`` still costs").
PLACE_CALLS_CEILING = 200
#: Calls per durable ``place`` (the ``serve-durable`` daemon): measured
#: 367.3, of which the decision (``offer``) is 122.4 (488.9 while the
#: shell built and checked each VM type, recounted a machine as a
#: remove and an add, walked every awake server on each tick, read
#: every server into each snapshot and took a semaphore and two
#: ``secrets`` draws per request); the ceiling is 1.1x.
DURABLE_CALLS_CEILING = round(1.1 * 367.31, 1)


def _allocate(algo: str, vms, cluster, **params):
    allocator = make_allocator(algo, seed=0, **params)

    def run() -> None:
        allocator.allocate(vms, cluster)
    return run


def _zoo():
    streams = {"plain": VMS_PAPER, "radii": PhasedWorkload(
        mean_interarrival=1.0, uncertainty=0.3).generate(1000, rng=0)}
    # The ledger's members; ``min-energy-kernel-off``'s legacy ``kernel``
    # token is validated and dropped, so it runs min-energy's default.
    members = [("min-energy", {}, "plain"),
               ("min-energy", {"engine": "indexed:kernel=off"}, "plain"),
               ("min-energy", {"engine": "indexed:gamma=2"}, "radii"),
               ("ffps", {"seed": 0}, "plain"),
               ("first-fit", {}, "plain"),
               ("best-fit", {}, "plain")]

    def run() -> None:
        for algo, params, stream in members:
            plan = make_allocator(algo, **params).allocate(
                streams[stream], CLUSTER_300)
            energy_report(plan)
            assert len(plan) == len(VMS_PAPER)
    return run


def _place_batch():
    daemon = AllocationDaemon(ClusterStateStore(CLUSTER_300))
    request = place_batch_request(VMS_SPARSE_5K[:200])

    def run() -> None:
        response = daemon.handle(request)
        assert response["ok"] and response["placed"] == 200, response
    return run


def _place():
    daemon = AllocationDaemon(
        ClusterStateStore(Cluster.paper_all_types(1000)), algorithm="ffps",
        seed=0, telemetry_capacity=0, flight_capacity=0)
    lines = [encode(place_request(v)) for v in VMS_SPARSE_2K]

    def run() -> None:
        for line in lines:
            daemon.handle_line(line)
        assert daemon.metrics.requests["placed"] == len(lines)
    return run


#: The stages of a durable ``place``: the decision, then the daemon
#: shell around it, by the function each call runs under.
PLACE_STAGES = (
    ("offer", admission.offer),
    ("commit", ClusterStateStore.commit),
    ("advance_to", ClusterStateStore.advance_to),
    ("parse_request", parse_request),
    ("write_snapshot", AllocationDaemon.write_snapshot),
    ("observe_request", ServiceMetrics.observe_request),
    ("journal", AllocationDaemon._journal),
    ("sample_telemetry", AllocationDaemon._sample_telemetry),
    ("encode", encode),
)


def _place_durable():
    """The ``serve-durable`` daemon in process: min-energy on 300
    servers, journal and snapshots every 100 (fsync off), telemetry and
    flight at the CLI defaults; 200 warm-up lines, then 2000 profiled,
    each carrying a trace id and a request id as the client sends them."""
    data_dir = tempfile.TemporaryDirectory()
    daemon = AllocationDaemon(ClusterStateStore(CLUSTER_300),
                              data_dir=data_dir.name, fsync=False,
                              telemetry_capacity=1024, flight_capacity=256)
    vms = sorted(generate_vms(2200, mean_interarrival=1.0, seed=0),
                 key=lambda v: (v.start, v.end, v.vm_id))
    lines = [encode({**place_request(vm), TRACE_ID_FIELD: f"{i:016x}",
                     REQUEST_ID_FIELD: f"{i:08x}"})
             for i, vm in enumerate(vms)]
    weakref.finalize(daemon, data_dir.cleanup)  # the files go with it
    for line in lines[:200]:
        daemon.handle_line(line)

    def run() -> None:
        for line in lines[200:]:
            daemon.handle_line(line)
        assert daemon.metrics.requests["placed"] == len(lines)
    return run


def _obs_place(variant: tuple[frozenset[str], bool]):
    """``benchmarks/test_obs_overhead.py``'s ``place`` drive — ffps,
    2000 VMs as request lines on 1000 servers — with one side of its
    gate's consumers live; the daemon is built outside the profile."""
    on, traced = variant
    daemon, tracer_, logger = obs_daemon(on)
    lines = OBS_LINES[traced, None]

    def run() -> None:
        with tracer.use_tracer(tracer_), logging.use_logger(logger):
            for line in lines:
                daemon.handle_line(line)
        stats = daemon.handle({"op": "stats"})
        assert stats["placed"] + stats["rejected"] == len(lines)
    return run


#: The per-request obs consumers, by the functions the daemon calls
#: them through.
OBS_CONSUMERS = (
    ("tracer", (tracer.Tracer.span, tracer.Tracer.finished_span,
                tracer.Span.__enter__, tracer.Span.__exit__)),
    ("logger", (logging.JsonLogger.log, logging.JsonLogger.info,
                logging.JsonLogger.error)),
    ("telemetry", (AllocationDaemon._sample_telemetry,)),
    ("slo", (slo.SLOTracker.observe,)),
    ("flight", (flight.FlightRecorder.record,)),
)


def _score_scan(probes_ceiling: float | None) -> tuple[Row, ...]:
    probe = calls(ServerState.probe)
    return (Row("probes_per_vm", probe, ceiling=probes_ceiling,
                per_vm=True),
            Row("idle_server_probes", probe, on_idle("vm"), ceiling=0,
                control="probes_per_vm"),
            Row("batches_built", calls(FeasibilityBatch.__init__),
                ceiling=0, control="probes_per_vm"))


DRIVES = (
    Drive("min-energy-sparse",
          "min-energy, 5000 sparse VMs / 3000 servers, default engine",
          5000, lambda: _allocate("min-energy", VMS_SPARSE_5K, CLUSTER_3K), (
              Row("examines_per_vm", calls(Allocator._examine),
                  ceiling=EXAMINES_CEILING, per_vm=True),
              Row("admits_in_walks_per_vm", ADMITS, in_walk,
                  ceiling=EXAMINES_CEILING, per_vm=True),
              Row("idle_server_admits_in_walks", ADMITS, on_idle("vm", True),
                  ceiling=0, control="admits_in_walks_per_vm"),
              Row("idle_delta_per_vm", IDLE_DELTA, per_vm=True),
              Row("idle_server_idle_deltas_in_walks", IDLE_DELTA,
                  on_idle("iv", True), ceiling=0,
                  control="idle_delta_per_vm"),
              Row("idle_deltas_outside_walks", IDLE_DELTA,
                  lambda frame: not in_walk(frame), ceiling=0,
                  control="idle_delta_per_vm"),
              Row("commits", calls(ServerState.place_trusted)),
              Row("incremental_costs", calls(ServerState.incremental_cost),
                  ceiling=0, control="commits"),
              Row("run_energy_calls", calls(power.run_energy), ceiling=0,
                  control="idle_delta_per_vm"),
              Row("kernel_calls", KERNEL, ceiling=0,
                  control="examines_per_vm"))),
    Drive("min-energy-sparse-300",
          "min-energy, the same 5000 sparse VMs / 300 servers",
          5000, lambda: _allocate("min-energy", VMS_SPARSE_5K, CLUSTER_300), (
              Row("examines_per_vm", calls(Allocator._examine), per_vm=True),
              Row("kernel_calls", KERNEL, ceiling=0,
                  control="examines_per_vm"))),
    Drive("min-energy-dense",
          "min-energy, 5000 dense VMs / 3000 servers, default engine",
          5000, lambda: _allocate("min-energy", VMS_DENSE_5K, CLUSTER_3K), (
              Row("admits_per_vm", ADMITS, ceiling=DENSE_ADMITS_CEILING,
                  per_vm=True),
              Row("kernel_calls_per_vm", KERNEL, ceiling=0,
                  control="admits_per_vm", per_vm=True),
              Row("admits_piece_per_vm", calls(SkylineOccupancy.admits_piece),
                  per_vm=True),
              Row("admits_piece_searches_per_vm", calls(bisect.bisect_right),
                  lambda frame: frame.f_code is ADMITS_PIECE,
                  ceiling=DENSE_SEARCHES_CEILING, per_vm=True),
              Row("refuses_per_vm",
                  calls(SkylineOccupancy.refuses, RobustSkyline.refuses),
                  ceiling=DENSE_REFUSES_CEILING, per_vm=True))),
    Drive("best-fit-sparse",
          "best-fit, 2000 sparse VMs / 3000 servers, default engine",
          2000, lambda: _allocate("best-fit", VMS_SPARSE_2K, CLUSTER_3K), (
              *_score_scan(SCORE_PROBES_CEILING),
              Row("kernel_calls", KERNEL, ceiling=0,
                  control="probes_per_vm"))),
    Drive("worst-fit-sparse",
          "worst-fit, 2000 sparse VMs / 3000 servers, default engine",
          2000, lambda: _allocate("worst-fit", VMS_SPARSE_2K, CLUSTER_3K),
          _score_scan(None)),
    Drive("zoo",
          "the six offline-zoo-1k configs, 1000 VMs / 300 servers, each "
          "plan through energy_report",
          6000, _zoo, (
              Row("model_calls_per_vm", lambda module, _: module in MODEL,
                  per_vm=True),
              Row("stored_value_calls", lambda module, qualname:
                  module in MODEL and qualname.split(".")[-1] in STORED,
                  ceiling=0, control="model_calls_per_vm"),
              Row("merge_intervals_calls", calls(intervals.merge_intervals)),
              Row("interval_lt_calls", calls(intervals.TimeInterval.__lt__),
                  ceiling=0, control="merge_intervals_calls"))),
    Drive("daemon-place-batch",
          "a daemon's place_batch of 200 sparse VMs on 300 servers",
          200, _place_batch, (
              Row("commits", calls(ClusterStateStore.commit)),
              Row("prices_in_commits", calls(ServerState.incremental_cost),
                  lambda frame: inside(
                      frame, ClusterStateStore.commit.__code__),
                  ceiling=0, control="commits"))),
    Drive("daemon-place",
          "a daemon's place, ffps, 2000 sparse VMs on 1000 servers, "
          "telemetry and flight off, lines encoded outside the profile",
          2000, _place, (
              Row("calls_per_place", lambda module, qualname: True,
                  ceiling=PLACE_CALLS_CEILING, per_vm=True),)),
    Drive("daemon-place-durable",
          "the serve-durable daemon's place: min-energy, 2000 sparse VMs "
          "on 300 servers after 200 warm-up lines, each line with trace "
          "and request ids, journal (fsync off) and snapshots every 100, "
          "telemetry and flight on, lines encoded outside the profile",
          2000, _place_durable, (
              Row("calls_per_place", lambda module, qualname: True,
                  ceiling=DURABLE_CALLS_CEILING, per_vm=True),
              *(Row(name, Stage(calls(function)), per_vm=True)
                for name, function in PLACE_STAGES),
              Row("rest", Stage(()), per_vm=True),
              Row("vm_type_builds", calls(vm.VMSpec.__post_init__),
                  ceiling=0, control="offer"),
              Row("fleet_add_calls", calls(FleetAggregates.add),
                  ceiling=0, control="offer"))),
    *(Drive(f"daemon-obs-{side}",
            f"the obs-overhead gate's {side} side: ffps, 2000 "
            f"{'traced ' if traced else ''}place lines on 1000 servers, "
            f"consumers on: {', '.join(sorted(on)) or 'none'}; the daemon "
            f"is built outside the profile",
            2000, lambda variant=(on, traced): _obs_place(variant), (
                Row("calls_per_place", lambda module, qualname: True,
                    per_vm=True),
                *(Row(name, Stage(calls(*functions)), per_vm=True)
                  for name, functions in OBS_CONSUMERS),
                Row("rest", Stage(()), per_vm=True)))
      for side, (on, traced) in (("off", OBS_OFF), ("on", OBS_ON))),
)


@pytest.mark.parametrize("drive", DRIVES, ids=lambda drive: drive.name)
def test_census(drive: Drive):
    values, named = count(drive)
    rollup: Counter = Counter()
    for (module, _), n in named.items():
        parts = module.split(".")
        rollup[parts[1] if parts[0] == "repro" and len(parts) > 1
               else parts[0]] += n
    record_json("census", {
        "drive": drive.title, "decisions": drive.decisions,
        "python": "{}.{}".format(*sys.version_info),
        "rows": {row.name: {"value": values[row.name],
                            "ceiling": row.ceiling} for row in drive.rows},
        "calls_per_decision_by_package": {
            name: round(n / drive.decisions, 3)
            for name, n in sorted(rollup.items())},
    }, section=drive.name)
    over = {row.name: (values[row.name], row.ceiling) for row in drive.rows
            if row.ceiling is not None and values[row.name] > row.ceiling}
    dead = {row.name: row.control for row in drive.rows
            if row.ceiling == 0 and not values[row.control] > 0}
    assert not over, f"rows over their ceilings: {over}"
    assert not dead, f"controls that read 0: {dead}"
