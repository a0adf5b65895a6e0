"""The five workloads of the e2e ledger and their correctness checks.

Load shape: the generator is this one Python process with at most two
threads / connections. Offline workloads run in it; serve workloads
start the daemon as one child process through ``launcher.py``. The
writer is a closed loop on one connection (callers of a placement
service wait for the decision); the ``serve-durable`` reader is an
open loop on a second connection, timed from when each scrape was due.

Timings are in reference time (``calibrate.py``): bursts of fixed work
run beside every timed part and scale it by the box's speed, and the
whole process tree is pinned to one core so that they read the core the
work runs on.

Work is sized from ``--seconds``: offline workloads repeat, their input
streams taking turns, until the time is up; serve workloads send a fixed
number of requests per budgeted second, so that request counts — and
with them energy, journal bytes and every per-layer count — repeat
exactly for a seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import repro
from repro.model.phases import split_vm
from repro.service.daemon import JOURNAL_NAME

import shims
from calibrate import Calibrator

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
LAUNCHER = HERE / "launcher.py"

#: Set-up is repeated so that ``setup_s`` is a median, not one sample.
SETUP_REPEATS = 3
#: Timed work per budgeted second (fixed counts keep runs exact).
DURABLE_PLACES_PER_S = 500
CHURN_BATCHES_PER_S = 8
WARMUP_PLACES = 200
BATCH = 200
#: Traced passes run about a quarter of the untraced work.
TRACE_SHARE = 4
SCRAPE_PERIOD_S = 0.1
#: Bursts sampled before and after an operation that none can run inside.
EDGE_BURSTS = 2
#: ``serve-durable`` samples a burst between two requests this often, and
#: right after a request that took longer than this (a snapshot writer).
PLACES_PER_BURST = 16
SLOW_PLACE_S = 0.004
SERVE_SERVERS = 300
#: Failure and consolidation splits take vm ids just above the highest
#: committed one, so each batch leaves a gap for them.
ID_GAP = 10_000

WORKLOADS = {
    "offline-sparse-10k":
        "paper's Poisson stream at kernel scale, ~5 concurrent VMs: "
        "placement.index pruning does the work, the probe almost none",
    "offline-dense-5k":
        "~1200 concurrent VMs: deep skylines and infeasible rows, so "
        "kernels.probe_fleet and allocators.state dominate, pruning "
        "helps little",
    "offline-zoo-1k":
        "paper scale, six allocator/engine members: generic scan routes, "
        "scalar skyline and robust path; the paper's headline vs FFPS",
    "serve-durable":
        "single durable place requests over TCP with scrapes beside "
        "them: codec, daemon shell, journal and snapshots carry the "
        "time, placement is <10%",
    "serve-batch-churn":
        "place_batch of 200 with tick, consolidate and fail/recover: "
        "transport amortised 200x, so service.state, admission, the "
        "scan and the planner carry the time",
}


# -- results ----------------------------------------------------------------

@dataclass
class Metric:
    value: float
    unit: str
    samples: int | None = None
    q1: float | None = None
    q3: float | None = None

    def to_record(self) -> dict:
        record = {"value": self.value, "unit": self.unit}
        if self.samples is not None:
            record.update(samples=self.samples, q1=self.q1, q3=self.q3)
        return record


@dataclass
class Outcome:
    workload: str
    seed: int
    trace: bool
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, Metric] = field(default_factory=dict)
    info: dict = field(default_factory=dict)

    def op(self, ok: bool, problem: str = "") -> bool:
        """Count one operation; a failed one is a failed correctness
        check, an error, a shed or a timed-out request alike."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(problem)
        return ok


def quantile(ordered: list[float], q: float) -> float:
    """Nearest-rank quantile of an already sorted list."""
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def median_of(samples: list[float], unit: str, scale: float = 1.0
              ) -> Metric:
    """Median with the quartiles and the sample count beside it."""
    scaled = [s * scale for s in samples]
    if len(scaled) >= 2:
        q1, _, q3 = statistics.quantiles(scaled, n=4)
    else:
        q1 = q3 = scaled[0]
    return Metric(statistics.median(scaled), unit, len(scaled), q1, q3)


def tail_of(samples: list[float], q: float, unit: str = "ms",
            scale: float = 1e3) -> Metric:
    """The tail latency: nearest-rank quantile ``q``."""
    ordered = sorted(samples)
    return Metric(quantile(ordered, q) * scale, unit, len(ordered))


def over_streams(samples: list[list[float]], unit: str, scale: float = 1.0,
                 tail: bool = False) -> Metric:
    """Offline timings: the quartiles of each input stream's repetitions
    (inclusive method, two repetitions are enough), averaged over the
    streams. The value is the median — or, for the tail, the upper
    quartile: repetitions are too few for a percentile with ten samples
    beyond it."""
    cuts = [statistics.quantiles([s * scale for s in stream], n=4,
                                 method="inclusive") for stream in samples]
    q1, q2, q3 = (statistics.fmean(cut[i] for cut in cuts) for i in range(3))
    n = sum(len(stream) for stream in samples)
    return Metric(q3, unit, n) if tail else Metric(q2, unit, n, q1, q3)


# -- offline workloads --------------------------------------------------------

@dataclass(frozen=True)
class Member:
    label: str
    algorithm: str
    params: tuple = ()
    stream: str = "vms"


@dataclass(frozen=True)
class OfflineSpec:
    vms: int
    mean_interarrival: float
    mean_duration: float
    servers: int
    members: tuple[Member, ...]
    traced_reps: int
    #: Input streams per run, each from a seed of its own derived from
    #: ``--seed``: another stream is other work (+-3 % at 10k VMs, +-10 %
    #: for ``best-fit`` at paper scale), and a run that averages over a
    #: few of them reads the program, not the draw.
    streams: int = 1


_MIN_ENERGY = (Member("min-energy", "min-energy"),)

OFFLINE = {
    "offline-sparse-10k": OfflineSpec(10_000, 1.0, 5.0, 3000, _MIN_ENERGY, 3,
                                      streams=4),
    "offline-dense-5k": OfflineSpec(5_000, 0.05, 60.0, 3000, _MIN_ENERGY, 1),
    "offline-zoo-1k": OfflineSpec(1_000, 1.0, 5.0, 300, (
        Member("min-energy", "min-energy"),
        Member("min-energy-kernel-off", "min-energy",
               (("engine", "indexed:kernel=off"),)),
        Member("min-energy-gamma2", "min-energy",
               (("engine", "indexed:gamma=2"),), stream="radii"),
        Member("ffps", "ffps", (("seed", 0),)),
        Member("first-fit", "first-fit"),
        Member("best-fit", "best-fit"),
    ), 2, streams=4),
}

ZOO_MEMBERS = tuple(m.label for m in OFFLINE["offline-zoo-1k"].members)
#: Stream ``j`` of a run is generated from ``--seed + j * STREAM_STRIDE``.
STREAM_STRIDE = 1_000_003


def offline_inputs(name: str, seed: int) -> dict:
    """The generated inputs of an offline workload — all the program
    under test ever sees of the seed."""
    spec = OFFLINE[name]
    inputs = {
        "vms": repro.generate_vms(spec.vms, spec.mean_interarrival,
                                  spec.mean_duration, seed=seed),
        "cluster": repro.Cluster.paper_all_types(spec.servers),
    }
    if any(m.stream == "radii" for m in spec.members):
        # The +-30 % radii stream that robust_frontier uses.
        inputs["radii"] = repro.PhasedWorkload(
            mean_interarrival=spec.mean_interarrival,
            uncertainty=0.3).generate(spec.vms, rng=seed)
    return inputs


def _offline_setup_probe(name: str, seed: int, cal: Calibrator
                         ) -> tuple[float, float]:
    """Spawn to ``ready`` of a fresh interpreter doing the set-up, as
    ``perf_counter`` readings; bursts tick beside it on the same core."""
    started = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(LAUNCHER), "setup", name, str(seed)],
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True)
    try:
        with cal.ticking():
            line = proc.stdout.readline()
        ended = perf_counter()
        if line.strip() != "ready":
            raise RuntimeError(f"set-up probe of {name} did not get ready")
        return started, ended
    finally:
        proc.stdout.close()
        proc.wait()


def plan_digest(allocation) -> str:
    """sha256 over the plan's ``(vm_id, server_id)`` pairs."""
    digest = hashlib.sha256()
    for vm_id, server_id in sorted(
            (vm.vm_id, sid) for vm, sid in allocation.items()):
        digest.update(b"%d:%d;" % (vm_id, server_id))
    return digest.hexdigest()


def run_offline(name: str, seed: int, seconds: int, trace: bool) -> Outcome:
    spec = OFFLINE[name]
    out = Outcome(name, seed, trace)
    cal = Calibrator()
    setup = [] if trace else [_offline_setup_probe(name, seed, cal)
                              for _ in range(SETUP_REPEATS)]
    # Stream 0 is the seed's own; a traced pass runs it alone, so that
    # its counts repeat between repetitions.
    streams = [offline_inputs(name, seed + j * STREAM_STRIDE)
               for j in range(1 if trace else spec.streams)]
    cluster = streams[0]["cluster"]
    vms_per_rep = sum(len(streams[0][m.stream]) for m in spec.members)
    reference: dict[tuple[int, str], tuple[str, float]] = {}

    def repetition(j: int = 0, scope=nullcontext
                   ) -> dict[str, tuple[float, float]]:
        """One pass of every member over stream ``j``; when each began
        and ended."""
        window: dict[str, tuple[float, float]] = {}
        for m in spec.members:
            vms = streams[j][m.stream]
            with scope(m.label):
                started = perf_counter()
                plan = repro.make_allocator(
                    m.algorithm, **dict(m.params)).allocate(vms, cluster)
                energy = repro.energy_report(plan).total_energy
                window[m.label] = (started, perf_counter())
            result = (plan_digest(plan), energy)
            try:
                if (j, m.label) not in reference:
                    # Capacity at every time unit and every VM placed;
                    # later repetitions are pinned to this plan.
                    plan.validate(vms=vms)
                    reference[j, m.label] = result
                out.op(len(plan) == len(vms)
                       and reference[j, m.label] == result,
                       f"{m.label}: plan or energy changed between "
                       f"repetitions of stream {j}")
            except repro.ReproError as exc:
                out.op(False, f"{m.label}: invalid plan: {exc}")
        return window

    def wall(window: dict) -> float:
        return sum(end - start for start, end in window.values())

    repetition()  # untimed warm-up
    reps: list[list[dict[str, tuple[float, float]]]] = [[] for _ in streams]
    turn = 0
    started = perf_counter()
    with nullcontext() if trace else cal.ticking():
        # Streams take turns; each is repeated at least twice, which is
        # what pins its plan.
        while turn < spec.traced_reps if trace else (
                turn < 2 * len(streams)
                or perf_counter() - started < seconds):
            reps[turn % len(streams)].append(repetition(turn % len(streams)))
            turn += 1

    first = spec.members[0].label
    for j in range(len(streams)):
        if (j, "min-energy-kernel-off") in reference:
            out.op(reference[j, "min-energy"]
                   == reference[j, "min-energy-kernel-off"],
                   f"kernel on and off plans differ on stream {j}")
    energy = reference[0, first][1]
    out.info.update(repetitions=turn, streams=len(streams),
                    vms_per_repetition=vms_per_rep, tail="p75")

    if not trace:
        times = [[sum(cal.reference(*span) for span in rep.values())
                  for rep in stream] for stream in reps]
        bounds = [repro.energy_lower_bound(inputs["vms"], cluster).total
                  for inputs in streams]
        out.info.update(
            calibration=cal.summary(),
            wall_op_ms_p50=over_streams(
                [[wall(rep) for rep in stream] for stream in reps],
                "ms", 1e3).value)
        out.metrics.update({
            "setup_s": median_of([cal.reference(*span) for span in setup],
                                 "s"),
            "vms_per_s": over_streams(
                [[vms_per_rep / t for t in stream] for stream in times],
                "1/s"),
            "op_ms_p50": over_streams(times, "ms", 1e3),
            "op_ms_tail": over_streams(times, "ms", 1e3, tail=True),
            "rss_mb": Metric(_own_peak_rss_mb(), "MiB"),
            "energy_over_bound": Metric(
                sum(reference[j, first][1] for j in range(len(streams)))
                / sum(bounds), "ratio"),
            "energy_wmin": Metric(energy, "W.min"),
        })
        if (0, "ffps") in reference:
            ffps = reference[0, "ffps"][1]
            out.metrics["energy_reduction_pct"] = Metric(
                100.0 * (ffps - energy) / ffps, "%")
        return out

    plain = reps[0]  # the untraced repetitions
    recorder = shims.Recorder()
    shims.install(recorder)
    offline_inputs(name, seed)  # again, for the generate/build spans
    traced_times: list[float] = []
    calls_before = recorder.calls()
    first_delta = None
    for _ in range(spec.traced_reps):
        traced_times.append(wall(repetition(scope=recorder.scope)))
        calls_now = recorder.calls()
        delta = {key: calls_now[key] - calls_before.get(key, 0)
                 for key in calls_now}
        calls_before = calls_now
        if first_delta is None:
            first_delta = delta
        out.op(delta == first_delta,
               "per-layer call counts differ between repetitions")
    dump = recorder.dump()
    totals = shims.merge([dump])
    untraced = statistics.median(wall(rep) for rep in plain)
    extra = {}
    if name == "offline-zoo-1k":  # members' speeds from the untraced pass
        for m in spec.members:
            extra[f"allocators.{m.label}.vms_per_s"] = \
                len(streams[0][m.stream]) / statistics.median(
                    rep[m.label][1] - rep[m.label][0] for rep in plain)
    extra["trace_overhead_pct"] = \
        100.0 * (statistics.median(traced_times) / untraced - 1.0)
    labels = {m.label for m in spec.members}
    out.metrics.update(layer_metrics(
        totals, ops=spec.traced_reps * len(spec.members),
        vms=spec.traced_reps * vms_per_rep, op_labels=labels,
        fleet=spec.servers, extra=extra))
    roots = sum(totals[label]["harness/scope"][1] for label in labels)
    layered = sum(total[2] for label in labels
                  for span, total in totals[label].items()
                  if span != "harness/scope")
    out.info.update(missing_layers=dump["missing_layers"],
                    layer_self_share_of_wall=layered / roots)
    _write_trace(name, seed, {"generator": dump})
    return out


def _own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- serve workloads -----------------------------------------------------------

class Daemon:
    """One daemon child process and the writer's connection to it."""

    def __init__(self, flags: list[str], cal: Calibrator, *,
                 framing: str = "lines",
                 trace_dump: Path | None = None) -> None:
        command = [sys.executable, str(LAUNCHER), "serve"]
        if trace_dump is not None:
            command += ["--trace-dump", str(trace_dump)]
        self._trace_dump = trace_dump
        started = perf_counter()
        self.proc = subprocess.Popen(
            command + flags, text=True, stdout=subprocess.PIPE,
            stdin=subprocess.DEVNULL if trace_dump is None
            else subprocess.PIPE)
        self.client = None
        watchdog = threading.Timer(120.0, self.proc.kill)
        watchdog.start()
        try:
            with cal.ticking():  # bursts beside the child, on its core
                for line in self.proc.stdout:
                    if line.startswith("serving on"):
                        break
                else:
                    raise RuntimeError("daemon exited before serving")
                self.port = int(line.split()[2].rsplit(":", 1)[1])
                self.client = self.connect(framing)
                if not self.client.ping().get("ok"):
                    raise RuntimeError("daemon did not answer ping")
        except BaseException:
            self.kill()
            raise
        finally:
            watchdog.cancel()
        ended = perf_counter()
        #: spawn -> first ``ping`` ok, in reference seconds
        self.ready_s = cal.reference(started, ended)

    def connect(self, framing: str = "lines"):
        return repro.AllocationClient(
            "127.0.0.1", self.port, framing=framing,
            config=repro.ClientConfig(timeout=60.0))

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text() \
                .splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def dump_trace(self) -> dict:
        """The child's recorder, fetched before the SIGKILL."""
        self.proc.stdin.write("dump\n")
        self.proc.stdin.flush()
        for line in self.proc.stdout:
            if line.strip() == "dumped":
                return json.loads(self._trace_dump.read_text())
        raise RuntimeError("daemon exited before dumping its trace")

    def kill(self) -> None:
        """SIGKILL and reap; idempotent."""
        if self.client is not None:
            self.client.close()
        self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            if stream is not None:
                stream.close()


def _book_energy(book: dict, cluster) -> float:
    """Eq.-17 energy of the acknowledged placements, computed offline."""
    plan = repro.Allocation(cluster, {vm: sid for vm, sid in book.values()})
    return repro.energy_report(plan).total_energy


def _apply_split(book: dict, time: int, vm_id: int, head_id,
                 remainder_id: int, stays_on: int, moves_to) -> None:
    """Mirror one failure replacement or migration in the book: the
    head stays where it ran, the remainder moves (or is lost)."""
    vm, _ = book.pop(vm_id)
    if head_id is None:
        remainder = vm  # had not started: moved whole
    else:
        head, remainder = split_vm(vm, time, head_id, remainder_id)
        book[head.vm_id] = (head, stays_on)
    if moves_to is not None:
        book[remainder.vm_id] = (remainder, moves_to)


def _busiest(book: dict, now: int) -> int:
    """The server running the most VMs at ``now`` (lowest id on ties)."""
    running: dict[int, int] = {}
    for vm, sid in book.values():
        if vm.start <= now <= vm.end:
            running[sid] = running.get(sid, 0) + 1
    return min(running, key=lambda sid: (-running[sid], sid))


class _Scraper(threading.Thread):
    """Connection B of ``serve-durable``: ``stats`` and ``metrics``
    alternately every 100 ms, open loop, timed from the due time."""

    def __init__(self, daemon: Daemon) -> None:
        super().__init__(name="e2e-scraper")
        self._client = daemon.connect()
        self._halt = threading.Event()
        self.latencies: list[float] = []
        self.lateness: list[float] = []
        self.errors: list[str] = []

    def run(self) -> None:
        origin = perf_counter()
        k = 0
        try:
            while True:
                due = origin + k * SCRAPE_PERIOD_S
                if self._halt.wait(max(0.0, due - perf_counter())):
                    return
                sent = perf_counter()
                try:
                    if k % 2:
                        ok = bool(self._client.metrics())
                    else:
                        ok = bool(self._client.stats().get("ok"))
                    if not ok:
                        self.errors.append(f"scrape {k}: not ok")
                except repro.ReproError as exc:
                    self.errors.append(f"scrape {k}: {exc}")
                else:
                    self.lateness.append(sent - due)
                    if ok:
                        self.latencies.append(perf_counter() - due)
                k += 1
        finally:
            self._client.close()

    def stop(self) -> None:
        self._halt.set()
        self.join()


@dataclass
class _Stream:
    """What the timed request stream of one pass measured."""
    offered: list
    vms: int
    #: The timed part and each acknowledged operation in it, as
    #: ``(start, end)`` readings of ``perf_counter``.
    window: tuple[float, float] = (0.0, 0.0)
    operations: list[tuple[float, float]] = field(default_factory=list)
    consolidations: list[tuple[float, float]] = field(default_factory=list)
    scraper: _Scraper | None = None


def _stream_places(daemon: Daemon, out: Outcome, seed: int, n_ops: int,
                   book: dict, cal: Calibrator) -> _Stream:
    """``serve-durable``: single ``place`` requests in start order on
    connection A, closed loop, with the scraper on connection B. A
    burst runs between two requests every ``PLACES_PER_BURST``, and
    after a request slower than ``SLOW_PLACE_S``."""
    client = daemon.client
    offered = sorted(
        repro.generate_vms(WARMUP_PLACES + n_ops, 1.0, seed=seed),
        key=lambda v: (v.start, v.end, v.vm_id))
    for vm in offered[:WARMUP_PLACES]:
        reply = client.place(vm)
        if reply.get("decision") == "placed":
            book[vm.vm_id] = (vm, reply["server_id"])
    stream = _Stream(offered, n_ops, scraper=_Scraper(daemon))
    stream.scraper.start()
    try:
        cal.sample(EDGE_BURSTS)
        started = perf_counter()
        for i, vm in enumerate(offered[WARMUP_PLACES:]):
            if i % PLACES_PER_BURST == 0:
                cal.sample()
            sent = perf_counter()
            try:
                reply = client.place(vm)
            except repro.ReproError as exc:
                out.op(False, f"place vm{vm.vm_id}: {exc}")
                continue
            done = perf_counter()
            if done - sent > SLOW_PLACE_S:
                cal.sample()
            decision = reply.get("decision")
            if out.op(bool(reply.get("ok"))
                      and decision in ("placed", "rejected"),
                      f"place vm{vm.vm_id}: {reply.get('error')}"):
                stream.operations.append((sent, done))
                if decision == "placed":
                    book[vm.vm_id] = (vm, reply["server_id"])
        stream.window = (started, perf_counter())
        cal.sample(EDGE_BURSTS)
    finally:
        stream.scraper.stop()
    for problem in stream.scraper.errors:
        out.op(False, problem)
    for _ in stream.scraper.latencies:
        out.op(True)
    return stream


def _stream_batches(daemon: Daemon, out: Outcome, seed: int, n_ops: int,
                    book: dict, cal: Calibrator) -> _Stream:
    """``serve-batch-churn``: ``place_batch`` of 200 over v3 frames, a
    ``tick`` after each, ``consolidate`` every 10th batch, ``fail_server``
    + ``recover_server`` on the busiest server every 25th; batch 0 is the
    warm-up and connection B stays idle. Bursts run before each batch."""
    client = daemon.client
    generated = sorted(
        repro.generate_vms((1 + n_ops) * BATCH, 0.2, 20.0, seed=seed),
        key=lambda v: (v.start, v.end, v.vm_id))
    offered = [repro.VM(vm_id=(i // BATCH) * ID_GAP + i % BATCH,
                        spec=vm.spec, interval=vm.interval)
               for i, vm in enumerate(generated)]
    stream = _Stream(offered, n_ops * BATCH)
    idle = daemon.connect()
    try:
        out.op(bool(idle.ping().get("ok")), "idle connection ping")
        for b in range(1 + n_ops):
            cal.sample(EDGE_BURSTS)
            if b == 1:
                started = perf_counter()
            chunk = offered[b * BATCH:(b + 1) * BATCH]
            try:
                _churn_step(client, out, b, chunk, book, stream, cal)
            except repro.ReproError as exc:
                out.op(False, f"batch {b}: {exc}")
        stream.window = (started, perf_counter())
        cal.sample(EDGE_BURSTS)
    finally:
        idle.close()
    return stream


def _churn_step(client, out: Outcome, b: int, chunk: list, book: dict,
                stream: _Stream, cal: Calibrator) -> None:
    now = chunk[-1].start
    sent = perf_counter()
    reply = client.place_batch(chunk)
    done = perf_counter()
    decisions = reply.get("decisions") or []
    definite = bool(reply.get("ok")) and len(decisions) == len(chunk) \
        and all(d["decision"] in ("placed", "rejected") for d in decisions)
    if out.op(definite, f"batch {b}: {reply.get('error')}") and b:
        stream.operations.append((sent, done))
    for vm, d in zip(chunk, decisions):
        if d["decision"] == "placed":
            book[vm.vm_id] = (vm, d["server_id"])
    out.op(bool(client.tick(now).get("ok")), f"tick after batch {b}")
    if b and b % 10 == 0:
        cal.sample(EDGE_BURSTS)
        sent = perf_counter()
        reply = client.consolidate()
        done = perf_counter()
        cal.sample(EDGE_BURSTS)
        if out.op(bool(reply.get("ok")),
                  f"consolidate after batch {b}: {reply.get('error')}"):
            stream.consolidations.append((sent, done))
            for move in reply["moves"]:
                _apply_split(book, reply["time"], move["vm_id"],
                             move["head_id"], move["remainder_id"],
                             move["source_id"], move["target_id"])
    if b and b % 25 == 0:
        victim = _busiest(book, now)
        reply = client.fail_server(victim)
        if out.op(bool(reply.get("ok")),
                  f"fail_server {victim}: {reply.get('error')}"):
            for r in reply["replacements"]:
                _apply_split(book, reply["time"], r["vm_id"], r["head_id"],
                             r["remainder_id"], victim, r["server_id"])
        out.op(bool(client.recover_server(victim).get("ok")),
               f"recover_server {victim}")


@dataclass
class _Pass:
    """What one daemon lifetime (spawn .. kill .. restore) measured."""
    ready: list[float]
    stream: _Stream
    energy: float
    rss_mb: float
    restore_s: float
    journal_bytes: int
    ticks: int
    dumps: dict


def _serve_pass(name: str, out: Outcome, seed: int, n_ops: int,
                traced: bool, setup_repeats: int, cal: Calibrator) -> _Pass:
    durable = name == "serve-durable"
    framing = "lines" if durable else "frames"
    flags = ["--servers", str(SERVE_SERVERS)] + (
        ["--algorithm", "min-energy"] if durable
        else ["--algorithm", "first-fit", "--migration-k", "8"])
    run_dir = OUT / f"run-{name}-{seed}-{'traced' if traced else 'plain'}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    dumps: dict = {}
    daemon = None
    try:
        ready = []
        for i in range(setup_repeats):
            if daemon is not None:
                daemon.kill()
            data_dir = run_dir / f"data-{i}"
            daemon = Daemon(
                flags + ["--data-dir", str(data_dir)], cal, framing=framing,
                trace_dump=run_dir / "daemon-trace.json" if traced
                else None)
            ready.append(daemon.ready_s)
        book: dict = {}  # vm_id -> (VM, server_id), as acknowledged
        stream = (_stream_places if durable else _stream_batches)(
            daemon, out, seed, n_ops, book, cal)

        # Every request got its decision; now the books must agree.
        before = daemon.client.stats()
        expected = _book_energy(
            book, repro.Cluster.paper_all_types(SERVE_SERVERS))
        out.op(math.isclose(before["energy_total"], expected,
                            rel_tol=1e-9),
               f"stats energy {before['energy_total']!r} != offline "
               f"energy_report of the acknowledged placements "
               f"{expected!r}")
        rss = daemon.peak_rss_mb()
        journal_bytes = (data_dir / JOURNAL_NAME).stat().st_size
        if traced:
            dumps["daemon"] = daemon.dump_trace()
        # Durability: SIGKILL after the last acknowledged reply, then
        # --restore must come back to exactly the acknowledged state.
        daemon.kill()
        daemon = Daemon(
            ["--data-dir", str(data_dir), "--restore"], cal, framing=framing,
            trace_dump=run_dir / "restored-trace.json" if traced else None)
        after = daemon.client.stats()
        keys = ("placed", "clock", "energy_total")
        out.op(all(after.get(key) == before.get(key) for key in keys),
               "restored stats "
               f"{[after.get(key) for key in keys]} != acknowledged "
               f"{[before.get(key) for key in keys]}")
        if traced:
            dumps["restored"] = daemon.dump_trace()
        return _Pass(ready=ready, stream=stream,
                     energy=before["energy_total"], rss_mb=rss,
                     restore_s=daemon.ready_s,
                     journal_bytes=journal_bytes, ticks=before["clock"],
                     dumps=dumps)
    finally:
        if daemon is not None:
            daemon.kill()
        shutil.rmtree(run_dir, ignore_errors=True)


def run_serve(name: str, seed: int, seconds: int, trace: bool) -> Outcome:
    durable = name == "serve-durable"
    out = Outcome(name, seed, trace)
    n_ops = seconds * (DURABLE_PLACES_PER_S if durable
                       else CHURN_BATCHES_PER_S)
    # p99 would sit on the edge between plain requests and the 1 % that
    # write a snapshot (--snapshot-every 100), flipping between the two
    # populations; p99.5 is the median snapshot-writing request.
    tail_q, tail_name = (0.995, "p99.5") if durable else (0.9, "p90")
    out.info.update(tail=tail_name)
    cal = Calibrator()
    if not trace:
        run = _serve_pass(name, out, seed, n_ops, False, SETUP_REPEATS, cal)
        stream = run.stream
        bound = repro.energy_lower_bound(
            stream.offered,
            repro.Cluster.paper_all_types(SERVE_SERVERS)).total
        latencies = [cal.reference(*op) for op in stream.operations]
        out.info.update(
            requests=len(latencies), calibration=cal.summary(),
            wall_op_ms_p50=1e3 * statistics.median(
                done - sent for sent, done in stream.operations),
            wall_op_ms_tail=1e3 * quantile(sorted(
                done - sent for sent, done in stream.operations), tail_q),
            wall_vms_per_s=stream.vms / (
                stream.window[1] - stream.window[0] - cal.inside(
                    *stream.window)))
        out.metrics.update({
            "setup_s": median_of(run.ready, "s"),
            "vms_per_s": Metric(
                stream.vms / cal.reference(*stream.window), "1/s"),
            "op_ms_p50": median_of(latencies, "ms", 1e3),
            "op_ms_tail": tail_of(latencies, tail_q),
            "rss_mb": Metric(run.rss_mb, "MiB"),
            "energy_over_bound": Metric(run.energy / bound, "ratio"),
            "energy_wmin": Metric(run.energy, "W.min"),
            "restore_s": Metric(run.restore_s, "s"),
        })
        if durable:
            scrapes = stream.scraper.latencies
            out.metrics["scrape_ms_p50"] = median_of(scrapes, "ms", 1e3)
            out.metrics["scrape_ms_p90"] = tail_of(scrapes, 0.9)
            out.info["generator_late_ms_max"] = \
                1e3 * max(stream.scraper.lateness)
        elif stream.consolidations:  # none before the 10th batch
            out.metrics["consolidate_ms_p50"] = median_of(
                [cal.reference(*op) for op in stream.consolidations],
                "ms", 1e3)
        return out

    # At least 25 batches, so the traced pass sees a failure episode.
    n_traced = max(n_ops // TRACE_SHARE, 0 if durable else 25)
    plain = _serve_pass(name, out, seed, n_traced, False, 1, cal)
    recorder = shims.Recorder()
    shims.install(recorder)
    traced = _serve_pass(name, out, seed, n_traced, True, 1, cal)
    out.op(traced.energy == plain.energy and
           traced.journal_bytes == plain.journal_bytes,
           "traced and untraced passes of one seed disagree on energy "
           "or journal bytes")
    dumps = {"generator": recorder.dump(), **traced.dumps}
    live = shims.merge([dumps["generator"], dumps["daemon"]])
    # Of the restored daemon only the restore itself counts: its replay
    # re-enters commit, advance_to and the rest under that root.
    for label, names in dumps["restored"]["totals"].items():
        for span in ("service.persistence/restore",
                     "service.persistence/read_journal"):
            if span in names:
                live.setdefault(label, {})[span] = names[span]
    op = "place" if durable else "place_batch"
    # The daemon's spans cover the warm-up requests too.
    ops = n_traced + (WARMUP_PLACES if durable else 1)
    out.metrics.update(layer_metrics(
        live, ops=ops, vms=ops if durable else ops * BATCH, op_labels={op},
        client_label=f"service.client/{op}", fleet=SERVE_SERVERS,
        ticks=traced.ticks, journal_bytes=traced.journal_bytes,
        extra={"trace_overhead_pct": 100.0 * (
            cal.reference(*traced.stream.window)
            / cal.reference(*plain.stream.window) - 1.0)}))
    tree = live.get(op, {})
    handle = tree.get("service.daemon/handle_line", [0, 1])[1]
    out.info.update(
        requests=n_traced,
        missing_layers=sorted({m for d in dumps.values()
                               for m in d["missing_layers"]}),
        handle_line_self_share=sum(t[2] for t in tree.values()) / handle)
    _write_trace(name, seed, dumps)
    return out


# -- per-layer metrics ---------------------------------------------------------

def layer_metrics(totals: dict, *, ops: int, vms: int, op_labels: set,
                  fleet: int, client_label: str = "", ticks: int = 0,
                  journal_bytes: int = 0, extra: dict | None = None
                  ) -> dict[str, Metric]:
    """Every per-layer metric of BENCHMARK.json from merged span totals.

    ``op_labels`` are the root labels of the workload's own operations
    (zoo members, or the writer's op in the daemon); ``client_label``
    is the writer's root in the generator. Times are microseconds per
    VM placed or per request; a layer the workload never enters reads
    0, as does one listed under ``missing_layers``.
    """
    def span(name: str, labels=None) -> list[int]:
        summed = [0, 0, 0, 0, 0]
        for label, names in totals.items():
            if labels is not None and label not in labels:
                continue
            for i, value in enumerate(names.get(name, ())):
                summed[i] += value
        return summed

    def per(ns: float, count: float) -> float:
        return ns / 1e3 / count if count else 0.0

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    CALLS, TOTAL, SELF, UNITS, HITS = range(5)
    work = op_labels
    values: dict[str, tuple[float, str]] = {}

    def put(name: str, value: float, unit: str = "us") -> None:
        values[name] = (float(value), unit)

    generate = span("workload.generator/generate_vms")
    put("workload.generator.generate_us",
        per(generate[TOTAL], generate[CALLS]))
    build = span("model.cluster/paper_all_types")
    put("model.cluster.build_us", per(build[TOTAL], build[CALLS]))

    select = span("allocators/select", work)
    sharded = span("allocators/select_sharded", work)
    put("allocators.allocate_self_us_per_vm",
        per(span("allocators/allocate", work)[SELF], vms))
    put("allocators.select_self_us_per_vm",
        per(select[SELF] + sharded[SELF], vms))
    put("allocators.select_calls", select[CALLS], "count")
    for label in ZOO_MEMBERS:
        put(f"allocators.{label}.vms_per_s", 0.0, "1/s")

    lookups = [span(f"placement.index/{name}", work) for name in
               ("candidates", "candidate_positions", "groups_for")]
    lookup_calls = sum(s[CALLS] for s in lookups)
    candidates = sum(s[UNITS] for s in lookups)
    put("placement.index.lookup_us_per_vm",
        per(sum(s[TOTAL] for s in lookups), vms))
    put("placement.index.update_us_per_vm",
        per(span("placement.index/server_state_changed", work)[TOTAL], vms))
    put("placement.index.candidates_per_vm", ratio(candidates, vms), "count")
    put("placement.index.pruned_share",
        1.0 - ratio(candidates, lookup_calls * fleet) if lookup_calls
        else 0.0, "ratio")

    probe_fleet = span("placement.kernels/probe_fleet", work)
    put("placement.kernels.probe_us_per_vm",
        per(probe_fleet[SELF]
            + span("placement.kernels/probe_one", work)[SELF], vms))
    put("placement.kernels.probe_calls_per_vm",
        ratio(probe_fleet[CALLS], vms), "count")
    put("placement.kernels.rows_probed_per_vm",
        ratio(probe_fleet[UNITS], vms), "count")
    put("placement.kernels.feasible_share",
        ratio(probe_fleet[HITS], probe_fleet[UNITS]), "ratio")
    put("placement.kernels.sync_us_per_vm",
        per(span("placement.kernels/sync", work)[TOTAL], vms))

    probe = span("allocators.state/probe", work)
    cost = span("allocators.state/incremental_cost", work)
    put("allocators.state.probe_us_per_vm", per(probe[SELF], vms))
    put("allocators.state.probe_calls_per_vm",
        ratio(probe[CALLS], vms), "count")
    put("allocators.state.cost_us_per_vm", per(cost[SELF], vms))
    put("allocators.state.cost_calls_per_vm",
        ratio(cost[CALLS], vms), "count")
    put("allocators.state.place_us_per_vm",
        per(span("allocators.state/place", work)[SELF]
            + span("allocators.state/place_trusted", work)[SELF], vms))
    put("allocators.state.retire_us_per_vm",
        per(span("allocators.state/retire")[TOTAL], vms))
    put("energy.accounting.report_us_per_vm",
        per(span("energy.accounting/energy_report", work)[TOTAL], vms))

    client = {client_label}
    rtt = span(client_label)
    handle_line = span("service.daemon/handle_line", work)
    client_codec = (span("service.protocol/encode", client)[TOTAL]
                    + span("service.protocol/parse_response", client)[TOTAL]
                    + span("service.framing/encode_frame", client)[TOTAL])
    put("service.client.rtt_us", per(rtt[TOTAL], rtt[CALLS]))
    put("service.client.client_self_us", per(client_codec, rtt[CALLS]))
    put("service.aio.transport_us",
        per(rtt[TOTAL] - client_codec, rtt[CALLS])
        - per(handle_line[TOTAL], handle_line[CALLS]))
    both = work | client
    put("service.framing.frame_us",
        per(span("service.framing/encode_frame", both)[TOTAL]
            + span("service.framing/feed", both)[TOTAL], ops))

    parse = span("service.protocol/parse_request", work)
    encode = span("service.protocol/encode", work)
    put("service.protocol.parse_us", per(parse[TOTAL], ops))
    put("service.protocol.encode_us", per(encode[TOTAL], ops))
    put("service.protocol.bytes_in_per_op",
        ratio(parse[UNITS], parse[CALLS]), "B")
    put("service.protocol.bytes_out_per_op",
        ratio(encode[UNITS], encode[CALLS]), "B")

    render = span("service.daemon/render_metrics")
    put("service.daemon.handle_self_us",
        per(handle_line[SELF]
            + span("service.daemon/handle", work)[SELF], ops))
    put("service.daemon.render_metrics_us",
        per(render[TOTAL], render[CALLS]))
    put("service.metrics.observe_us",
        per(span("service.metrics/observe_request", work)[TOTAL], ops))

    offer = span("simulation.admission/offer", work)
    put("simulation.admission.offer_us", per(offer[TOTAL], ops))
    put("simulation.admission.offer_self_us", per(offer[SELF], ops))
    put("simulation.admission.rejected_share",
        ratio(offer[HITS], offer[UNITS]), "ratio")

    fail = span("service.state/fail_server")
    consolidate = span("service.state/consolidate")
    to_snapshot = span("service.state/to_snapshot")
    put("service.state.commit_us",
        per(span("service.state/commit", work)[TOTAL], ops))
    put("service.state.advance_us_per_tick",
        per(span("service.state/advance_to")[TOTAL], ticks))
    put("service.state.ticks", ticks, "count")
    put("service.state.fail_us", per(fail[TOTAL], fail[CALLS]))
    put("service.state.consolidate_us",
        per(consolidate[TOTAL], consolidate[CALLS]))
    put("service.state.to_snapshot_us",
        per(to_snapshot[TOTAL], to_snapshot[CALLS]))

    append = span("service.persistence/append")
    save = span("service.persistence/save")
    put("service.persistence.append_us", per(append[TOTAL], append[CALLS]))
    put("service.persistence.appends", append[CALLS], "count")
    put("service.persistence.journal_bytes_per_op",
        ratio(journal_bytes, ops), "B")
    put("service.persistence.snapshot_us", per(save[TOTAL], save[CALLS]))
    put("service.persistence.snapshots", save[CALLS], "count")
    put("service.persistence.snapshot_bytes",
        ratio(save[UNITS], save[CALLS]), "B")
    put("service.persistence.replay_us_per_entry",
        per(span("service.persistence/restore")[TOTAL],
            span("service.persistence/read_journal")[UNITS]))

    plan = span("consolidation.planner/plan_episode")
    put("consolidation.planner.plan_us", per(plan[TOTAL], plan[CALLS]))
    put("consolidation.planner.moves_per_episode",
        ratio(plan[UNITS], plan[CALLS]), "count")
    put("consolidation.planner.bids_per_move",
        ratio(span("consolidation.planner/best_move")[CALLS], plan[UNITS]),
        "count")

    put("trace_overhead_pct", 0.0, "%")
    for name, value in (extra or {}).items():
        put(name, value, values[name][1])
    return {name: Metric(value, unit)
            for name, (value, unit) in values.items()}


def _write_trace(name: str, seed: int, dumps: dict) -> None:
    OUT.mkdir(exist_ok=True)
    (OUT / f"trace-{name}.json").write_text(json.dumps(
        {"workload": name, "seed": seed, "processes": dumps}))


def run(name: str, seed: int, seconds: int, trace: bool) -> Outcome:
    # Child processes inherit the one core, so that the generator's
    # bursts read the speed of the core a daemon or a set-up probe runs
    # on; a closed loop never has both sides busy at once.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    runner = run_offline if name in OFFLINE else run_serve
    return runner(name, seed, seconds, trace)
