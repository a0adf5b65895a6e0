"""Service metrics and their Prometheus text exposition.

A family is declared once, as a row of one of the four tables below —
scalar counters, :class:`Histogram` families, gauges read live off the
:class:`~repro.service.state.ClusterStateStore` (Eq.-1 fleet power,
servers by power state, the Eq.-17 energy of the plan, integrated and
peak power of the closed ticks) and the SLO tracker's objectives and
burn rates — and :class:`ServiceMetrics` builds its attributes, the
snapshot meta and the page by looping over them. Beside the tables sit
the decisions-by-outcome counters (plain and labelled per algorithm)
and a bounded reservoir of placement latencies (p50/p99).

The exposition follows the Prometheus text format, version 0.0.4:
``# HELP`` / ``# TYPE`` comments followed by ``name{labels} value``
sample lines, one metric family per block; histograms expose the
cumulative ``_bucket`` series (ending in ``le="+Inf"``), ``_sum`` and
``_count``.

Thread safety: the reservoir and each histogram carry a lock — inside
a :class:`ServiceMetrics`, the one that guards its scalar counters too,
so a decision's counts and samples land under one hold. Concurrent
recorders never lose increments, and ``render()`` reads a consistent
snapshot of each family without a daemon-wide lock.
"""

from __future__ import annotations

import bisect
import math
import re
import threading
import time
from collections import deque
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.exceptions import ValidationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.service.state import ClusterStateStore

__all__ = ["LatencyReservoir", "Histogram", "ServiceMetrics",
           "CONTENT_TYPE", "parse_exposition", "escape_label_value",
           "LATENCY_BUCKETS", "CANDIDATE_BUCKETS", "BATCH_BUCKETS",
           "SCAN_BUCKETS", "CONSOLIDATION_BUCKETS"]

#: The HTTP Content-Type of the text exposition format.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_DECISIONS = ("placed", "rejected")

#: Default bucket bounds (seconds) of the placement-latency histogram.
LATENCY_BUCKETS = (0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
                   0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5)

#: Default bucket bounds of the per-decision candidate-count histogram.
CANDIDATE_BUCKETS = (0.0, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0,
                     500.0)

#: Default bucket bounds of the ``place_batch`` batch-size histogram.
BATCH_BUCKETS = (1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
                 1000.0)

#: Default bucket bounds (seconds) of the candidate-scan-time histogram.
SCAN_BUCKETS = (0.00001, 0.000025, 0.00005, 0.0001, 0.00025, 0.0005,
                0.001, 0.0025, 0.005, 0.01, 0.025, 0.05)

#: Default bucket bounds (seconds) of the consolidation-episode
#: duration histogram (episodes plan a whole migration sweep, so the
#: range sits above per-placement latency).
CONSOLIDATION_BUCKETS = (0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
                         0.05, 0.1, 0.25, 0.5, 1.0, 2.5)


class LatencyReservoir:
    """A bounded sliding window of latency samples with quantile reads."""

    def __init__(self, capacity: int = 4096) -> None:
        if capacity <= 0:
            raise ValidationError(
                f"capacity must be positive, got {capacity}")
        # the most recent window: a full deque drops its oldest sample
        self._samples: deque[float] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self.count = 0
        self.total = 0.0

    def observe(self, seconds: float) -> None:
        self.observe_many((seconds,))

    def observe_many(self, seconds: Sequence[float]) -> None:
        """One sample per entry, in order, under one lock hold."""
        with self._lock:
            self._fold(seconds)

    def _fold(self, seconds: Sequence[float]) -> None:
        """:meth:`observe_many` for a caller holding the lock."""
        self.count += len(seconds)
        self.total += sum(seconds)
        self._samples.extend(seconds)

    def quantile(self, q: float) -> float:
        """The q-quantile of the window, by the nearest-rank definition.

        Edge cases are pinned down rather than left to interpolation:
        an empty reservoir reports ``0.0`` (there is nothing to
        summarise), a single sample *is* every quantile, and for ``n``
        samples the rank is ``ceil(q * n)`` clamped to ``[1, n]`` — so
        ``p50`` of two samples is the lower one, never a value outside
        the observed set.
        """
        if not 0.0 <= q <= 1.0:
            raise ValidationError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            ordered = sorted(self._samples)
        if not ordered:
            return 0.0
        rank = min(len(ordered), max(1, math.ceil(q * len(ordered))))
        return ordered[rank - 1]


class Histogram:
    """A fixed-bucket cumulative histogram (Prometheus semantics).

    ``bounds`` are the upper bucket bounds (``le``), strictly
    increasing; an implicit ``+Inf`` bucket catches the overflow. The
    exposition renders the cumulative ``_bucket`` series plus ``_sum``
    and ``_count``.
    """

    def __init__(self, bounds: Sequence[float]) -> None:
        if not bounds:
            raise ValidationError("histogram needs at least one bound")
        cleaned = tuple(float(b) for b in bounds)
        if any(b >= c for b, c in zip(cleaned, cleaned[1:])):
            raise ValidationError(
                f"histogram bounds must be strictly increasing: {cleaned}")
        if any(math.isinf(b) or math.isnan(b) for b in cleaned):
            raise ValidationError(
                "histogram bounds must be finite (+Inf is implicit)")
        self.bounds = cleaned
        #: per-bucket counts, the last one the implicit +Inf bucket's
        self._counts = [0] * (len(cleaned) + 1)
        self._lock = threading.Lock()
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.observe_many((value,))

    def observe_many(self, values: Sequence[float]) -> None:
        """One sample per entry, in order, under one lock hold."""
        with self._lock:
            self._fold(values)

    def _fold(self, values: Sequence[float]) -> None:
        """:meth:`observe_many` for a caller holding the lock."""
        bounds, counts, n = self.bounds, self._counts, self.count
        for value in values:
            counts[bisect.bisect_left(bounds, value)] += 1
            self.sum += value
            n += 1
        self.count = n

    def cumulative(self) -> list[tuple[float, int]]:
        """(bound, cumulative count) pairs, ending with ``(inf, count)``."""
        pairs, _, _ = self.snapshot()
        return pairs

    def snapshot(self) -> tuple[list[tuple[float, int]], float, int]:
        """One consistent read: (cumulative pairs, sum, count)."""
        with self._lock:
            counts = list(self._counts)
            total, count = self.sum, self.count
        pairs: list[tuple[float, int]] = []
        running = 0
        for bound, bucket in zip(self.bounds, counts):
            running += bucket
            pairs.append((bound, running))
        pairs.append((math.inf, count))
        return pairs, total, count


#: Scalar counters: ``attribute -> (family, HELP, zero)``. The attribute
#: is the public read (``metrics.errors``), the :meth:`count` keyword
#: and the ``meta.counters`` key; ``zero`` fixes the value's type.
_COUNTERS = {attribute: row for attribute, *row in (
    ("delayed", "repro_requests_delayed_total",
     "Requests admitted only after a queueing delay.", 0),
    ("errors", "repro_request_errors_total",
     "Malformed or unserviceable protocol requests.", 0),
    ("overloaded", "repro_requests_overloaded_total",
     "Requests shed by the bounded ingest queue.", 0),
    ("failures", "repro_failures_total",
     "Server-failure episodes served (fail_server ops).", 0),
    ("replacements", "repro_replacements_total",
     "VM remainders re-placed onto surviving servers after failures.", 0),
    ("vms_lost", "repro_vms_lost_total",
     "VM remainders that fit no surviving server after a failure.", 0),
    ("migrations", "repro_migrations_total",
     "Live migrations committed by consolidation episodes.", 0),
    ("servers_freed", "repro_servers_freed_total",
     "Servers drained empty by consolidation episodes.", 0),
    ("consolidation_energy_saved", "repro_consolidation_energy_saved",
     "Net Eq.-17 energy saved by consolidation episodes (migration costs "
     "already deducted).", 0.0),
)}

#: Histograms: ``(attribute, family, HELP, bucket bounds)``.
_HISTOGRAMS = (
    ("latency_hist", "repro_placement_duration_seconds",
     "Histogram of service-side placement decision latency.",
     LATENCY_BUCKETS),
    ("candidates", "repro_placement_candidates",
     "Histogram of feasible candidate servers per placement decision.",
     CANDIDATE_BUCKETS),
    ("batch_size", "repro_batch_size",
     "Histogram of VM counts per place_batch request.", BATCH_BUCKETS),
    ("scan", "repro_shard_scan_seconds",
     "Histogram of candidate scan durations, one per placement decision.",
     SCAN_BUCKETS),
    ("consolidation_duration", "repro_consolidation_duration_seconds",
     "Histogram of consolidation episode durations (plan + apply + "
     "journal).", CONSOLIDATION_BUCKETS),
)

#: Families read live off the store: ``(family, type, HELP, read)``;
#: each ``read(store)`` is O(1) or O(awake servers) — the closed-tick
#: families read the store's running totals, not a series.
_STORE_FAMILIES = (
    ("repro_fleet_power_watts", "gauge",
     "Instantaneous fleet power draw (Eq. 1).",
     lambda store: store.fleet_power()),
    ("repro_servers_active", "gauge",
     "Servers currently in the active power state.",
     lambda store: store.servers_active()),
    ("repro_servers_asleep", "gauge",
     "Servers currently in the power-saving state.",
     lambda store: store.servers_asleep()),
    ("repro_servers_failed", "gauge",
     "Servers currently in the failed state.",
     lambda store: store.servers_failed()),
    ("repro_running_vms", "gauge",
     "VM demand pieces currently resident on the fleet.",
     lambda store: store.running_vms()),
    ("repro_clock_ticks", "gauge",
     "Current wall-clock tick of the cluster state.",
     lambda store: store.clock),
    ("repro_vms_placed", "gauge",
     "VMs committed to the plan since daemon start.",
     lambda store: store.placement_count()),
    ("repro_energy_accumulated_watt_ticks", "gauge",
     "Analytic Eq.-17 energy of the plan; cut placements lower it.",
     lambda store: store.energy_accumulated),
    ("repro_busy_energy_watt_ticks", "counter",
     "Integrated live fleet power over closed ticks.",
     lambda store: store.busy_energy),
    ("repro_power_peak_watts", "gauge",
     "Peak per-tick fleet power over closed ticks.",
     lambda store: store.power_peak),
)

#: SLO families: ``(family, type, HELP, section, key)`` — a path into
#: :meth:`repro.obs.slo.SLOTracker.report`; the ``windows`` section is
#: a list, rendered as one ``window``-labelled sample per entry.
_SLO_FAMILIES = (
    ("repro_slo_latency_objective_seconds", "gauge",
     "Per-request latency threshold of the latency SLO.",
     "config", "latency_objective"),
    ("repro_slo_latency_target", "gauge",
     "Required fraction of requests under the latency objective.",
     "config", "latency_target"),
    ("repro_slo_availability_target", "gauge",
     "Required fraction of requests answered without error.",
     "config", "availability_target"),
    ("repro_slo_requests_total", "counter",
     "Requests observed by the SLO tracker.", "totals", "requests"),
    ("repro_slo_errors_total", "counter",
     "Requests the SLO tracker counted as errored.", "totals", "errors"),
    ("repro_slo_slow_requests_total", "counter",
     "Requests slower than the latency objective.", "totals", "slow"),
    ("repro_slo_latency_burn_rate", "gauge",
     "Latency error-budget burn rate per trailing window (1.0 = spending "
     "the budget exactly at the allowed rate).",
     "windows", "latency_burn_rate"),
    ("repro_slo_availability_burn_rate", "gauge",
     "Availability error-budget burn rate per trailing window.",
     "windows", "availability_burn_rate"),
)


class ServiceMetrics:
    """Counters + latency reservoir + histograms, rendered as Prometheus
    text. A scalar counter or a histogram is an attribute named by its
    row in the tables above; only build info, uptime, the two labelled
    decision counters and the latency summary are written out by hand."""

    def __init__(self) -> None:
        #: guards the scalar counters below, and is the lock of each
        #: histogram family and of the reservoir too
        self._lock = threading.Lock()
        self.requests = {decision: 0 for decision in _DECISIONS}
        for attribute, (_, _, zero) in _COUNTERS.items():
            setattr(self, attribute, zero)
        self.latency = LatencyReservoir()
        self.latency._lock = self._lock
        for attribute, _, _, bounds in _HISTOGRAMS:
            histogram = Histogram(bounds)
            histogram._lock = self._lock
            setattr(self, attribute, histogram)
        #: (algorithm, decision) -> count; the labelled twin of
        #: ``requests`` once an algorithm is registered.
        self.decisions: dict[tuple[str, str], int] = {}
        #: Static build labels rendered as ``repro_build_info``.
        self.build_info: dict[str, str] = {}
        #: Monotonic birth time; ``repro_uptime_seconds`` reads off it.
        self.started = time.monotonic()

    def set_build_info(self, **labels: object) -> None:
        """Set the static labels of the ``repro_build_info`` gauge
        (version, algorithm, engine, ...). Called once at daemon
        construction, before any concurrent scrape."""
        self.build_info = {str(key): str(value)
                           for key, value in labels.items()}

    def register_algorithm(self, algorithm: str) -> None:
        """Pre-seed the labelled decision counters at zero, so scrapes
        see the full family from the first request on."""
        with self._lock:
            for decision in _DECISIONS:
                self.decisions.setdefault((algorithm, decision), 0)

    def observe_request(self, *, placed: int = 0, rejected: int = 0,
                        delayed: int = 0, algorithm: str | None = None,
                        latencies: Sequence[float] = (),
                        candidates: Sequence[float] = (),
                        scans: Sequence[float] = ()) -> None:
        """Count decided placement requests and take their samples, one
        per decision and family — one decision's, a batch's or, for a
        journal-replayed entry, none — under one lock hold. A decision
        that raised before it was counted leaves a scan only."""
        with self._lock:
            self.delayed += delayed
            for decision, n in (("placed", placed), ("rejected", rejected)):
                self.requests[decision] += n
                if n and algorithm is not None:
                    key = (algorithm, decision)
                    self.decisions[key] = self.decisions.get(key, 0) + n
            self.latency._fold(latencies)
            self.latency_hist._fold(latencies)
            self.candidates._fold(candidates)
            self.scan._fold(scans)

    def count(self, **increments: float) -> None:
        """Add to scalar counters by ``_COUNTERS`` key, under one lock
        hold: ``count(failures=1, vms_lost=2)``."""
        unknown = increments.keys() - _COUNTERS.keys()
        if unknown:
            raise ValidationError(f"no such counter: {sorted(unknown)}")
        with self._lock:
            for attribute, n in increments.items():
                setattr(self, attribute, getattr(self, attribute) + n)

    def observe_consolidation(self, *, moves: int, servers_freed: int,
                              energy_saved: float,
                              duration_seconds: float | None = None
                              ) -> None:
        """Count one consolidation episode's migrations and yield;
        ``duration_seconds`` is ``None`` for a journal-replayed episode
        (the original timing is gone, only the counters advance)."""
        self.count(migrations=moves, servers_freed=servers_freed,
                   consolidation_energy_saved=energy_saved)
        if duration_seconds is not None:
            self.consolidation_duration.observe(duration_seconds)

    # -- persistence (latency/candidate windows are not restorable) --------

    def to_meta(self) -> dict[str, object]:
        with self._lock:
            return {"requests": dict(self.requests),
                    **{attribute: getattr(self, attribute)
                       for attribute in _COUNTERS},
                    "decisions": {f"{algorithm}\t{decision}": count
                                  for (algorithm, decision), count
                                  in self.decisions.items()}}

    def restore_meta(self, meta: Mapping[str, object]) -> None:
        with self._lock:
            requests = meta.get("requests")
            if isinstance(requests, Mapping):
                for decision in _DECISIONS:
                    self.requests[decision] = int(requests.get(decision, 0))
            for attribute, (_, _, zero) in _COUNTERS.items():
                setattr(self, attribute,
                        type(zero)(meta.get(attribute, zero)))
            decisions = meta.get("decisions")
            if isinstance(decisions, Mapping):
                for key, count in decisions.items():
                    algorithm, _, decision = str(key).partition("\t")
                    self.decisions[(algorithm, decision)] = int(count)

    # -- exposition --------------------------------------------------------

    def render(self, store: "ClusterStateStore", *,
               slo: object | None = None) -> str:
        """The full Prometheus text page for this daemon.

        ``slo`` is any object with a ``report()`` shaped like
        :meth:`repro.obs.slo.SLOTracker.report`; when given, the
        ``repro_slo_*`` objective and burn-rate families are appended.
        """
        with self._lock:
            requests = dict(self.requests)
            decisions = sorted(self.decisions.items())
            counts = [getattr(self, attribute) for attribute in _COUNTERS]
        lines: list[str] = []

        def family(name: str, kind: str, help_text: str,
                   samples: list[tuple[str, float]]) -> None:
            lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {kind}")
            for suffix, value in samples:
                lines.append(f"{name}{suffix} {value:.10g}")

        build_labels = "".join(
            f'{key}="{escape_label_value(value)}",'
            for key, value in sorted(self.build_info.items())).rstrip(",")
        family("repro_build_info", "gauge",
               "Build metadata of this daemon (constant 1; the labels "
               "carry version/algorithm/engine).",
               [(f"{{{build_labels}}}" if build_labels else "", 1.0)])
        family("repro_uptime_seconds", "gauge",
               "Seconds since this daemon process was constructed.",
               [("", time.monotonic() - self.started)])
        family("repro_requests_total", "counter",
               "Placement requests by final decision.",
               [(f'{{decision="{escape_label_value(d)}"}}',
                 float(requests[d])) for d in _DECISIONS])
        family("repro_decisions_total", "counter",
               "Placement decisions by algorithm and outcome.",
               [(f'{{algorithm="{escape_label_value(algorithm)}",'
                 f'decision="{escape_label_value(decision)}"}}',
                 float(count))
                for (algorithm, decision), count in decisions])
        for (name, help_text, _), value in zip(_COUNTERS.values(), counts):
            family(name, "counter", help_text, [("", float(value))])
        family("repro_placement_latency_seconds", "summary",
               "Service-side latency of placement decisions.",
               [('{quantile="0.5"}', self.latency.quantile(0.5)),
                ('{quantile="0.99"}', self.latency.quantile(0.99)),
                ("_sum", self.latency.total),
                ("_count", float(self.latency.count))])
        for attribute, name, help_text, _ in _HISTOGRAMS:
            pairs, total, count = getattr(self, attribute).snapshot()
            family(name, "histogram", help_text, [])
            for bound, cumulative in pairs:
                le = "+Inf" if math.isinf(bound) else f"{bound:.10g}"
                lines.append(f'{name}_bucket{{le="{le}"}} {cumulative}')
            lines.append(f"{name}_sum {total:.10g}")
            lines.append(f"{name}_count {count}")
        for name, kind, help_text, read in _STORE_FAMILIES:
            family(name, kind, help_text, [("", float(read(store)))])
        if slo is not None:
            report = slo.report()
            for name, kind, help_text, section, key in _SLO_FAMILIES:
                part = report[section]
                family(name, kind, help_text,
                       [(f'{{window="{w["window_seconds"]:.10g}"}}',
                         float(w[key])) for w in part]
                       if isinstance(part, list)
                       else [("", float(part[key]))])
        return "\n".join(lines) + "\n"


def escape_label_value(value: str) -> str:
    """Escape a label value per the text format: ``\\``, ``"``, newline."""
    return value.replace("\\", "\\\\").replace('"', '\\"') \
        .replace("\n", "\\n")


_SAMPLE_RE = re.compile(
    r'^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)'
    r'(?:\{(?P<labels>.*)\})?'
    r'\s+(?P<value>\S+)(?:\s+\S+)?$')
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


_UNESCAPED = {"\\\\": "\\", '\\"': '"', "\\n": "\n"}


def _unescape(value: str) -> str:
    """Invert :func:`escape_label_value` in one left-to-right pass
    (pass by pass, the escaped backslash before an ``n`` reads as a
    newline)."""
    return re.sub(r'\\[\\"n]', lambda m: _UNESCAPED[m.group()], value)


def parse_exposition(text: str) -> dict[str, list[tuple[dict, float]]]:
    """Parse a text-format page into ``name -> [(labels, value)]``.

    A lenient scrape used by ``repro client`` to summarise the daemon's
    metrics; the strict conformance checks live in the test suite.
    """
    samples: dict[str, list[tuple[dict, float]]] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            continue
        labels = {key: _unescape(value) for key, value
                  in _LABEL_RE.findall(match.group("labels") or "")}
        try:
            value = float(match.group("value"))
        except ValueError:
            continue
        samples.setdefault(match.group("name"), []).append((labels, value))
    return samples
