"""Service metrics: reservoir edge cases, histograms, and strict
conformance of the Prometheus text exposition (format version 0.0.4)."""

from __future__ import annotations

import ast
import inspect
import json
import math
import re
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from repro.exceptions import ValidationError
from repro.model.cluster import Cluster
from repro.model.server import ServerSpec
from repro.obs.slo import SLOConfig, SLOTracker
from repro.service import (
    AllocationDaemon,
    ClusterStateStore,
    Histogram,
    consolidate_request,
    fail_server_request,
    parse_exposition,
    place_batch_request,
    place_request,
    recover_server_request,
)
from repro.service import metrics as metrics_module
from repro.service.metrics import (
    CANDIDATE_BUCKETS,
    CONSOLIDATION_BUCKETS,
    LATENCY_BUCKETS,
    LatencyReservoir,
    ServiceMetrics,
    escape_label_value,
)
from repro.workload.generator import generate_vms

from conftest import make_vm

SPEC = ServerSpec("s", cpu_capacity=10.0, memory_capacity=10.0,
                  p_idle=50.0, p_peak=100.0, transition_time=1.0)


class TestLatencyReservoir:
    def test_empty_reservoir_reports_zero(self):
        reservoir = LatencyReservoir()
        for q in (0.0, 0.5, 0.99, 1.0):
            assert reservoir.quantile(q) == 0.0
        assert reservoir.count == 0
        assert reservoir.total == 0.0

    def test_single_sample_is_every_quantile(self):
        reservoir = LatencyReservoir()
        reservoir.observe(0.25)
        for q in (0.0, 0.01, 0.5, 0.99, 1.0):
            assert reservoir.quantile(q) == 0.25

    def test_nearest_rank_two_samples(self):
        reservoir = LatencyReservoir()
        reservoir.observe(2.0)
        reservoir.observe(1.0)
        # ceil(0.5 * 2) = 1 -> the lower sample, never an interpolation
        assert reservoir.quantile(0.5) == 1.0
        assert reservoir.quantile(0.51) == 2.0
        assert reservoir.quantile(1.0) == 2.0

    def test_quantile_zero_clamps_to_first_rank(self):
        reservoir = LatencyReservoir()
        for value in (3.0, 1.0, 2.0):
            reservoir.observe(value)
        assert reservoir.quantile(0.0) == 1.0

    def test_quantiles_always_come_from_observed_set(self):
        reservoir = LatencyReservoir()
        values = [float(i) for i in range(17)]
        for value in values:
            reservoir.observe(value)
        for q in (0.0, 0.1, 0.25, 0.5, 0.9, 0.99, 1.0):
            assert reservoir.quantile(q) in values

    def test_out_of_range_quantile_rejected(self):
        reservoir = LatencyReservoir()
        with pytest.raises(ValidationError):
            reservoir.quantile(1.5)
        with pytest.raises(ValidationError):
            reservoir.quantile(-0.1)

    def test_window_overwrites_oldest_beyond_capacity(self):
        reservoir = LatencyReservoir(capacity=4)
        for value in (9.0, 9.0, 9.0, 9.0, 1.0, 2.0):
            reservoir.observe(value)
        assert reservoir.count == 6
        assert reservoir.quantile(0.0) == 1.0  # the 9.0s are rotating out
        assert reservoir.total == pytest.approx(39.0)

    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ValidationError):
            LatencyReservoir(capacity=0)


class TestHistogram:
    def test_cumulative_buckets_and_overflow(self):
        hist = Histogram((1.0, 2.0, 5.0))
        for value in (0.5, 1.0, 1.5, 3.0, 100.0):
            hist.observe(value)
        assert hist.cumulative() == [(1.0, 2), (2.0, 3), (5.0, 4),
                                     (math.inf, 5)]
        assert hist.count == 5
        assert hist.sum == pytest.approx(106.0)

    def test_boundary_value_lands_in_le_bucket(self):
        hist = Histogram((1.0,))
        hist.observe(1.0)  # le="1.0" is inclusive
        assert hist.cumulative()[0] == (1.0, 1)

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValidationError):
            Histogram(())
        with pytest.raises(ValidationError):
            Histogram((1.0, 1.0))
        with pytest.raises(ValidationError):
            Histogram((2.0, 1.0))
        with pytest.raises(ValidationError):
            Histogram((1.0, math.inf))


def conformant_families(text: str) -> dict[str, dict]:
    """Strictly validate a text-format 0.0.4 page; returns the families.

    Checks the structural rules the format mandates: every sample line
    belongs to the family announced by the preceding ``# HELP``/``# TYPE``
    pair (HELP first, TYPE second, each exactly once per family), metric
    and label names are legal, label values use only the three escapes,
    values parse as floats, histogram ``_bucket`` series are cumulative
    and end in an ``le="+Inf"`` bucket equal to ``_count``.
    """
    name_re = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
    label_re = re.compile(
        r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\\n]|\\\\|\\"|\\n)*)"')
    families: dict[str, dict] = {}
    current: str | None = None
    for line in text.splitlines():
        if line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            name, _, help_text = rest.partition(" ")
            assert name_re.match(name), name
            assert name not in families, f"duplicate HELP for {name}"
            assert help_text.strip(), f"empty HELP for {name}"
            families[name] = {"type": None, "samples": []}
            current = name
        elif line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, kind = rest.partition(" ")
            assert name == current, \
                f"TYPE {name} does not follow its HELP"
            assert families[name]["type"] is None, f"duplicate TYPE {name}"
            assert kind in ("counter", "gauge", "summary", "histogram")
            families[name]["type"] = kind
        elif line.startswith("#"):
            continue  # free-form comment
        else:
            assert line == line.strip() and line, f"stray line {line!r}"
            match = re.match(
                r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{(.*)\})?\s(\S+)$", line)
            assert match, f"malformed sample line {line!r}"
            name, _, labels, value = match.groups()
            assert current is not None, f"sample before any family: {line}"
            kind = families[current]["type"]
            suffixes = {"summary": ("", "_sum", "_count"),
                        "histogram": ("_bucket", "_sum", "_count")}
            allowed = [current + s for s in suffixes.get(kind, ("",))]
            assert name in allowed, \
                f"sample {name} outside its family {current}"
            if labels:
                consumed = label_re.sub("", labels).strip(",")
                assert consumed == "", f"bad labels in {line!r}"
            float(value)  # must parse
            families[current]["samples"].append(
                (name, dict(label_re.findall(labels or "")), float(value)))
    for name, family in families.items():
        assert family["type"] is not None, f"family {name} lacks TYPE"
        if family["type"] == "histogram":
            buckets = [(s[1]["le"], s[2]) for s in family["samples"]
                       if s[0] == f"{name}_bucket"]
            counts = [s[2] for s in family["samples"]
                      if s[0] == f"{name}_count"]
            assert buckets and len(counts) == 1
            assert buckets[-1][0] == "+Inf"
            values = [b[1] for b in buckets]
            assert values == sorted(values), f"{name} not cumulative"
            assert values[-1] == counts[0], \
                f"{name} +Inf bucket != _count"
            bounds = [float(b[0].replace("+Inf", "inf"))
                      for b in buckets]
            assert bounds == sorted(bounds)
    return families


class TestExposition:
    def render(self, *, requests=()):
        store = ClusterStateStore(Cluster.homogeneous(SPEC, 3))
        metrics = ServiceMetrics()
        metrics.register_algorithm("min-energy")
        for decision, latency, candidates in requests:
            metrics.observe_request(**{decision: 1},
                                    algorithm="min-energy",
                                    latencies=[latency],
                                    candidates=[candidates])
        store.commit(make_vm(0, 1, 4), 0)
        store.advance_to(2)
        return metrics.render(store), metrics

    def test_page_is_strictly_conformant(self):
        text, _ = self.render(requests=[
            ("placed", 0.0002, 3), ("placed", 0.004, 1),
            ("rejected", 0.08, 0)])
        families = conformant_families(text)
        assert families["repro_placement_duration_seconds"]["type"] == \
            "histogram"
        assert families["repro_placement_candidates"]["type"] == \
            "histogram"
        assert families["repro_placement_latency_seconds"]["type"] == \
            "summary"
        assert families["repro_decisions_total"]["type"] == "counter"

    def test_histogram_families_expose_every_bucket(self):
        text, _ = self.render(requests=[("placed", 0.0002, 3)])
        families = conformant_families(text)
        latency = families["repro_placement_duration_seconds"]["samples"]
        buckets = [s for s in latency if s[0].endswith("_bucket")]
        assert len(buckets) == len(LATENCY_BUCKETS) + 1
        candidates = families["repro_placement_candidates"]["samples"]
        buckets = [s for s in candidates if s[0].endswith("_bucket")]
        assert len(buckets) == len(CANDIDATE_BUCKETS) + 1

    def test_observation_lands_in_the_right_bucket(self):
        text, metrics = self.render(requests=[("placed", 0.0003, 2)])
        assert metrics.latency_hist.cumulative()[0] == (0.0001, 0)
        families = conformant_families(text)
        samples = families["repro_placement_duration_seconds"]["samples"]
        by_le = {s[1]["le"]: s[2] for s in samples
                 if s[0].endswith("_bucket")}
        assert by_le["0.00025"] == 0
        assert by_le["0.0005"] == 1
        assert by_le["+Inf"] == 1

    def test_decision_counters_are_labelled_and_preseeded(self):
        text, _ = self.render()
        families = conformant_families(text)
        samples = families["repro_decisions_total"]["samples"]
        labels = {(s[1]["algorithm"], s[1]["decision"]): s[2]
                  for s in samples}
        assert labels == {("min-energy", "placed"): 0.0,
                          ("min-energy", "rejected"): 0.0}

    def test_label_escaping_round_trips(self):
        metrics = ServiceMetrics()
        tricky = 'algo"with\\quotes\nand newline'
        metrics.observe_request(placed=1, algorithm=tricky)
        store = ClusterStateStore(Cluster.homogeneous(SPEC, 1))
        text = metrics.render(store)
        conformant_families(text)
        parsed = parse_exposition(text)
        labels = {tuple(sorted(s[0].items()))
                  for s in parsed["repro_decisions_total"]}
        assert (("algorithm", tricky), ("decision", "placed")) in labels

    def test_escape_label_value(self):
        assert escape_label_value('a"b') == 'a\\"b'
        assert escape_label_value("a\\b") == "a\\\\b"
        assert escape_label_value("a\nb") == "a\\nb"

    @given(st.text(alphabet='\\"n\nab '))
    def test_parse_exposition_inverts_the_escaping(self, value):
        # A backslash followed by ``n`` travels as two backslashes and
        # an ``n``; three replace passes read that back as a backslash
        # and a newline.
        line = f'm{{l="{escape_label_value(value)}"}} 1'
        assert parse_exposition(line) == {"m": [({"l": value}, 1.0)]}

    def test_parse_exposition_reads_back_rendered_page(self):
        text, _ = self.render(requests=[("placed", 0.001, 2)])
        parsed = parse_exposition(text)
        assert parsed["repro_requests_total"] == [
            ({"decision": "placed"}, 1.0),
            ({"decision": "rejected"}, 0.0)]
        (no_labels, count), = parsed[
            "repro_placement_duration_seconds_count"]
        assert no_labels == {} and count == 1.0

    def test_candidate_histogram_counts_feasible_servers(self):
        _, metrics = self.render(requests=[("placed", 0.001, 7),
                                           ("rejected", 0.001, 0)])
        assert metrics.candidates.count == 2
        assert metrics.candidates.sum == 7.0

    def test_build_info_and_uptime_are_conformant_gauges(self):
        store = ClusterStateStore(Cluster.homogeneous(SPEC, 3))
        metrics = ServiceMetrics()
        metrics.set_build_info(version="1.0.0", algorithm="min-energy",
                               engine='dense "v2"\\x')
        families = conformant_families(metrics.render(store))
        build = families["repro_build_info"]
        assert build["type"] == "gauge"
        ((name, labels, value),) = build["samples"]
        assert value == 1.0
        assert labels == {"version": "1.0.0",
                          "algorithm": "min-energy",
                          "engine": 'dense \\"v2\\"\\\\x'}
        uptime = families["repro_uptime_seconds"]
        assert uptime["type"] == "gauge"
        assert uptime["samples"][0][2] >= 0.0

    def test_build_info_without_labels_is_still_conformant(self):
        store = ClusterStateStore(Cluster.homogeneous(SPEC, 3))
        families = conformant_families(ServiceMetrics().render(store))
        ((name, labels, value),) = families["repro_build_info"]["samples"]
        assert labels == {} and value == 1.0

    def test_daemon_stamps_build_info_at_construction(self):
        from repro import __version__
        from repro.service import AllocationDaemon

        store = ClusterStateStore(Cluster.homogeneous(SPEC, 3))
        daemon = AllocationDaemon(store, algorithm="ffps")
        assert daemon.metrics.build_info["version"] == __version__
        assert daemon.metrics.build_info["algorithm"] == "ffps"
        assert "engine" in daemon.metrics.build_info
        page = daemon.render_metrics()
        assert f'version="{__version__}"' in page
        assert "repro_uptime_seconds" in page

    def test_consolidation_families_are_conformant(self):
        store = ClusterStateStore(Cluster.homogeneous(SPEC, 3))
        metrics = ServiceMetrics()
        metrics.observe_consolidation(moves=3, servers_freed=1,
                                      energy_saved=120.5,
                                      duration_seconds=0.002)
        metrics.observe_consolidation(moves=2, servers_freed=1,
                                      energy_saved=40.0,
                                      duration_seconds=0.03)
        families = conformant_families(metrics.render(store))
        assert families["repro_migrations_total"]["type"] == "counter"
        assert families["repro_migrations_total"]["samples"][0][2] == 5.0
        assert families["repro_servers_freed_total"]["samples"][0][2] \
            == 2.0
        assert families["repro_consolidation_energy_saved"][
            "samples"][0][2] == pytest.approx(160.5)
        hist = families["repro_consolidation_duration_seconds"]
        assert hist["type"] == "histogram"
        buckets = [s for s in hist["samples"]
                   if s[0].endswith("_bucket")]
        assert len(buckets) == len(CONSOLIDATION_BUCKETS) + 1
        by_le = {s[1]["le"]: s[2] for s in buckets}
        assert by_le["0.0025"] == 1.0  # the 2 ms episode
        assert by_le["+Inf"] == 2.0

    def test_no_counter_falls_across_a_consolidation(self):
        # A profitable episode (like a failure) lowers the store's
        # running Eq.-17 total; Prometheus reads a falling counter as a
        # reset, so that family is a gauge.
        from repro.service import (AllocationDaemon, consolidate_request,
                                   place_request)
        from repro.workload.generator import generate_vms

        store = ClusterStateStore(Cluster.paper_all_types(24))
        daemon = AllocationDaemon(store, algorithm="first-fit")
        for vm in sorted(generate_vms(200, 1.0, 20.0, seed=18),
                         key=lambda v: (v.start, v.end, v.vm_id)):
            assert daemon.handle(place_request(vm))["ok"]
        before = conformant_families(daemon.render_metrics())
        assert daemon.handle(consolidate_request())["migrations"] > 0
        after = conformant_families(daemon.render_metrics())
        name = "repro_energy_accumulated_watt_ticks"
        assert after[name]["type"] == "gauge"
        assert after[name]["samples"][0][2] < before[name]["samples"][0][2]
        for name, family in before.items():
            if family["type"] == "counter":
                assert all(now[2] >= then[2] for then, now in zip(
                    family["samples"], after[name]["samples"])), name

    def test_replayed_episode_skips_the_duration_histogram(self):
        metrics = ServiceMetrics()
        metrics.observe_consolidation(moves=1, servers_freed=0,
                                      energy_saved=5.0)
        assert metrics.migrations == 1
        assert metrics.consolidation_duration.count == 0

    def test_consolidation_counters_survive_the_meta_round_trip(self):
        metrics = ServiceMetrics()
        metrics.observe_consolidation(moves=4, servers_freed=2,
                                      energy_saved=77.25,
                                      duration_seconds=0.001)
        restored = ServiceMetrics()
        restored.restore_meta(metrics.to_meta())
        assert restored.migrations == 4
        assert restored.servers_freed == 2
        assert restored.consolidation_energy_saved == 77.25
        # Histograms are not persisted; the restored daemon re-counts
        # only durations it measures itself.
        assert restored.consolidation_duration.count == 0

    def test_meta_round_trip_preserves_decisions(self):
        metrics = ServiceMetrics()
        metrics.observe_request(placed=1, algorithm="min-energy",
                                latencies=[0.001])
        metrics.observe_request(rejected=1, delayed=1,
                                algorithm="min-energy", latencies=[0.002])
        restored = ServiceMetrics()
        restored.restore_meta(metrics.to_meta())
        assert restored.requests == metrics.requests
        assert restored.decisions == metrics.decisions
        assert restored.delayed == 1


# -- the scripted scenario: one page, literally ----------------------------

GOLDEN = Path(__file__).parent / "fixtures" / "metrics_page_golden.txt"

#: Samples whose value is a stopwatch reading: uptime, the latency
#: summary's quantiles and sum, every finite bucket and sum of a
#: seconds-valued histogram, the SLO burn rates (their windows trail
#: the wall clock). Counts, ``+Inf`` buckets and everything else on the
#: page are literal.
_TIMED = re.compile(
    r'^(repro_uptime_seconds'
    r'|repro_placement_latency_seconds(\{quantile="[^"]*"\}|_sum)'
    r'|repro_(placement_duration|shard_scan|consolidation_duration)'
    r'_seconds(_bucket\{le="[0-9.e-]+"\}|_sum)'
    r'|repro_slo_(latency|availability)_burn_rate\{[^}]*\}) \S+$')


def scripted_scenario():
    """Drive one daemon through every kind of op and yield
    ``(step, daemon)`` after each: 40 ``place`` (a 10-server fleet,
    ``max_delay=2``: some rejected, some delayed), two ``place_batch``,
    an unknown op, a shed request, ``fail_server`` on the fullest
    server, ``consolidate``, ``recover_server`` and a ``tick`` — every
    counter on the page moves at least once (the latency objective is
    a nanosecond, so every request counts as slow, on any machine)."""
    store = ClusterStateStore(Cluster.paper_all_types(10))
    daemon = AllocationDaemon(store, algorithm="min-energy", max_delay=2,
                              max_inflight=1,
                              slo=SLOConfig(latency_objective=1e-9))
    daemon.metrics.set_build_info(version="golden", algorithm="min-energy",
                                  engine=store.engine_config.spec)
    yield "start", daemon
    arrivals = sorted(generate_vms(120, 0.5, 20.0, seed=3),
                      key=lambda v: (v.start, v.end, v.vm_id))
    for vm in arrivals[:40]:
        assert daemon.handle(place_request(vm))["ok"]
        yield f"place {vm.vm_id}", daemon
    for chunk in (arrivals[40:65], arrivals[65:80]):
        assert daemon.handle(place_batch_request(chunk))["ok"]
        yield f"place_batch of {len(chunk)}", daemon
    assert not daemon.handle({"op": "nope"})["ok"]
    yield "unknown op", daemon
    daemon._inflight = 1  # the one ingest slot is taken: shed
    assert not daemon.handle(place_request(arrivals[80]))["ok"]
    daemon._inflight = 0
    yield "shed place", daemon
    fullest = max(store.states, key=lambda s: len(s.vms)).server.server_id
    assert daemon.handle(fail_server_request(fullest))["replaced"] > 0
    yield "fail_server", daemon
    assert daemon.handle(consolidate_request())["migrations"] > 0
    yield "consolidate", daemon
    assert daemon.handle(recover_server_request(fullest))["ok"]
    yield "recover_server", daemon
    assert daemon.handle({"op": "tick", "now": store.clock + 5})["ok"]
    yield "tick", daemon


def golden_document(daemon) -> str:
    """The page with its stopwatch samples masked, then the snapshot's
    ``meta.counters`` and the ``stats`` response as JSON comments."""
    page = daemon.render_metrics()
    conformant_families(page)
    lines = [_TIMED.sub(lambda match: match.group(1) + " *", line)
             for line in page.splitlines()]
    lines.append("# meta.counters " + json.dumps(daemon.metrics.to_meta()))
    stats = daemon.handle({"op": "stats"})
    # The document was recorded when ``energy_total`` was summed from
    # scratch over every placement; the books' running costs agree with
    # that sum to 12 significant digits (docs/service.md), not in the
    # last bits.
    stats["energy_total"] = float(f"{stats['energy_total']:.12g}")
    lines.append("# stats " + json.dumps(stats))
    return "\n".join(lines) + "\n"


class TestScriptedScenario:
    def test_page_meta_and_stats_match_the_golden_document(self):
        # Recorded with the hand-unrolled metrics.py of PR 20, before
        # the declaration tables replaced it (re-record with
        # ``PYTHONPATH=src python tests/test_service_metrics.py`` only
        # when the page is meant to change).
        *_, (_, daemon) = scripted_scenario()
        assert golden_document(daemon) == GOLDEN.read_text()

    def test_no_counter_ever_falls(self):
        # Whatever the table types ``counter`` is covered by being
        # declared: after every step each of its samples is >= the
        # value it had the step before.
        previous: dict[tuple, float] = {}
        for step, daemon in scripted_scenario():
            families = conformant_families(daemon.render_metrics())
            current = {(name, tuple(sorted(labels.items()))): value
                       for family, body in families.items()
                       if body["type"] == "counter"
                       for name, labels, value in body["samples"]}
            assert current.keys() >= previous.keys(), step
            for key, value in previous.items():
                assert current[key] >= value, (step, key)
            previous = current
        moved = {name for (name, _), value in previous.items() if value}
        assert {name for name, _ in previous} - moved == set(), \
            "the scenario leaves a counter at zero"


# -- a family is declared once ---------------------------------------------

ROOT = Path(__file__).parent.parent


def declared_families() -> dict[str, str]:
    """``family -> type`` of everything the page can carry: a blank
    registry rendered with an SLO tracker beside it."""
    store = ClusterStateStore(Cluster.homogeneous(SPEC, 1))
    page = ServiceMetrics().render(store, slo=SLOTracker())
    return {name: body["type"]
            for name, body in conformant_families(page).items()}


class TestAFamilyIsDeclaredOnce:
    def test_every_family_name_is_one_string_literal_under_src(self):
        # The page's one in-tree *reader*, ``repro client``'s digest,
        # names the families it looks up; everything else under src/
        # may spell a family only where it is declared.
        seen: dict[str, list[str]] = {}
        for path in sorted((ROOT / "src").rglob("*.py")):
            tree = ast.parse(path.read_text())
            reader = {id(node) for function in ast.walk(tree)
                      if isinstance(function, ast.FunctionDef)
                      and function.name == "_metrics_summary"
                      for node in ast.walk(function)}
            for node in ast.walk(tree):
                if isinstance(node, ast.Constant) \
                        and isinstance(node.value, str) \
                        and id(node) not in reader:
                    seen.setdefault(node.value, []).append(path.name)
        for family in declared_families():
            assert seen.get(family) == ["metrics.py"], family

    def test_meta_and_page_name_no_table_attribute(self):
        attributes = [*metrics_module._COUNTERS,
                      *(row[0] for row in metrics_module._HISTOGRAMS)]
        for method in (ServiceMetrics.__init__, ServiceMetrics.to_meta,
                       ServiceMetrics.restore_meta, ServiceMetrics.render):
            source = inspect.getsource(method)
            for attribute in attributes:
                assert not re.search(rf"\b{attribute}\b", source), \
                    (method.__name__, attribute)

    def test_a_new_counter_is_one_row(self, monkeypatch):
        monkeypatch.setitem(
            metrics_module._COUNTERS, "probes",
            ["repro_probes_total", "Probes run (a test row).", 0])
        metrics = ServiceMetrics()
        metrics.count(probes=3, errors=1)
        assert metrics.probes == 3
        restored = ServiceMetrics()
        restored.restore_meta(json.loads(json.dumps(metrics.to_meta())))
        assert (restored.probes, restored.errors) == (3, 1)
        families = conformant_families(restored.render(
            ClusterStateStore(Cluster.homogeneous(SPEC, 1))))
        assert families["repro_probes_total"] == {
            "type": "counter",
            "samples": [("repro_probes_total", {}, 3.0)]}

    def test_count_refuses_a_name_the_table_does_not_declare(self):
        metrics = ServiceMetrics()
        with pytest.raises(ValidationError, match="no such counter"):
            metrics.count(errors=1, requests=1)
        assert metrics.errors == 0  # refused whole, not half-applied

    def test_a_replayed_entry_counts_like_the_decisions_it_records(self):
        live, replayed = ServiceMetrics(), ServiceMetrics()
        for decision, delay in (("placed", 0), ("placed", 2),
                                ("rejected", 0)):
            live.observe_request(**{decision: 1}, delayed=int(delay > 0),
                                 algorithm="ffps", latencies=[0.001],
                                 candidates=[3], scans=[0.0001])
        replayed.observe_request(placed=2, rejected=1, delayed=1,
                                 algorithm="ffps")
        assert replayed.to_meta() == live.to_meta()
        assert (live.latency.count, live.latency_hist.count,
                live.candidates.count, live.scan.count) == (3, 3, 3, 3)
        assert (replayed.latency.count, replayed.latency_hist.count,
                replayed.candidates.count, replayed.scan.count) == \
            (0, 0, 0, 0)

    def test_the_service_doc_lists_exactly_the_declared_families(self):
        text = (ROOT / "docs" / "service.md").read_text()
        listing = text[text.index("The page:"):
                       text.index("Latency quantiles are nearest-rank")]
        listed = set(re.findall(r"\brepro_[a-z0-9_]+", listing))
        assert listed == set(declared_families())


if __name__ == "__main__":
    *_, (_, last) = scripted_scenario()
    GOLDEN.write_text(golden_document(last))
    print(f"wrote {GOLDEN}")
