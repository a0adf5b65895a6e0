"""Concurrency hammer tests: metrics and the daemon under parallel load.

:class:`ServiceMetrics` is shared by the daemon's per-connection
threads, so its counters are hammered from many threads and must come
out *exact* — a single lost increment is a bug, not noise. The TCP
daemon is likewise driven by concurrent clients; the commit lock must
keep the state consistent (every placement journal-countable, the
energy ledger matching a from-scratch recomputation) whatever the
interleaving.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.model.cluster import Cluster
from repro.service import (
    AllocationDaemon,
    ClusterStateStore,
    AllocationClient,
    place_batch_request,
)
from repro.service.metrics import (
    Histogram,
    LatencyReservoir,
    ServiceMetrics,
)
from repro.simulation.power_state import PowerState
from conftest import make_vm, serving

THREADS = 8
PER_THREAD = 500


def hammer(worker, threads=THREADS):
    """Run ``worker(thread_index)`` on N threads; re-raise any failure."""
    errors: list[BaseException] = []

    def wrapped(index: int) -> None:
        try:
            worker(index)
        except BaseException as exc:  # noqa: BLE001 - funneled to pytest
            errors.append(exc)

    pool = [threading.Thread(target=wrapped, args=(i,))
            for i in range(threads)]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    if errors:
        raise errors[0]


class TestMetricsThreadSafety:
    def test_counters_are_exact_under_contention(self):
        metrics = ServiceMetrics()
        metrics.register_algorithm("min-energy")

        def worker(index: int) -> None:
            for i in range(PER_THREAD):
                placed = (index + i) % 2 == 0
                metrics.observe_request(placed=int(placed),
                                        rejected=int(not placed),
                                        delayed=int(i % 3 > 0),
                                        algorithm="min-energy",
                                        latencies=[0.001],
                                        candidates=[i % 10])
                metrics.count(errors=1)
                metrics.count(overloaded=1)
                metrics.batch_size.observe(float(i % 50 + 1))
                metrics.scan.observe(0.0001)

        hammer(worker)
        total = THREADS * PER_THREAD
        assert sum(metrics.requests.values()) == total
        assert sum(metrics.decisions.values()) == total
        assert metrics.errors == total
        assert metrics.overloaded == total
        assert metrics.delayed == THREADS * sum(
            1 for i in range(PER_THREAD) if i % 3)
        assert metrics.latency.count == total
        assert metrics.latency_hist.count == total
        assert metrics.candidates.count == total
        assert metrics.batch_size.count == total
        assert metrics.scan.count == total

    def test_histogram_exact_under_contention(self):
        hist = Histogram((1.0, 10.0, 100.0))

        def worker(index: int) -> None:
            for i in range(PER_THREAD):
                hist.observe(float(i % 200))

        hammer(worker)
        pairs, total, count = hist.snapshot()
        assert count == THREADS * PER_THREAD
        assert pairs[-1] == (float("inf"), count)
        assert total == THREADS * sum(float(i % 200)
                                      for i in range(PER_THREAD))

    def test_reservoir_exact_under_contention(self):
        reservoir = LatencyReservoir(capacity=256)

        def worker(index: int) -> None:
            for _ in range(PER_THREAD):
                reservoir.observe(0.002)

        hammer(worker)
        assert reservoir.count == THREADS * PER_THREAD
        assert reservoir.quantile(0.5) == 0.002

    def test_render_during_mutation_never_tears(self):
        """A scrape racing the recorders must always parse and never
        observe count-vs-bucket inconsistencies within one family."""
        metrics = ServiceMetrics()
        store = ClusterStateStore(Cluster.paper_all_types(5))
        stop = threading.Event()
        failures: list[str] = []

        def scrape() -> None:
            while not stop.is_set():
                text = metrics.render(store)
                for family in ("repro_batch_size",
                               "repro_placement_duration_seconds"):
                    buckets = [line for line in text.splitlines()
                               if line.startswith(f"{family}_bucket")]
                    inf_count = int(buckets[-1].rsplit(" ", 1)[1])
                    count = int([line for line in text.splitlines()
                                 if line.startswith(f"{family}_count")
                                 ][0].rsplit(" ", 1)[1])
                    if inf_count != count:
                        failures.append(
                            f"{family}: +Inf {inf_count} != {count}")

        scraper = threading.Thread(target=scrape)
        scraper.start()
        try:
            hammer(lambda index: [
                (metrics.observe_request(placed=1, latencies=[0.001]),
                 metrics.batch_size.observe(3.0))
                for _ in range(PER_THREAD)], threads=4)
        finally:
            stop.set()
            scraper.join()
        assert not failures


class TestIngestWindow:
    def test_the_window_never_overfills_and_drains_to_zero(self):
        """Mutating requests from more threads than the window holds: no
        handler ever runs with more in flight than the bound, the window
        does fill, every request is served or shed as overloaded, and
        the count drains back to 0."""
        daemon = AllocationDaemon(ClusterStateStore(
            Cluster.paper_all_types(2)), max_inflight=3)
        seen: list[int] = []

        def tick(daemon, request, record):   # counts, yields, changes nothing
            seen.append(daemon._inflight)
            time.sleep(0)
            return {"ok": True, "op": "tick"}

        daemon._OPS = {**AllocationDaemon._OPS, "tick": (tick, "mutating")}
        shed: list[int] = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)

        def worker(index: int) -> None:
            for _ in range(PER_THREAD):
                response = daemon.handle({"op": "tick", "now": 0})
                if not response["ok"]:
                    assert response["error"] == "overloaded", response
                    shed.append(index)

        try:
            hammer(worker)
        finally:
            sys.setswitchinterval(interval)
        assert daemon._inflight == 0
        assert seen and max(seen) <= 3
        assert shed, "no request found the window full"
        assert len(seen) + len(shed) == THREADS * PER_THREAD


class TestConcurrentClients:
    def test_parallel_tcp_clients_keep_state_consistent(self):
        """Many clients race mutating requests; the commit lock must
        keep the store's ledger exact whatever the interleaving."""
        store = ClusterStateStore(Cluster.paper_all_types(60))
        daemon = AllocationDaemon(store, max_inflight=0)
        clients = 6
        per_client = 20
        # Distinct ids per client; one shared arrival time so any
        # interleaving is a valid online order.
        batches = [
            [make_vm(index * per_client + i, 0, 5 + (i % 7),
                     cpu=1.0 + (i % 3), memory=1.0 + ((i + index) % 4))
             for i in range(per_client)]
            for index in range(clients)]
        outcomes: list[dict[str, object]] = []

        with serving(daemon) as (host, port):
            def worker(index: int) -> None:
                with AllocationClient(host, port) as client:
                    response = client.place_batch(batches[index])
                    assert response["ok"], response
                    outcomes.append(response)

            hammer(worker, threads=clients)
        placed = sum(int(r["placed"]) for r in outcomes)
        assert placed == len(store.placements)
        assert sum(int(r["count"]) for r in outcomes) == \
            clients * per_client
        # the energy ledger survives the interleaving exactly
        assert store.energy_accumulated == pytest.approx(
            store.energy_total(), rel=1e-9)
        assert daemon.metrics.requests["placed"] == placed


class TestLockFreeReads:
    def test_fleet_power_reads_race_wakes_and_sleeps(self):
        """Reads take no lock: ``fleet_power`` snapshots ``fleet.awake``
        in one C call while wakes and sleeps resize it in place, so a
        scrape beside batches and ticks neither raises nor leaves a
        stale remembered draw."""
        store = ClusterStateStore(Cluster.paper_all_types(12))
        daemon = AllocationDaemon(store, algorithm="first-fit")
        stop = threading.Event()
        errors: list[BaseException] = []

        def read() -> None:
            try:
                while not stop.is_set():
                    assert store.fleet_power() >= 0.0
                    assert store.servers_active() >= 0
            except BaseException as exc:  # noqa: BLE001 - funneled below
                errors.append(exc)

        readers = [threading.Thread(target=read) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for reader in readers:
                reader.start()
            for b in range(150):    # short heavy VMs: servers wake, sleep
                reply = daemon.handle(place_batch_request(
                    make_vm(10 * b + i, 3 * b + 1, 3 * b + 1 + i % 2,
                            cpu=3.0) for i in range(10)))
                assert reply["placed"] == 10 and not errors
                daemon.handle({"op": "tick", "now": 3 * b + 3})
        finally:
            stop.set()
            for reader in readers:
                reader.join(timeout=10)
            sys.setswitchinterval(interval)
        assert not errors and not any(r.is_alive() for r in readers)
        awake = store.fleet.awake
        assert awake == {sid: m.power_draw()
                         for sid, m in store.machines.items()
                         if m.state is PowerState.ACTIVE}
        assert store.fleet.awake_ids() == sorted(awake)
        assert store.telemetry().active_servers.max() >= 3
