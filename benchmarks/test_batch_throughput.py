"""Benchmark gate: ``place_batch`` vs per-VM ``place`` over real TCP
(the socket front ``repro serve`` runs, which answers each request on
the connection's own thread).

The v2 batch operation exists to amortize per-request overhead: the
TCP round trip *and* the durability cost, since a batch commits as one
journal group (one fsync) where N individual ``place`` requests fsync
N times. The gate holds the daemon to its production configuration —
durable journal, ``fsync=True`` (the constructor default) — and
requires 1000 VMs sent as one ``place_batch`` to beat 1000 individual
``place`` round trips by >= 3x wall-clock.

The workload is deliberately *dense* (1000 arrivals inside ~50 ticks,
short-lived VMs, 100 servers, first-fit): simulation compute — tick
advancement and the feasibility scan — is identical on both paths, so
a sparse workload would just dilute the protocol/durability overhead
the batch op was designed to amortize. The gate also holds the
equivalence contract at scale: both paths must leave the daemon with
identical placements and a bit-identical energy ledger.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from pathlib import Path

from repro.model.cluster import Cluster
from repro.service import (
    AllocationDaemon,
    ClusterStateStore,
    AllocationClient,
    replay_trace,
    serve_socket,
)
from repro.workload.generator import generate_vms

from conftest import record_result

#: The tentpole scale point: a dense 1000-VM burst onto 100 servers.
VMS_1K = generate_vms(1000, mean_interarrival=0.05, mean_duration=1.0,
                      seed=0)
N_SERVERS = 100
BATCH = 1000

SPEEDUP_FLOOR = 3.0
#: Trials per path; the gate compares best-of-N to shed cold-start
#: noise (first-connection TCP setup, allocator warmup).
TRIALS = 3


def _run_stream(batch: int | None) -> tuple[float, dict, float]:
    """Stream the 1k workload at a fresh durable TCP daemon; returns
    (seconds, placements, energy)."""
    store = ClusterStateStore(Cluster.paper_all_types(N_SERVERS))
    data_dir = Path(tempfile.mkdtemp(prefix="repro-bench-"))
    daemon = AllocationDaemon(store, algorithm="first-fit",
                              data_dir=data_dir)
    try:
        with serve_socket(daemon) as server, \
                AllocationClient(*server.address) as client:
            started = time.perf_counter()
            summary = replay_trace(client, VMS_1K, final_tick=False,
                                   batch=batch)
            elapsed = time.perf_counter() - started
        assert summary.offered == len(VMS_1K)
    finally:
        if daemon.journal is not None:
            daemon.journal.close()
        shutil.rmtree(data_dir, ignore_errors=True)
    return elapsed, dict(store.placements), store.energy_accumulated


def test_batch_throughput_gate_1k():
    """place_batch >= 3x faster than 1000 place round trips, with
    identical placements and bit-identical energy."""
    batch_runs = [_run_stream(BATCH) for _ in range(TRIALS)]
    single_runs = [_run_stream(None) for _ in range(TRIALS)]
    batch_s, batch_placed, batch_energy = \
        min(batch_runs, key=lambda run: run[0])
    single_s, single_placed, single_energy = \
        min(single_runs, key=lambda run: run[0])
    assert batch_placed == single_placed
    assert batch_energy == single_energy  # bit-identical ledger
    speedup = single_s / batch_s
    record_result("batch_speedup", "\n".join([
        f"first-fit over TCP (durable daemon, fsync on), "
        f"{len(VMS_1K)} VMs / {N_SERVERS} servers",
        f"1000 x place:       {single_s * 1000:8.1f} ms",
        f"1 x place_batch:    {batch_s * 1000:8.1f} ms",
        f"speedup:            {speedup:8.2f}x "
        f"(floor: {SPEEDUP_FLOOR:.2f}x)",
    ]))
    assert speedup >= SPEEDUP_FLOOR


def test_batch_chunking_matches_full_batch(benchmark):
    """Chunked batches (10 x 100 VMs) land on the same placements as
    one 1000-VM batch — chunk boundaries must not change decisions."""
    chunked = benchmark.pedantic(_run_stream, args=(100,), rounds=1,
                                 iterations=1)
    full_placed = _run_stream(BATCH)[1]
    assert chunked[1] == full_placed
