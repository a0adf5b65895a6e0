"""Write the format 1–3 data dirs ``tests/test_old_datadirs.py`` restores.

Each is a short fixed stream on a 4-server fleet, written with
``snapshot_every=4`` and left without a shutdown (a kill): a snapshot of
that format plus a journal tail after it. ``expected.json`` beside them
records, per format, the ``stats`` the writing build answered before the
kill and the decisions its restored daemon made for a fixed follow-up
stream.

Snapshot format 4 replaced formats 1–3 after commit 372ab27, so the dirs
must be written by that build or an older one::

    PYTHONPATH=<checkout of 372ab27>/src python \
        tests/fixtures/old_datadirs/generate.py
"""

from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path

from repro.model.cluster import Cluster
from repro.model.intervals import TimeInterval
from repro.model.server import ServerSpec
from repro.model.vm import VM, VMSpec
from repro.service import (
    SNAPSHOT_FORMAT_VERSION,
    AllocationDaemon,
    ClusterStateStore,
    consolidate_request,
    fail_server_request,
    place_request,
    recover_server_request,
)

HERE = Path(__file__).parent
SPEC = ServerSpec("s", cpu_capacity=10.0, memory_capacity=10.0,
                  p_idle=51.3, p_peak=103.9, transition_time=1.0)
SERVERS = 4


def vm(vm_id: int, start: int, end: int, cpu: float, memory: float) -> VM:
    return VM(vm_id=vm_id, spec=VMSpec("t", cpu=cpu, memory=memory),
              interval=TimeInterval(start, end))


def stream(version: int) -> list[dict]:
    """Commits only (1); then a failure and a recovery (2); then a
    consolidation that moves something (3). A short heavy and a long
    light VM per server fragment the fleet for the episode."""
    requests = []
    for sid in range(SERVERS):
        requests.append(place_request(vm(2 * sid, 1, 8, 6.7, 5.0)))
        requests.append(place_request(vm(2 * sid + 1, 1, 200, 2.3, 4.0)))
    requests.append({"op": "tick", "now": 10})
    if version >= 2:
        requests += [fail_server_request(1), recover_server_request(1)]
    if version >= 3:
        requests.append(consolidate_request())
    requests += [place_request(vm(100 + j, 11 + j, 30 + 3 * j, 1.1, 1.0))
                 for j in range(3)]
    return requests + [{"op": "tick", "now": 16}]   # a journal tail


def follow_up() -> list[dict]:
    return [place_request(vm(500 + j, 16 + j, 40 + 5 * j, cpu, 1.5))
            for j, cpu in enumerate((2.3, 6.7, 1.1, 4.4, 2.3, 1.1))]


def answer(daemon: AllocationDaemon, request: dict) -> dict:
    response = daemon.handle(request)
    assert response["ok"], response
    return response


def main() -> None:
    assert SNAPSHOT_FORMAT_VERSION == 3, "needs a build writing formats 1-3"
    expected = {}
    for version in (1, 2, 3):
        data_dir = HERE / f"format-{version}"
        shutil.rmtree(data_dir, ignore_errors=True)
        daemon = AllocationDaemon(
            ClusterStateStore(Cluster.homogeneous(SPEC, SERVERS)),
            algorithm="min-energy", data_dir=data_dir, snapshot_every=4,
            fsync=False)
        for request in stream(version):
            answer(daemon, request)
        assert daemon.store.to_snapshot()["format_version"] == version
        stats = answer(daemon, {"op": "stats"})
        daemon.journal.close()      # a kill: no shutdown snapshot
        # The follow-up runs on a restored copy, so the dir stays as
        # the kill left it.
        with tempfile.TemporaryDirectory() as scratch:
            copy = Path(scratch) / "data"
            shutil.copytree(data_dir, copy)
            restored = AllocationDaemon.restore(copy, fsync=False)
            decisions = [
                [r["decision"], r.get("server_id"), r.get("delay", 0)]
                for r in (answer(restored, q) for q in follow_up())]
            restored.journal.close()
        expected["follow_up_requests"] = follow_up()
        expected[f"format-{version}"] = {
            "stats": {key: stats[key] for key in
                      ("placed", "clock", "energy_total")},
            "energy_total_hex": stats["energy_total"].hex(),
            "follow_up": decisions}
    (HERE / "expected.json").write_text(
        json.dumps(expected, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
