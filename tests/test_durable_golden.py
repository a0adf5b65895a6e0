"""Golden durable bytes: what a daemon writes to disk, pinned.

``tests/fixtures/durable_golden.json`` records, for one fixed stream of
request lines served into a data dir (fsync off, ``snapshot_every``
100), the sha-256 of ``journal.jsonl``, of every snapshot file left in
the directory, and of the response lines with each ``latency_ms`` value
blanked. Every line carries a fixed trace id and request id, so nothing
random reaches the files. The stream mixes what a record → VM → record
round trip must normalise: integral demands sent as JSON integers,
reordered and unknown keys, explicit zero radii, ``"phases": null``, a
phased VM and v3 demand radii; then one ``place_batch``, a ``tick``, a
``consolidate``, a ``fail_server`` + ``recover_server`` and a
``shutdown``.

A refactor of the request path passes only if the journal, the
snapshots and the answers stay byte-identical. The fixture is a
recording, not a specification: regenerate it with ``PYTHONPATH=src
python tests/test_durable_golden.py`` only when the durable format is
*meant* to change, and review the diff.
"""

from __future__ import annotations

import hashlib
import json
import re
import tempfile
from pathlib import Path

from repro.model.cluster import Cluster
from repro.model.phases import DemandPhase, PhasedVM
from repro.service import AllocationDaemon, ClusterStateStore
from repro.service.protocol import encode
from repro.workload.generator import generate_vms
from repro.workload.trace import vm_to_record

FIXTURE = Path(__file__).parent / "fixtures" / "durable_golden.json"

SERVERS, SEED, PLACES, BATCH = 60, 5, 250, 50
#: the server the stream fails: it hosts VMs when the failure lands
VICTIM = 0
_LATENCY = re.compile(rb'"latency_ms":[^,}]+')


def _ids(n: int) -> dict[str, str]:
    return {"trace_id": f"{n + 1:016x}", "request_id": f"{n + 1:08x}"}


def _wire_record(i: int, vm) -> tuple[dict[str, object], int | None]:
    """The ``vm`` record request ``i`` sends, and the version it needs."""
    record = vm_to_record(vm)
    kind = i % 10
    if kind == 1:    # integral demands as JSON integers, keys reordered
        record = {"end": vm.end, "start": vm.start,
                  "memory": int(vm.memory) if vm.memory.is_integer()
                  else vm.memory,
                  "cpu": int(vm.cpu) if vm.cpu.is_integer() else vm.cpu,
                  "type": vm.spec.name, "vm_id": vm.vm_id}
    elif kind == 3:  # an unknown key and an explicit null phase list
        record.update(note="ignored", phases=None)
    elif kind == 5:  # demand radii: a protocol-3 extension
        record.update(cpu_radius=0.125 * vm.cpu, mem_radius=0.0)
        return record, 3
    elif kind == 7:  # explicit zero radii, never journaled
        record.update(cpu_radius=0.0, mem_radius=0)
        return record, 3
    elif kind == 9 and vm.duration >= 2:  # a phased VM
        first = vm.duration // 2
        record = vm_to_record(PhasedVM(
            vm_id=vm.vm_id, spec=vm.spec, interval=vm.interval,
            phases=(DemandPhase(first, vm.cpu, vm.memory),
                    DemandPhase(vm.duration - first, vm.cpu / 2,
                                vm.memory / 2))))
    return record, None


def request_lines() -> list[str]:
    """The stream, as the lines a client sends."""
    vms = sorted(generate_vms(PLACES + BATCH, 1.0, 20.0, seed=SEED),
                 key=lambda v: (v.start, v.end, v.vm_id))
    requests: list[dict[str, object]] = []
    for i, vm in enumerate(vms[:PLACES]):
        record, version = _wire_record(i, vm)
        request: dict[str, object] = {"op": "place", "vm": record}
        if version is not None:
            request["v"] = version
        if i % 50 == 17:
            request["explain"] = True
        requests.append(request)
    requests += [
        {"op": "place_batch", "v": 2,
         "vms": [vm_to_record(vm) for vm in vms[PLACES:]]},
        {"op": "tick", "now": vms[-1].start + 3},
        {"op": "consolidate", "v": 2},
        {"op": "fail_server", "v": 2, "server_id": VICTIM},
        {"op": "recover_server", "v": 2, "server_id": VICTIM},
        {"op": "shutdown"},
    ]
    return [encode({**request, **_ids(n)})
            for n, request in enumerate(requests)]


def record_run() -> dict[str, object]:
    with tempfile.TemporaryDirectory() as tmp:
        data_dir = Path(tmp) / "state"
        daemon = AllocationDaemon(
            ClusterStateStore(Cluster.paper_all_types(SERVERS)),
            data_dir=data_dir, fsync=False, snapshot_every=100)
        answers = hashlib.sha256()
        for line in request_lines():
            answer = daemon.handle_line(line)
            assert json.loads(answer)["ok"], answer
            answers.update(_LATENCY.sub(b'"latency_ms":_', answer.encode()))
        files = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                 for path in sorted(data_dir.iterdir())}
    return {"files": files, "responses_sha256": answers.hexdigest()}


def test_a_served_stream_writes_the_recorded_bytes():
    golden = json.loads(FIXTURE.read_text())
    assert "journal.jsonl" in golden["files"]
    assert sum(name.startswith("snapshot-") for name in golden["files"]) >= 2
    assert record_run() == golden


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(record_run(), indent=1, sort_keys=True)
                       + "\n")
    print(f"wrote {FIXTURE}")
