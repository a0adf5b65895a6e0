"""Golden episodes: what consolidation and failure decide, pinned.

``tests/fixtures/episodes_golden.json`` records, for one seeded
1200-VM churn stream (a ``consolidate`` after every 200th VM, a
``fail_server`` + ``recover_server`` of the fullest server after every
500th), what every episode decided under each allocator x engine x
``k_sample``: each move's ids, source, target and ``saving`` / ``cost``
as float hex, each replacement's ids, target and Eq.-17 ``energy_delta``
as hex, the final from-scratch Eq.-17 total of the whole placement
history as hex and a sha-256 of that history (``conftest.HistoryStore``
keeps it: the store itself holds live state only). The test regenerates the document and diffs it, so a
refactor of the planner, the books or the store passes only if no
decision and no decision-visible float moved.

Runs that decided the same thing share one record. The fixture is a
recording, not a specification: regenerate it with ``PYTHONPATH=src
python tests/test_golden_episodes.py`` only when a decision is *meant*
to change, and review the diff.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.model.cluster import Cluster
from repro.model.phases import DemandPhase, PhasedVM
from repro.model.vm import VM, VMSpec
from repro.service import (
    AllocationDaemon,
    consolidate_request,
    fail_server_request,
    place_request,
    recover_server_request,
)
from repro.workload.generator import generate_vms
from repro.workload.trace import vm_to_record

from conftest import HistoryStore

FIXTURE = Path(__file__).parent / "fixtures" / "episodes_golden.json"

ALGORITHMS = ("first-fit", "min-energy", "best-fit")
ENGINES = ("indexed", "indexed:gamma=2")
K_SAMPLES = (None, 8)
VMS, SERVERS, SEED = 1200, 24, 18
CONSOLIDATE_EVERY, FAIL_EVERY = 200, 500
CONFIGS = [(algorithm, engine, k) for algorithm in ALGORITHMS
           for engine in ENGINES for k in K_SAMPLES]


def stream() -> list[VM]:
    """The churn stream in arrival order: every VM declares a 10 %
    demand radius (read by the Γ engine only) and every seventh runs
    at half its demand after its first half (a phased cut). Ids leave
    900 free above every hundredth VM: failure and consolidation splits
    take ids just above the highest committed one."""
    arrivals = sorted(generate_vms(VMS, 1.0, 20.0, seed=SEED),
                      key=lambda v: (v.start, v.end, v.vm_id))
    vms = []
    for i, vm in enumerate(arrivals):
        vm_id = i // 100 * 1000 + i % 100
        spec = VMSpec(vm.spec.name, cpu=vm.cpu, memory=vm.memory,
                      cpu_radius=0.1 * vm.cpu, mem_radius=0.1 * vm.memory)
        if i % 7 == 0 and vm.duration >= 2:
            first = vm.duration // 2
            vms.append(PhasedVM(
                vm_id=vm_id, spec=spec, interval=vm.interval,
                phases=(DemandPhase(first, vm.cpu, vm.memory),
                        DemandPhase(vm.duration - first, vm.cpu / 2,
                                    vm.memory / 2))))
        else:
            vms.append(VM(vm_id=vm_id, spec=spec, interval=vm.interval))
    return vms


def record_run(algorithm: str, engine: str, k_sample: int | None) -> dict:
    store = HistoryStore(Cluster.paper_all_types(SERVERS), engine=engine)
    daemon = AllocationDaemon(store, algorithm=algorithm, seed=0,
                              algo_params={"engine": engine},
                              migration_k=k_sample, flight_capacity=0)
    moves, replacements = [], []
    for n, vm in enumerate(stream(), start=1):
        assert daemon.handle(place_request(vm))["ok"]
        if n % CONSOLIDATE_EVERY == 0:
            response = daemon.handle(consolidate_request())
            assert response["ok"], response
            moves.append([
                [m["vm_id"], m["head_id"], m["remainder_id"],
                 m["source_id"], m["target_id"],
                 m["saving"].hex(), m["cost"].hex()]
                for m in response["moves"]])
        if n % FAIL_EVERY == 0:
            victim = max(range(SERVERS),
                         key=lambda sid: (len(store.states[sid].vms), -sid))
            response = daemon.handle(fail_server_request(victim))
            assert response["ok"], response
            replacements.append([victim] + [
                [r["vm_id"], r["head_id"], r["remainder_id"],
                 r["server_id"], r["energy_delta"].hex()]
                for r in response["replacements"]])
            assert daemon.handle(recover_server_request(victim))["ok"]
    store.run_to_completion()
    placed = json.dumps([[vm_to_record(vm), sid]
                         for vm, sid in store.history])
    return {"moves": moves, "replacements": replacements,
            "energy_total": store.energy_from_scratch().hex(),
            "placements_sha256": hashlib.sha256(placed.encode()).hexdigest()}


def config_name(algorithm: str, engine: str, k_sample: int | None) -> str:
    return f"{algorithm}/{engine}/k={k_sample}"


def generate() -> dict:
    """The fixture document: ``runs`` maps each configuration to the
    digest of its record, ``records`` holds each distinct record once."""
    runs, records = {}, {}
    for config in CONFIGS:
        record = record_run(*config)
        digest = hashlib.sha256(
            json.dumps(record, sort_keys=True).encode()).hexdigest()[:12]
        runs[config_name(*config)] = digest
        records[digest] = record
    return {"runs": runs, "records": records}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE.read_text())


def test_the_stream_exercises_both_episode_kinds(golden):
    assert len(FIXTURE.read_bytes()) <= 40 * 1024
    for name, digest in golden["runs"].items():
        record = golden["records"][digest]
        assert sum(len(episode) for episode in record["moves"]) >= 3, name
        assert sum(len(episode) - 1
                   for episode in record["replacements"]) >= 3, name


@pytest.mark.parametrize("config", CONFIGS,
                         ids=[config_name(*c) for c in CONFIGS])
def test_episodes_are_the_recorded_ones(golden, config):
    assert record_run(*config) == \
        golden["records"][golden["runs"][config_name(*config)]]


if __name__ == "__main__":
    def compact(section: dict) -> str:      # one diffable line per entry
        return ",\n".join(
            f'{json.dumps(key)}:{json.dumps(value, separators=(",", ":"))}'
            for key, value in section.items())
    document = generate()
    FIXTURE.write_text('{"runs":{\n%s\n},"records":{\n%s\n}}\n' % (
        compact(document["runs"]), compact(document["records"])))
    assert json.loads(FIXTURE.read_text()) == document
    print(f"wrote {FIXTURE} ({len(FIXTURE.read_bytes())} bytes)")
