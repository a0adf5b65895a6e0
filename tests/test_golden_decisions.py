"""Golden decisions: what every allocator decides per VM, pinned.

``tests/fixtures/decisions_golden.json`` records, for four small seeded
streams, what each registry allocator decided for every VM under every
engine spec, and on the ``unindexed`` route (no candidate index:
collect-then-``choose``): ``[vm_id, server_id, candidates_evaluated,
candidates_feasible, Eq.-17 delta as float hex]`` in arrival order,
``server_id`` ``null`` where nothing fits. ``min-energy`` is also
recorded under the other two sleep policies and under anti-affinity /
affinity groups. The test regenerates the document and diffs it, so a
refactor of a scan, the index or the kernel passes only if no decision,
no counter and no decision-visible float moved.

The streams cover the regimes the scans branch on: ``sparse`` (the
paper's Poisson stream, nothing refused), ``dense`` (every busy server
full, so ``min-energy``'s walk collects its 16 refusals and prefetches:
it drops the servers whose remembered refusal refuses the VM, asking no
kernel), ``phased`` (two-phase demand with
±30 % radii, read by the Γ specs) and ``overfull`` (more demand than
fleet: rejections).

Runs that decided the same thing share one record. No golden fleet
reaches ``_FLEET_PROBE_FROM`` rows; the allocators that batch are run
again with every batch on the kernel, and land on the same records.
The fixture is a recording,
not a specification: regenerate it with ``PYTHONPATH=src python
tests/test_golden_decisions.py`` only when a decision is *meant* to
change, and review the diff.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.allocators import allocator_names, make_allocator
from repro.energy import SleepPolicy
from repro.model.catalog import ALL_VM_TYPES
from repro.model.cluster import Cluster
from repro.model.constraints import PlacementConstraints
from repro.workload import PhasedWorkload
from repro.workload.generator import generate_vms

from conftest import probe_route

FIXTURE = Path(__file__).parent / "fixtures" / "decisions_golden.json"

#: The catalog's half-server-and-up VM types: 36 of them overfill 20
#: servers, and the largest fits two of the five server types only.
BIG_VM_TYPES = [spec for spec in ALL_VM_TYPES if spec.cpu >= 8]

#: name -> (VMs, servers). ``dense`` and ``overfull`` arrive within a
#: few ticks and stay for ~60, so nearly every VM is alive at once.
STREAMS = {
    "sparse": (generate_vms(24, mean_interarrival=4.0, seed=19), 20),
    "dense": (generate_vms(60, mean_interarrival=0.05, mean_duration=60,
                           seed=3), 24),
    "phased": (PhasedWorkload(mean_interarrival=1.0, uncertainty=0.3)
               .generate(28, rng=4), 15),
    "overfull": (generate_vms(36, mean_interarrival=0.05, mean_duration=60,
                              vm_types=BIG_VM_TYPES, seed=2), 20),
}
#: ``unindexed`` is the ``indexed`` spec run on ``probe_route("unindexed")``
NOMINAL = ("indexed", "unindexed")
ROBUST = ("indexed:gamma=2",)
OPTIMAL = SleepPolicy.OPTIMAL.value


def constraints_for(stream: str) -> PlacementConstraints:
    """Two anti-affinity groups spread over the arrival order and one
    affinity pair."""
    ids = [vm.vm_id for vm in sorted(STREAMS[stream][0],
                                     key=lambda v: (v.start, v.vm_id))]
    return PlacementConstraints.build(
        separate=[ids[2::9], ids[5::11]], colocate=[[ids[7], ids[-3]]])


def configs() -> list[tuple[str, str, str, str, bool]]:
    """``(allocator, engine, stream, policy, constrained)`` per run."""
    out = []
    for algorithm in allocator_names():
        # gamma-ff installs its own Γ config: it runs on the indexed
        # specs only.
        engines = NOMINAL[:1] + ROBUST if algorithm == "gamma-ff" \
            else NOMINAL + ROBUST
        for engine in engines:
            for stream in STREAMS:
                out.append((algorithm, engine, stream, OPTIMAL, False))
    for engine in NOMINAL + ROBUST:
        for stream in STREAMS:
            for policy in SleepPolicy:
                if policy is not SleepPolicy.OPTIMAL:
                    out.append(("min-energy", engine, stream, policy.value,
                                False))
        out.append(("min-energy", engine, "dense", OPTIMAL, True))
    return out


CONFIGS = configs()

#: The allocators whose scans batch their probes (the score family's
#: warm rows, random-fit's ``choose``-only route), on the indexed specs.
KERNEL_CONFIGS = [(algorithm, engine, stream, OPTIMAL, False)
                  for algorithm in ("best-fit", "worst-fit", "random-fit")
                  for engine in ("indexed", "indexed:gamma=2")
                  for stream in STREAMS]


def record_run(algorithm: str, engine: str, stream: str, policy: str,
               constrained: bool) -> tuple[list, object]:
    """The run's decision trail and its fleet kernel (``None``: none was
    built)."""
    if engine == "unindexed":
        with probe_route("unindexed"):
            return record_run(algorithm, "indexed", stream, policy,
                              constrained)
    vms, servers = STREAMS[stream]
    allocator = make_allocator(algorithm, seed=5, engine=engine,
                               policy=policy)
    counters = {}
    select = allocator.select

    def counted_select(vm, states):
        chosen = select(vm, states)
        counters[vm.vm_id] = (allocator.candidates_evaluated,
                              allocator.candidates_feasible)
        return chosen

    allocator.select = counted_select
    decisions = allocator.allocate_batch(
        vms, Cluster.paper_all_types(servers),
        constraints_for(stream) if constrained else None)
    index = allocator._index
    arrivals = sorted(decisions,
                      key=lambda d: (d.vm.start, d.vm.end, d.vm.vm_id))
    return ([[d.vm.vm_id, d.server_id, *counters[d.vm.vm_id],
              d.energy_delta.hex()] for d in arrivals],
            None if index is None else index._kernel)


def config_name(algorithm: str, engine: str, stream: str, policy: str,
                constrained: bool) -> str:
    name = f"{algorithm}/{engine}/{stream}"
    if policy != OPTIMAL:
        name += f"/{policy}"
    return name + "/constrained" if constrained else name


def generate() -> dict:
    """The fixture document: ``runs`` maps each configuration to the
    digest of its trail, ``records`` holds each distinct trail once."""
    runs, records = {}, {}
    for config in CONFIGS:
        trail, _ = record_run(*config)
        digest = hashlib.sha256(
            json.dumps(trail).encode()).hexdigest()[:12]
        runs[config_name(*config)] = digest
        records[digest] = trail
    return {"runs": runs, "records": records}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE.read_text())


def test_the_streams_cover_their_regimes(golden):
    assert len(FIXTURE.read_bytes()) <= 150 * 1024

    def trail(stream, engine="indexed"):
        return golden["records"][golden["runs"][
            config_name("min-energy", engine, stream, OPTIMAL, False)]]

    # sparse: everything placed, (next to) nothing refused
    assert all(sid is not None and evaluated - feasible <= 1
               for _, sid, evaluated, feasible, _ in trail("sparse"))
    # dense: refusals enough for the prefetch, nothing rejected
    assert all(sid is not None for _, sid, *_ in trail("dense"))
    assert sum(evaluated - feasible >= 16
               for _, _, evaluated, feasible, _ in trail("dense")) >= 10
    # phased: the radii change what the Γ specs decide
    assert trail("phased") != trail("phased", "indexed:gamma=2")
    # overfull: rejections
    assert sum(sid is None for _, sid, *_ in trail("overfull")) >= 5


def test_the_fixture_holds_exactly_the_matrix(golden):
    assert list(golden["runs"]) == [config_name(*c) for c in CONFIGS]
    assert set(golden["records"]) == set(golden["runs"].values())


@pytest.mark.parametrize("config", CONFIGS,
                         ids=[config_name(*c) for c in CONFIGS])
def test_decisions_are_the_recorded_ones(golden, config):
    trail, kernel = record_run(*config)
    assert trail == golden["records"][golden["runs"][config_name(*config)]]
    # <= 24 servers: no batch reaches _FLEET_PROBE_FROM rows, and
    # min-energy's prefetch reads remembered refusals, not a kernel
    assert kernel is None


@pytest.mark.parametrize("config", KERNEL_CONFIGS,
                         ids=[config_name(*c) for c in KERNEL_CONFIGS])
def test_the_kernel_route_lands_on_the_recorded_trail(golden, config):
    with probe_route("kernel"):
        trail, kernel = record_run(*config)
    assert trail == golden["records"][golden["runs"][config_name(*config)]]
    assert kernel.probe_calls > 0


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
