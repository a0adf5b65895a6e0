"""Every path that books a Γ plan books it under Γ.

An allocator owns its books (``Allocator.books``): its sleep policy and
engine config, Γ budget included, are the books' on every path that
decides or re-decides a plan — admission control, ``repro explain``,
failure recovery, epoch consolidation and the daemon ``repro serve``
builds. Each case below runs one path with a Γ-robust allocator and
asks two things of what it booked:

* **differing** — decisions unlike the allocator's own
  ``allocate_batch`` on the same input (where the path decides a
  stream from scratch);
* **refused** — the plan's VMs re-inserted in start order into fresh
  books of the allocator's config: how many its ``admits`` says no to.
  A plan from ``allocate`` scores 0.

Both must be 0. A path that built its books with a policy or engine of
its own probed nominally and showed both.
"""

from __future__ import annotations

import io
import json
import sys

import pytest

from repro.allocators import ServerState, make_allocator
from repro.cli import main
from repro.exceptions import ValidationError
from repro.experiments.config import ScenarioConfig
from repro.extensions.consolidation import EpochConsolidator
from repro.model.allocation import Allocation
from repro.model.cluster import Cluster
from repro.model.vm import VM, VMSpec
from repro.placement.config import EngineConfig
from repro.service import AllocationDaemon, ClusterStateStore, place_request
from repro.simulation.admission import AdmissionController
from repro.simulation.failures import ServerFailure, inject_failures
from repro.workload.trace import Trace

CLUSTER = Cluster.paper_all_types(60)
GAMMA = "indexed:gamma=2"


def _with_radii(vm: VM) -> VM:
    """``vm`` declaring a ±30 % demand radius."""
    spec = VMSpec(vm.spec.name, cpu=vm.cpu, memory=vm.memory,
                  cpu_radius=0.3 * vm.cpu, mem_radius=0.3 * vm.memory)
    return VM(vm_id=vm.vm_id, spec=spec, interval=vm.interval)


VMS = [_with_radii(vm) for vm in ScenarioConfig(
    n_vms=300, mean_interarrival=0.5, mean_duration=8.0).generate_vms(7)]


def _refused(plan: Allocation, spec: str) -> int:
    """VMs of ``plan`` that fresh books of engine ``spec`` refuse,
    re-inserted in start order (each is booked either way)."""
    engine = EngineConfig.parse(spec)
    books = [ServerState(server, engine=engine) for server in plan.cluster]
    refused = 0
    for vm in plan.vms:
        state = books[plan.server_of(vm)]
        refused += not state.admits(vm)
        state.place_trusted(vm)
    return refused


def _differing(got: dict[int, int | None], algorithm: str, vms, cluster,
               **params) -> int:
    """Decisions in ``got`` (vm id -> server id, ``None`` rejected)
    unlike ``algorithm``'s ``allocate_batch``."""
    expected = make_allocator(algorithm, **params).allocate_batch(vms,
                                                                  cluster)
    assert len(got) == len(expected)
    return sum(got[d.vm.vm_id] != d.server_id for d in expected)


def _admission(algorithm: str, **params) -> tuple[int, int]:
    allocator = make_allocator(algorithm, **params)
    outcome = AdmissionController(allocator).run(VMS, CLUSTER)
    got = {vm.vm_id: None for vm in outcome.rejected}
    got.update((vm.vm_id, sid) for vm, sid in outcome.allocation.items())
    return (_differing(got, algorithm, VMS, CLUSTER, **params),
            _refused(outcome.allocation, allocator.engine_config.spec))


def _failures(count: int) -> tuple[int, int]:
    plan = make_allocator("min-energy", engine=GAMMA).allocate(VMS, CLUSTER)
    # the ``count`` busiest servers, dying at evenly spaced ticks
    busiest = sorted(plan.used_servers(),
                     key=lambda sid: (-len(plan.vms_on(sid)), sid))
    horizon = plan.horizon()
    outcome = inject_failures(plan, [
        ServerFailure(server_id=sid, time=horizon * (i + 1) // (count + 1))
        for i, sid in enumerate(busiest[:count])],
        recovery=make_allocator("min-energy", engine=GAMMA))
    assert outcome.killed > 0
    return 0, _refused(outcome.allocation, GAMMA)


def _consolidation() -> tuple[int, int]:
    result = EpochConsolidator(
        epoch_length=10, base=make_allocator("min-energy", engine=GAMMA)
    ).allocate(VMS, CLUSTER)
    assert result.migration_count > 0
    return 0, _refused(result.allocation, GAMMA)


def _plan(got: dict[int, int | None], vms, cluster) -> Allocation:
    """The placed decisions of ``got`` as a plan."""
    by_id = {vm.vm_id: vm for vm in vms}
    return Allocation(cluster, {by_id[vm_id]: sid
                                for vm_id, sid in got.items()
                                if sid is not None})


def _explain(tmp_path, capsys) -> tuple[int, int]:
    vms, cluster = VMS[:60], Cluster.paper_all_types(8)
    path = tmp_path / "radii.json"
    Trace.from_vms(vms).save_json(path)
    assert main(["explain", "--trace", str(path), "--algorithm",
                 "gamma-ff", "--servers", "8"]) == 0
    # banner, the decision table (header, rule, rows), rejection details
    rows = capsys.readouterr().out.split("\n\n")[1].splitlines()[2:]
    got: dict[int, int | None] = {}
    for row in rows:
        vm_id, _, server = row.split()[:3]
        got[int(vm_id)] = None if server == "-" else int(server)
    return (_differing(got, "gamma-ff", vms, cluster, seed=0),
            _refused(_plan(got, vms, cluster), "indexed:gamma=1"))


def _serve(monkeypatch, capsys) -> tuple[int, int]:
    arrivals = sorted(VMS, key=lambda v: (v.start, v.end, v.vm_id))
    monkeypatch.setattr(sys, "stdin", io.StringIO("".join(
        json.dumps(place_request(vm)) + "\n" for vm in arrivals)
        + '{"op": "shutdown"}\n'))
    assert main(["serve", "--stdio", "--servers", "60", "--algorithm",
                 "gamma-ff", "--algo-param", "gamma=2"]) == 0
    responses = [json.loads(line)
                 for line in capsys.readouterr().out.splitlines()][:-1]
    got = {r["vm_id"]: r.get("server_id") for r in responses}
    return (_differing(got, "gamma-ff", VMS, CLUSTER, gamma=2),
            _refused(_plan(got, VMS, CLUSTER), GAMMA))


PATHS = {
    "admission-min-energy": lambda **_: _admission("min-energy",
                                                   engine=GAMMA),
    "admission-gamma-ff": lambda **_: _admission("gamma-ff", gamma=2),
    "failures-4": lambda **_: _failures(4),
    "failures-8": lambda **_: _failures(8),
    "failures-12": lambda **_: _failures(12),
    "consolidation": lambda **_: _consolidation(),
    "explain": lambda tmp_path, capsys, **_: _explain(tmp_path, capsys),
    "serve": lambda monkeypatch, capsys, **_: _serve(monkeypatch, capsys),
}


@pytest.mark.parametrize("path", sorted(PATHS))
def test_a_gamma_plan_is_booked_under_gamma(path, tmp_path, capsys,
                                             monkeypatch):
    differing, refused = PATHS[path](tmp_path=tmp_path, capsys=capsys,
                                     monkeypatch=monkeypatch)
    assert (differing, refused) == (0, 0)


class TestTheDaemonAndItsStoreAgree:
    """The daemon hands the allocator the store's engine config and
    refuses to run the two on different Γ budgets."""

    @pytest.mark.parametrize("store_spec, params", [
        ("indexed", {"algorithm": "gamma-ff", "algo_params": {"gamma": 2}}),
        ("indexed", {"algo_params": {"engine": GAMMA}}),
        (GAMMA, {"algo_params": {"engine": "indexed"}}),
        ("indexed", {"algo_params": {"engine": "indexed:mode=box"}}),
        ("indexed:gamma=3", {"algo_params": {"engine": GAMMA}}),
    ])
    def test_a_mismatch_is_refused_naming_both_specs(self, store_spec,
                                                     params):
        store = ClusterStateStore(CLUSTER, engine=store_spec)
        with pytest.raises(ValidationError) as error:
            AllocationDaemon(store, **params)
        message = str(error.value)
        assert repr(store.engine_config.spec) in message
        assert "but the store books with" in message

    def test_the_store_engine_reaches_the_allocator(self):
        daemon = AllocationDaemon(ClusterStateStore(CLUSTER, engine=GAMMA))
        assert daemon.allocator.engine_config.spec == GAMMA

    def test_a_legacy_kernel_option_names_the_same_engine(self):
        daemon = AllocationDaemon(
            ClusterStateStore(CLUSTER, engine="indexed:kernel=off"),
            algo_params={"engine": "indexed:kernel=on"})
        assert daemon.allocator.engine_config.spec == "indexed"

    def test_a_mismatched_data_dir_refuses_to_restore(self, tmp_path):
        daemon = AllocationDaemon(ClusterStateStore(CLUSTER, engine=GAMMA),
                                  algorithm="gamma-ff",
                                  algo_params={"gamma": 2},
                                  data_dir=tmp_path, fsync=False)
        assert daemon.handle(place_request(VMS[0]))["ok"]
        assert daemon.handle({"op": "shutdown"})["ok"]
        # What a daemon that booked gamma-ff on a nominal store wrote.
        for path in tmp_path.glob("snapshot-*.json"):
            document = json.loads(path.read_text())
            document["engine"] = "indexed"
            path.write_text(json.dumps(document))
        with pytest.raises(ValidationError,
                           match="but the store books with 'indexed'"):
            AllocationDaemon.restore(tmp_path, fsync=False)
