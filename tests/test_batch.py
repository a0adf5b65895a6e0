"""The batch API must not change any decision.

``Allocator.allocate_batch`` must produce *bit-identical* placements
and Eq.-17 energy to the sequential ``allocate`` path. Every registered
allocator is held to it (``==`` on the placement maps and on the float
energy totals, no tolerance); what the batch API adds — decisions in
request order, rejections as decisions — is checked beside it.
"""

from __future__ import annotations

from contextlib import nullcontext

import pytest

from conftest import probe_route
from repro.allocators import Decision, allocator_names, make_allocator
from repro.energy import allocation_cost
from repro.model.allocation import Allocation
from repro.model.cluster import Cluster
from repro.model.constraints import PlacementConstraints
from repro.simulation.admission import AdmissionController
from repro.workload import PhasedWorkload
from repro.workload.generator import generate_vms

VMS = generate_vms(120, mean_interarrival=2.5, seed=3)
CLUSTER = Cluster.paper_all_types(40)
#: ±30 % demand radii, for the Γ-robust engine
RADII_VMS = PhasedWorkload(mean_interarrival=1.0,
                           uncertainty=0.3).generate(120, rng=3)
#: small enough that every stream above has rejections
TIGHT = Cluster.paper_all_types(6)


def _sequential(algo, vms=VMS, cluster=CLUSTER, seed=0):
    plan = make_allocator(algo, seed=seed).allocate(vms, cluster)
    placements = {vm.vm_id: sid for vm, sid in plan.items()}
    return placements, allocation_cost(plan).total


def _batched(algo, vms=VMS, cluster=CLUSTER, seed=0):
    allocator = make_allocator(algo, seed=seed)
    decisions = allocator.allocate_batch(vms, cluster)
    placements = {d.vm.vm_id: d.server_id for d in decisions if d.placed}
    plan = Allocation(cluster, {d.vm: d.server_id for d in decisions
                                if d.placed})
    return placements, allocation_cost(plan).total, decisions


class TestBatchEquivalence:
    @pytest.mark.parametrize("algo", allocator_names())
    def test_identical_to_sequential(self, algo):
        placements_seq, energy_seq = _sequential(algo)
        placements_batch, energy_batch, _ = _batched(algo)
        assert placements_batch == placements_seq
        assert energy_batch == energy_seq  # bit-identical, no approx

    @pytest.mark.parametrize("engine", [
        "indexed", "indexed/kernel",
        pytest.param("indexed/unindexed", id="scan"), "indexed:gamma=2"])
    @pytest.mark.parametrize("algo", allocator_names())
    def test_admission_without_delay_is_the_batch(self, algo, engine):
        """``AdmissionController`` at ``max_delay=0`` is one walk of the
        allocator: the same placements, rejections and energy bits —
        ``indexed/kernel`` with every batch on the fleet kernel,
        ``scan`` (``indexed/unindexed``) with no candidate index."""
        engine, _, route = engine.partition("/")
        vms = RADII_VMS if "gamma" in engine else VMS
        with probe_route(route) if route else nullcontext():
            outcome = AdmissionController(
                make_allocator(algo, seed=0, engine=engine)).run(vms, TIGHT)
            allocator = make_allocator(algo, seed=0, engine=engine)
            decisions = {id(d.vm): d
                         for d in allocator.allocate_batch(vms, TIGHT)}
        assert outcome.rejected
        assert {vm.vm_id: sid for vm, sid in outcome.allocation.items()} \
            == {d.vm.vm_id: d.server_id for d in decisions.values()
                if d.placed}
        walked = [decisions[id(vm)]  # in decision order
                  for vm in allocator.order_vms(list(vms))]
        assert list(outcome.rejected) == [d.vm for d in walked
                                          if not d.placed]
        energy = 0.0
        for decision in walked:
            energy += decision.energy_delta
        assert outcome.total_energy.hex() == energy.hex()

    def test_decisions_in_request_order(self):
        _, _, decisions = _batched("best-fit")
        assert [d.vm for d in decisions] == list(VMS)

    def test_rejections_are_decisions_not_exceptions(self):
        cluster = Cluster.paper_all_types(1)
        vms = generate_vms(50, mean_interarrival=0.2, seed=5)
        decisions = make_allocator("best-fit").allocate_batch(
            vms, cluster)
        assert len(decisions) == len(vms)
        rejected = [d for d in decisions if not d.placed]
        assert rejected, "tiny fleet must reject something"
        for decision in rejected:
            assert decision.server_id is None
            assert decision.energy_delta == 0.0

    def test_constraints_are_honoured(self):
        constraints = PlacementConstraints.build(
            separate=[tuple(vm.vm_id for vm in VMS[:6])])
        allocator = make_allocator("first-fit")
        decisions = allocator.allocate_batch(VMS, CLUSTER, constraints)
        servers = [d.server_id for d in decisions[:6] if d.placed]
        assert len(servers) == len(set(servers))
        plan = make_allocator("first-fit").allocate(
            VMS, CLUSTER, constraints)
        assert {d.vm.vm_id: d.server_id for d in decisions if d.placed} \
            == {vm.vm_id: sid for vm, sid in plan.items()}

    def test_decision_placed_property(self):
        vm = VMS[0]
        assert Decision(vm=vm, server_id=3, energy_delta=1.0).placed
        assert not Decision(vm=vm, server_id=None).placed
