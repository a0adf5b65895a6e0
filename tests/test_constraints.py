"""Tests for affinity / anti-affinity placement constraints."""

from __future__ import annotations

import pytest

from repro.allocators import (
    MinIncrementalEnergy,
    make_allocator,
)
from repro.energy.cost import allocation_cost
from repro.exceptions import AllocationError, ValidationError
from repro.ilp import solve_ilp
from repro.model.cluster import Cluster
from repro.model.constraints import PlacementConstraints
from repro.model.server import ServerSpec
from repro.workload.generator import generate_vms

from conftest import make_vm

SPEC = ServerSpec("s", cpu_capacity=10.0, memory_capacity=10.0,
                  p_idle=50.0, p_peak=100.0, transition_time=1.0)


class TestConstruction:
    def test_trivial(self):
        assert PlacementConstraints.build().is_trivial

    def test_rejects_singleton_group(self):
        with pytest.raises(ValidationError):
            PlacementConstraints.build(colocate=[{1}])

    def test_rejects_direct_contradiction(self):
        with pytest.raises(ValidationError, match="both"):
            PlacementConstraints.build(colocate=[{1, 2}],
                                       separate=[{1, 2}])

    def test_rejects_transitive_contradiction(self):
        # 1~2 and 2~3 force 1 and 3 together; separating them is invalid.
        with pytest.raises(ValidationError):
            PlacementConstraints.build(colocate=[{1, 2}, {2, 3}],
                                       separate=[{1, 3}])

    def test_affinity_classes_merge_chains(self):
        constraints = PlacementConstraints.build(
            colocate=[{1, 2}, {2, 3}, {7, 8}])
        classes = {frozenset(c) for c in constraints.affinity_classes()}
        assert frozenset({1, 2, 3}) in classes
        assert frozenset({7, 8}) in classes


class TestAllows:
    CONSTRAINTS = PlacementConstraints.build(colocate=[{0, 1}],
                                             separate=[{2, 3}])

    def test_affinity_binds_to_partner_server(self):
        assert self.CONSTRAINTS.allows(1, 5, {0: 5})
        assert not self.CONSTRAINTS.allows(1, 6, {0: 5})

    def test_affinity_free_until_partner_placed(self):
        assert self.CONSTRAINTS.allows(1, 9, {})

    def test_anti_affinity_blocks_shared_server(self):
        assert not self.CONSTRAINTS.allows(3, 4, {2: 4})
        assert self.CONSTRAINTS.allows(3, 5, {2: 4})

    def test_unconstrained_vm_is_free(self):
        assert self.CONSTRAINTS.allows(99, 4, {2: 4})


class TestAllocatorsHonourConstraints:
    def overlapping_vms(self, count=4):
        return [make_vm(i, 1, 5, cpu=2.0, memory=2.0)
                for i in range(count)]

    @pytest.mark.parametrize("algo", ["min-energy", "ffps", "best-fit",
                                      "first-fit", "round-robin"])
    def test_anti_affinity_spreads(self, algo):
        vms = self.overlapping_vms(4)
        cluster = Cluster.homogeneous(SPEC, 4)
        constraints = PlacementConstraints.build(
            separate=[{0, 1, 2, 3}])
        allocation = make_allocator(algo, seed=0).allocate(
            vms, cluster, constraints=constraints)
        constraints.validate_allocation(allocation)
        assert len(allocation.used_servers()) == 4

    @pytest.mark.parametrize("algo", ["min-energy", "ffps", "best-fit"])
    def test_affinity_packs(self, algo):
        vms = self.overlapping_vms(3)
        cluster = Cluster.homogeneous(SPEC, 3)
        constraints = PlacementConstraints.build(colocate=[{0, 1, 2}])
        allocation = make_allocator(algo, seed=0).allocate(
            vms, cluster, constraints=constraints)
        constraints.validate_allocation(allocation)
        assert len(allocation.used_servers()) == 1

    def test_infeasible_constraints_raise(self):
        # Three mutually-separated VMs, two servers.
        vms = self.overlapping_vms(3)
        cluster = Cluster.homogeneous(SPEC, 2)
        constraints = PlacementConstraints.build(separate=[{0, 1, 2}])
        with pytest.raises(AllocationError):
            MinIncrementalEnergy().allocate(vms, cluster,
                                            constraints=constraints)

    def test_affinity_capacity_interaction(self):
        # Two 6-cu VMs cannot share a 10-cu server; forcing them together
        # is infeasible.
        vms = [make_vm(0, 1, 3, cpu=6.0), make_vm(1, 1, 3, cpu=6.0)]
        cluster = Cluster.homogeneous(SPEC, 3)
        constraints = PlacementConstraints.build(colocate=[{0, 1}])
        with pytest.raises(AllocationError):
            MinIncrementalEnergy().allocate(vms, cluster,
                                            constraints=constraints)

    def test_constraints_cleared_between_runs(self):
        vms = self.overlapping_vms(3)
        cluster = Cluster.homogeneous(SPEC, 3)
        allocator = MinIncrementalEnergy()
        constrained = allocator.allocate(
            vms, cluster,
            constraints=PlacementConstraints.build(separate=[{0, 1, 2}]))
        assert len(constrained.used_servers()) == 3
        free = allocator.allocate(vms, cluster)
        assert len(free.used_servers()) == 1  # no leakage
        # A run that raises at a rejection clears them too, even while
        # its traceback (and so its frame) is still alive.
        with pytest.raises(AllocationError) as raised:
            allocator.allocate(
                vms, Cluster.homogeneous(SPEC, 2),
                constraints=PlacementConstraints.build(separate=[{0, 1, 2}]))
        assert raised.value.vm_id is not None
        assert allocator._constraints is None
        assert allocator._placed_ids == {}


class TestValidateAllocation:
    def test_detects_split_affinity_group(self):
        vms = [make_vm(0, 1, 2), make_vm(1, 1, 2)]
        cluster = Cluster.homogeneous(SPEC, 2)
        from repro.model.allocation import Allocation

        allocation = Allocation(cluster, {vms[0]: 0, vms[1]: 1})
        constraints = PlacementConstraints.build(colocate=[{0, 1}])
        assert not constraints.is_satisfied_by(allocation)

    def test_detects_collided_anti_affinity(self):
        vms = [make_vm(0, 1, 2), make_vm(1, 4, 5)]
        cluster = Cluster.homogeneous(SPEC, 2)
        from repro.model.allocation import Allocation

        allocation = Allocation(cluster, {vms[0]: 0, vms[1]: 0})
        constraints = PlacementConstraints.build(separate=[{0, 1}])
        with pytest.raises(ValidationError, match="share server"):
            constraints.validate_allocation(allocation)


class TestILPConstraints:
    def test_ilp_honours_anti_affinity(self):
        vms = [make_vm(0, 1, 3, cpu=1.0), make_vm(1, 1, 3, cpu=1.0)]
        cluster = Cluster.homogeneous(SPEC, 2)
        free = solve_ilp(vms, cluster)
        assert len(free.allocation.used_servers()) == 1  # consolidation
        constraints = PlacementConstraints.build(separate=[{0, 1}])
        result = solve_ilp(vms, cluster, constraints=constraints)
        constraints.validate_allocation(result.allocation)
        assert len(result.allocation.used_servers()) == 2
        assert result.objective >= free.objective

    def test_ilp_honours_affinity(self):
        # Three staggered VMs; force 0 and 2 together.
        vms = [make_vm(0, 1, 2, cpu=1.0), make_vm(1, 1, 2, cpu=1.0),
               make_vm(2, 10, 11, cpu=1.0)]
        cluster = Cluster.homogeneous(SPEC, 3)
        constraints = PlacementConstraints.build(colocate=[{0, 2}])
        result = solve_ilp(vms, cluster, constraints=constraints)
        constraints.validate_allocation(result.allocation)

    def test_ilp_rejects_unknown_group_member(self):
        vms = [make_vm(0, 1, 2)]
        cluster = Cluster.homogeneous(SPEC, 1)
        constraints = PlacementConstraints.build(separate=[{0, 999}])
        with pytest.raises(ValidationError, match="unknown VM ids"):
            solve_ilp(vms, cluster, constraints=constraints)

    def test_heuristic_vs_ilp_under_constraints(self):
        vms = generate_vms(8, mean_interarrival=2.0, seed=0)
        cluster = Cluster.paper_all_types(5)
        constraints = PlacementConstraints.build(
            separate=[{0, 1, 2}], colocate=[{3, 4}])
        exact = solve_ilp(vms, cluster, constraints=constraints)
        heuristic = MinIncrementalEnergy().allocate(
            vms, cluster, constraints=constraints)
        constraints.validate_allocation(heuristic)
        assert exact.objective <= \
            allocation_cost(heuristic).total + 1e-6


class TestEnergyPriceOfIsolation:
    def test_anti_affinity_costs_energy(self):
        vms = generate_vms(30, mean_interarrival=1.0, seed=2)
        cluster = Cluster.paper_all_types(15)
        ids = [vm.vm_id for vm in vms[:6]]
        constraints = PlacementConstraints.build(separate=[set(ids)])
        free_cost = allocation_cost(
            MinIncrementalEnergy().allocate(vms, cluster)).total
        isolated_cost = allocation_cost(
            MinIncrementalEnergy().allocate(
                vms, cluster, constraints=constraints)).total
        assert isolated_cost >= free_cost - 1e-9
