"""Tests for the offline (clairvoyant) ordering extensions."""

from __future__ import annotations

from repro.allocators import allocator_names, make_allocator
from repro.energy.cost import allocation_cost
from repro.extensions import LongestFirstMinEnergy, OfflineMinEnergy
from repro.model.cluster import Cluster
from repro.workload.generator import generate_vms

from conftest import make_vm


class TestRegistration:
    def test_registered_by_name(self):
        names = allocator_names()
        assert "min-energy-offline" in names
        assert "min-energy-longest" in names

    def test_make_by_name(self):
        assert isinstance(make_allocator("min-energy-offline"),
                          OfflineMinEnergy)
        assert isinstance(make_allocator("min-energy-longest"),
                          LongestFirstMinEnergy)


class TestOrdering:
    def test_offline_orders_by_cpu_time_desc(self):
        vms = [make_vm(0, 1, 2, cpu=1.0),      # cpu_time 2
               make_vm(1, 5, 9, cpu=4.0),      # cpu_time 20
               make_vm(2, 3, 4, cpu=3.0)]      # cpu_time 6
        ordered = OfflineMinEnergy().order_vms(vms)
        assert [v.vm_id for v in ordered] == [1, 2, 0]

    def test_longest_orders_by_duration_desc(self):
        vms = [make_vm(0, 1, 2), make_vm(1, 5, 12), make_vm(2, 3, 5)]
        ordered = LongestFirstMinEnergy().order_vms(vms)
        assert [v.vm_id for v in ordered] == [1, 2, 0]

    def test_ties_broken_by_start_then_id(self):
        vms = [make_vm(1, 5, 6, cpu=2.0), make_vm(0, 5, 6, cpu=2.0)]
        ordered = OfflineMinEnergy().order_vms(vms)
        assert [v.vm_id for v in ordered] == [0, 1]


class TestBehaviour:
    def test_produces_valid_allocations(self):
        vms = generate_vms(60, mean_interarrival=2.0, seed=4)
        cluster = Cluster.paper_all_types(30)
        for name in ("min-energy-offline", "min-energy-longest"):
            allocation = make_allocator(name).allocate(vms, cluster)
            allocation.validate(vms=vms)

    def test_offline_not_much_worse_than_online(self):
        # Clairvoyance should help or at least not hurt on average.
        diffs = []
        for seed in range(5):
            vms = generate_vms(80, mean_interarrival=4.0, seed=seed)
            cluster = Cluster.paper_all_types(40)
            online = allocation_cost(
                make_allocator("min-energy").allocate(vms, cluster)).total
            offline = allocation_cost(
                make_allocator("min-energy-offline").allocate(
                    vms, cluster)).total
            diffs.append((online - offline) / online)
        assert sum(diffs) / len(diffs) > -0.05
