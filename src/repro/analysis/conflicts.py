"""Temporal conflict analysis of workloads.

Two VMs *conflict* when their intervals overlap — they can share a server
only if its capacity covers both simultaneously. The conflict graph (VMs
as nodes, overlaps as edges) is an **interval graph**, so its clique
number equals the maximum number of simultaneously-live VMs and is
computable exactly by a sweep, no NP-hard machinery needed. The graph and
the sweep feed the lower bounds in :mod:`repro.analysis.bounds` and the
workload statistics the examples report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.model.phases import demand_profile
from repro.model.vm import VM

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["ConcurrencyProfile", "conflict_graph", "concurrency_profile",
           "peak_demand"]


def conflict_graph(vms: Sequence[VM]) -> nx.Graph:
    """The interval conflict graph of a workload.

    Nodes are VM ids (with the VM stored as a ``vm`` node attribute);
    edges join temporally overlapping VMs. Built by a sweep over interval
    endpoints, O(m log m + E).
    """
    import networkx as nx  # on the call: the bounds and sweeps never need it

    graph = nx.Graph()
    for vm in vms:
        graph.add_node(vm.vm_id, vm=vm)
    ordered = sorted(vms, key=lambda v: (v.start, v.end, v.vm_id))
    live: list[VM] = []
    for vm in ordered:
        live = [other for other in live if other.end >= vm.start]
        for other in live:
            graph.add_edge(other.vm_id, vm.vm_id)
        live.append(vm)
    return graph


@dataclass(frozen=True)
class ConcurrencyProfile:
    """Sweep results: how much runs at once, and when."""

    max_concurrent: int
    peak_time: int
    peak_cpu: float
    peak_cpu_time: int
    peak_memory: float
    peak_memory_time: int

    @property
    def is_sequential(self) -> bool:
        """Whether no two VMs ever overlap."""
        return self.max_concurrent <= 1


def concurrency_profile(vms: Sequence[VM]) -> ConcurrencyProfile:
    """Exact concurrency and resource peaks via an endpoint sweep.

    For interval graphs the maximum clique is the maximum number of
    intervals covering one point, so ``max_concurrent`` is also the
    conflict graph's clique number.
    """
    if not vms:
        return ConcurrencyProfile(0, 0, 0.0, 0, 0.0, 0)
    # +1 at start, -1 just past end (closed intervals).
    events: dict[int, list[float]] = {}
    for vm in vms:
        start_delta = events.setdefault(vm.start, [0, 0.0, 0.0])
        start_delta[0] += 1
        end_delta = events.setdefault(vm.end + 1, [0, 0.0, 0.0])
        end_delta[0] -= 1
        for piece, cpu, memory in demand_profile(vm):
            start_delta = events.setdefault(piece.start, [0, 0.0, 0.0])
            start_delta[1] += cpu
            start_delta[2] += memory
            end_delta = events.setdefault(piece.end + 1, [0, 0.0, 0.0])
            end_delta[1] -= cpu
            end_delta[2] -= memory
    count = 0
    cpu = 0.0
    mem = 0.0
    max_count, count_t = 0, 0
    max_cpu, cpu_t = 0.0, 0
    max_mem, mem_t = 0.0, 0
    for t in sorted(events):
        d_count, d_cpu, d_mem = events[t]
        count += int(d_count)
        cpu += d_cpu
        mem += d_mem
        if count > max_count:
            max_count, count_t = count, t
        if cpu > max_cpu + 1e-12:
            max_cpu, cpu_t = cpu, t
        if mem > max_mem + 1e-12:
            max_mem, mem_t = mem, t
    return ConcurrencyProfile(
        max_concurrent=max_count, peak_time=count_t,
        peak_cpu=max_cpu, peak_cpu_time=cpu_t,
        peak_memory=max_mem, peak_memory_time=mem_t)


def peak_demand(vms: Sequence[VM]) -> tuple[float, float]:
    """Peak simultaneous (cpu, memory) demand of a workload."""
    profile = concurrency_profile(vms)
    return profile.peak_cpu, profile.peak_memory
