"""Allocation results: the VM -> server mapping an allocator produces.

An :class:`Allocation` is the common currency between the allocators, the
ILP solver, the energy accounting and the metrics: an immutable mapping from
VM to server id, together with validation of the paper's constraints
(Eqs. 9-12) — every VM placed on exactly one server, and per-time-unit CPU
and memory capacity respected on every server.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from repro.exceptions import CapacityError, ValidationError
from repro.model.cluster import Cluster
from repro.model.vm import VM

__all__ = ["Allocation"]


class Allocation:
    """An immutable assignment of VMs to servers.

    Parameters
    ----------
    cluster:
        The fleet the VMs were placed onto.
    placements:
        Mapping from :class:`~repro.model.vm.VM` to server id.
    """

    def __init__(self, cluster: Cluster,
                 placements: Mapping[VM, int]) -> None:
        self._cluster = cluster
        self._placements: dict[VM, int] = dict(placements)
        for vm, server_id in self._placements.items():
            if not 0 <= server_id < len(cluster):
                raise ValidationError(
                    f"{vm} placed on unknown server id {server_id}")
        by_server: dict[int, list[VM]] = {}
        for vm, server_id in self._placements.items():
            by_server.setdefault(server_id, []).append(vm)
        for vms in by_server.values():
            vms.sort(key=lambda v: (v.start, v.end, v.vm_id))
        self._by_server = by_server

    # -- accessors ---------------------------------------------------------

    @property
    def cluster(self) -> Cluster:
        return self._cluster

    @property
    def vms(self) -> tuple[VM, ...]:
        """All placed VMs, ordered by (start, end, id)."""
        return tuple(sorted(self._placements,
                            key=lambda v: (v.start, v.end, v.vm_id)))

    def server_of(self, vm: VM) -> int:
        """The server id the VM was placed on."""
        try:
            return self._placements[vm]
        except KeyError:
            raise ValidationError(f"{vm} is not part of this allocation") \
                from None

    def vms_on(self, server_id: int) -> tuple[VM, ...]:
        """The VMs placed on a server, ordered by start time."""
        return tuple(self._by_server.get(server_id, ()))

    def used_servers(self) -> tuple[int, ...]:
        """Ids of servers that host at least one VM, ascending."""
        return tuple(sorted(self._by_server))

    def horizon(self) -> int:
        """``T``: the last time unit any VM is active (0 when empty)."""
        if not self._placements:
            return 0
        return max(vm.end for vm in self._placements)

    def __len__(self) -> int:
        return len(self._placements)

    def __iter__(self) -> Iterator[VM]:
        return iter(self._placements)

    def __contains__(self, vm: VM) -> bool:
        return vm in self._placements

    def items(self) -> Iterable[tuple[VM, int]]:
        return self._placements.items()

    # -- validation --------------------------------------------------------

    def validate(self, *, vms: Iterable[VM] | None = None) -> None:
        """Check the paper's feasibility constraints; raise on violation.

        * every VM of ``vms`` (when given) is placed exactly once
          (constraint 11),
        * at every time unit, CPU and memory usage on each server stay
          within capacity (constraints 9-10).

        Raises
        ------
        ValidationError
            When a VM from ``vms`` is missing from the allocation.
        CapacityError
            When a server is overloaded at some time unit; the error
            carries ``server_id`` and ``time``.
        """
        if vms is not None:
            missing = [vm for vm in vms if vm not in self._placements]
            if missing:
                raise ValidationError(
                    f"{len(missing)} VM(s) not placed, e.g. {missing[0]}")
        import numpy as np

        from repro.model.phases import demand_profile

        for server_id, placed in self._by_server.items():
            server = self._cluster.server(server_id)
            start = min(vm.start for vm in placed)
            end = max(vm.end for vm in placed)
            span = end - start + 2  # +1 closed interval, +1 diff slack
            cpu = np.zeros(span)
            mem = np.zeros(span)
            for vm in placed:
                for piece, piece_cpu, piece_mem in demand_profile(vm):
                    cpu[piece.start - start] += piece_cpu
                    cpu[piece.end - start + 1] -= piece_cpu
                    mem[piece.start - start] += piece_mem
                    mem[piece.end - start + 1] -= piece_mem
            cpu_profile = np.cumsum(cpu)
            mem_profile = np.cumsum(mem)
            tol = 1e-9
            over_cpu = np.nonzero(
                cpu_profile > server.cpu_capacity + tol)[0]
            if over_cpu.size:
                t = int(over_cpu[0]) + start
                raise CapacityError(
                    f"server {server_id} CPU overloaded at t={t}: "
                    f"{cpu_profile[over_cpu[0]]:.3f} > "
                    f"{server.cpu_capacity}",
                    server_id=server_id, time=t)
            over_mem = np.nonzero(
                mem_profile > server.memory_capacity + tol)[0]
            if over_mem.size:
                t = int(over_mem[0]) + start
                raise CapacityError(
                    f"server {server_id} memory overloaded at t={t}: "
                    f"{mem_profile[over_mem[0]]:.3f} > "
                    f"{server.memory_capacity}",
                    server_id=server_id, time=t)

    def is_valid(self, *, vms: Iterable[VM] | None = None) -> bool:
        """Boolean form of :meth:`validate`."""
        try:
            self.validate(vms=vms)
        except (ValidationError, CapacityError):
            return False
        return True

    def __repr__(self) -> str:
        return (f"Allocation(vms={len(self)}, "
                f"servers_used={len(self._by_server)}/"
                f"{len(self._cluster)})")
