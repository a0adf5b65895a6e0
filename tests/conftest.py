"""Shared fixtures for the test suite."""

from __future__ import annotations

import math
from contextlib import contextmanager
from unittest import mock

import pytest

from repro.allocators.base import Allocator
from repro.energy.cost import allocation_cost
from repro.model.allocation import Allocation
from repro.model.cluster import Cluster
from repro.model.intervals import TimeInterval
from repro.model.server import Server, ServerSpec
from repro.model.vm import VM, VMSpec
from repro.service import ClusterStateStore, serve_socket


@pytest.fixture
def small_spec() -> ServerSpec:
    """A small server: 10 cu / 10 GB, 50-100 W, alpha = 100."""
    return ServerSpec("small", cpu_capacity=10.0, memory_capacity=10.0,
                      p_idle=50.0, p_peak=100.0, transition_time=1.0)


@pytest.fixture
def big_spec() -> ServerSpec:
    """A big server: 40 cu / 40 GB, 150-300 W, alpha = 600."""
    return ServerSpec("big", cpu_capacity=40.0, memory_capacity=40.0,
                      p_idle=150.0, p_peak=300.0, transition_time=2.0)


@pytest.fixture
def small_server(small_spec: ServerSpec) -> Server:
    return Server(0, small_spec)


@pytest.fixture
def two_server_cluster(small_spec: ServerSpec,
                       big_spec: ServerSpec) -> Cluster:
    return Cluster.from_specs([small_spec, big_spec])


@pytest.fixture
def unit_vm_spec() -> VMSpec:
    """A 1 cu / 1 GB VM type."""
    return VMSpec("unit", cpu=1.0, memory=1.0)


def make_vm(vm_id: int, start: int, end: int, cpu: float = 1.0,
            memory: float = 1.0, name: str = "t") -> VM:
    """Terse VM constructor used across the suite."""
    return VM(vm_id=vm_id, spec=VMSpec(name, cpu=cpu, memory=memory),
              interval=TimeInterval(start, end))


def book_answers(state, time: int) -> tuple[list, list, list]:
    """Everything a :class:`~repro.allocators.state.ServerState` can be
    asked at ``time`` or later: committed usage per tick, probe
    verdicts and Eq.-17 deltas (as hex) of VMs starting at ``time``,
    the tick after, and beyond the last busy segment."""
    last = max(state._busy_ends, default=time)
    probes = [make_vm(900 + j, start, start + 7, cpu=cpu)
              for j, start in enumerate((time, time + 1, last + 5))
              for cpu in (0.9, 6.1)]
    return ([state._occ.peak(t, t) for t in range(time, time + 40)],
            [state.probe(probe) for probe in probes],
            [state.incremental_cost(probe).hex() for probe in probes])


class HistoryStore(ClusterStateStore):
    """A store that also keeps the placement log the service does not:
    every ``(vm, server_id)`` ever booked, in booking order — a commit
    appends; a failure or an episode drops each VM it splits, then
    appends the heads and remainders as the store books them — for
    tests whose oracle is the whole history (the offline replay, the
    from-scratch Eq.-17 total, the golden digests)."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.history: list[tuple[VM, int]] = []

    def commit(self, vm, server_id, cost=None):
        delta = super().commit(vm, server_id, cost)
        self.history.append((vm, server_id))
        return delta

    def fail_server(self, server_id, time=None, **kwargs):
        report = super().fail_server(server_id, time, **kwargs)
        self._drop([(r.vm, server_id) for r in report.replacements])
        for r in report.replacements:
            if r.head is not None:
                self.history.append((r.head, server_id))
            if r.server_id is not None:
                self.history.append((r.remainder, r.server_id))
        return report

    def consolidate(self, time=None, **kwargs):
        report = super().consolidate(time, **kwargs)
        self._drop([(m.vm, m.source_id) for m in report.moves])
        self.history += [(m.head, m.source_id) for m in report.moves]
        self.history += [(m.remainder, m.target_id) for m in report.moves]
        return report

    def _drop(self, doomed) -> None:
        keys = {(vm.vm_id, sid) for vm, sid in doomed}
        self.history = [(vm, sid) for vm, sid in self.history
                        if (vm.vm_id, sid) not in keys]

    def history_allocation(self) -> Allocation:
        return Allocation(self.cluster, dict(self.history))

    def energy_from_scratch(self) -> float:
        """``allocation_cost`` of the whole history: the total ``stats``
        reported before the store kept running sums only."""
        return allocation_cost(self.history_allocation(),
                               policy=self.policy).total


@pytest.fixture
def vm_factory():
    return make_vm


@contextmanager
def serving(daemon, **kwargs):
    """Serve ``daemon`` on an ephemeral port of the socket front
    (JSON lines and v3 frames); yields ``(host, port)`` and stops the
    server on exit."""
    with serve_socket(daemon, **kwargs) as server:
        yield server.address


@contextmanager
def probe_route(route: str):
    """Send every batch of verdicts to ``"kernel"`` (``probe_fleet`` from
    one row on) or to ``"scalar"`` probes (whatever the batch's length),
    or run ``"unindexed"``: drop the candidate index after every
    ``Allocator.prepare``, so each fleet is scanned as a foreign one —
    collect every server's verdict, then ``choose``, probed scalar."""
    if route == "unindexed":
        prepare = Allocator.prepare

        def unindexed(self, states):
            prepare(self, states)
            self._index = None

        with mock.patch.object(Allocator, "prepare", unindexed):
            yield
        return
    threshold = {"kernel": 1, "scalar": math.inf}[route]
    with mock.patch("repro.allocators.base._FLEET_PROBE_FROM", threshold):
        yield
