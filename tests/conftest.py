"""Shared fixtures for the test suite."""

from __future__ import annotations

from contextlib import contextmanager

import pytest

from repro.model.cluster import Cluster
from repro.model.intervals import TimeInterval
from repro.model.server import Server, ServerSpec
from repro.model.vm import VM, VMSpec
from repro.service import serve_async


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


@pytest.fixture
def vm_factory():
    return make_vm


@contextmanager
def serving(daemon, **kwargs):
    """Serve ``daemon`` on an ephemeral port of the socket front
    (JSON lines and v3 frames); yields ``(host, port)`` and stops the
    server on exit."""
    with serve_async(daemon, **kwargs) as server:
        yield server.address
