"""A decision is priced once: the commit books the walk's Eq.-17 delta.

min-energy's walk prices the server it chooses; ``select`` leaves that
price in ``Allocator.chosen_cost`` and the commit — the offline walk's
``ServerState.place_trusted`` and the daemon's
``ClusterStateStore.commit`` — books it instead of calling
``incremental_cost`` again. The contract that makes this safe: every
booked delta is, bit for bit, what ``incremental_cost`` answers on a
twin book holding the same prior commits, so the books end on the same
``cost``. Held here on every sleep policy and engine spec, for plain,
radius-carrying and phased VMs given with their starts out of order,
offline (``allocate_batch``) and through the daemon's ``place`` replies
(explained or not, with a delay budget of 0 and 2).
"""

from __future__ import annotations

import copy
from contextlib import nullcontext

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.allocators import make_allocator
from repro.allocators.state import ServerState
from repro.energy import SleepPolicy
from repro.model.catalog import ALL_VM_TYPES, VM_TYPES
from repro.model.cluster import Cluster
from repro.model.intervals import TimeInterval
from repro.model.phases import DemandPhase, PhasedVM
from repro.model.vm import VM, VMSpec
from repro.service import AllocationDaemon, ClusterStateStore, place_request
from repro.simulation.admission import shift_request

from conftest import probe_route

#: ``spec[/route]``: ``unindexed`` drops the candidate index (id ``scan``)
ENGINES = ["indexed", "indexed:gamma=2",
           pytest.param("indexed/unindexed", id="scan")]

#: Paper types 1-3, one server each: a burst fills them (delays,
#: rejections), the largest VM types never fit (static refusals), and a
#: sparse stream leaves gaps past the saturating gap (dormant clones).
CLUSTER = Cluster.paper_all_types(3)

#: (start, length, VM type, shape, explain): shape 0 = plain, 1 = with
#: demand radii, 2 = phased; ``explain`` asks the daemon to explain it.
#: Starts from 1: the live fleet never closes tick 0, so a VM ending
#: there would hold its server's capacity for good.
_ASKS = st.tuples(st.integers(1, 6) | st.integers(1, 40),
                  st.integers(0, 2) | st.integers(0, 12),
                  st.sampled_from(ALL_VM_TYPES), st.integers(0, 2),
                  st.booleans())

#: Two cpu-2 VMs (20 cu) at once: only type 3 holds one, so with a delay
#: budget the second goes a tick later, explained.
_CPU2 = VM_TYPES["cpu-2"]
_DELAYED = [(1, 0, _CPU2, 0, False), (1, 0, _CPU2, 2, True),
            (1, 1, _CPU2, 1, True)]


def _vm(vm_id: int, start: int, length: int, spec: VMSpec,
        shape: int) -> VM:
    if shape == 2:
        return PhasedVM.from_phases(vm_id, start, (
            DemandPhase(1, spec.cpu, spec.memory / 2),
            DemandPhase(length + 1, spec.cpu / 2, spec.memory)))
    if shape == 1:
        spec = VMSpec(spec.name, cpu=spec.cpu, memory=spec.memory,
                      cpu_radius=spec.cpu / 4, mem_radius=spec.memory / 8)
    return VM(vm_id=vm_id, spec=spec,
              interval=TimeInterval(start, start + length))


def _twin(state: ServerState) -> ServerState:
    """A copy of ``state``'s book that shares nothing with it."""
    starts, ends, rows = state.book()
    return ServerState.restored(
        state.server, policy=state.policy, engine=state.engine_config,
        vms=list(state.vms), busy_starts=list(starts),
        busy_ends=list(ends), cost=state.cost, rows=copy.deepcopy(rows))


def _costs(states) -> list[str]:
    return [state.cost.hex() for state in states]


class TestACommitBooksItsWalksPrice:
    @pytest.mark.parametrize("policy", list(SleepPolicy))
    @pytest.mark.parametrize("engine", ENGINES)
    @settings(max_examples=20, deadline=None)
    @given(st.lists(_ASKS, min_size=1, max_size=24))
    @example(_DELAYED)
    def test_offline(self, engine, policy, asks):
        engine, _, route = engine.partition("/")
        vms = [_vm(i, *ask[:4]) for i, ask in enumerate(asks)]
        allocator = make_allocator("min-energy", engine=engine,
                                   policy=policy)
        books = []
        make_books = allocator.books

        def kept_books(cluster):
            books.append(make_books(cluster))
            return books[-1]

        allocator.books = kept_books
        with probe_route(route) if route else nullcontext():
            decisions = allocator.allocate_batch(vms, CLUSTER)
        twins = [ServerState(server, policy=policy, engine=engine)
                 for server in CLUSTER]
        # the walk's commit order: (start, end, id)
        for decision in sorted(decisions, key=lambda d: (
                d.vm.start, d.vm.end, d.vm.vm_id)):
            if decision.server_id is None:
                continue
            twin = twins[decision.server_id]
            assert decision.energy_delta.hex() \
                == twin.incremental_cost(decision.vm).hex()
            twin.place(decision.vm)
        assert _costs(books[0]) == _costs(twins)

    @pytest.mark.parametrize("policy", list(SleepPolicy))
    @pytest.mark.parametrize("engine", ENGINES)
    @settings(max_examples=20, deadline=None)
    @given(st.lists(_ASKS, min_size=1, max_size=24),
           st.sampled_from([0, 2]))
    @example(_DELAYED, 2)
    def test_daemon_place_replies(self, engine, policy, asks, max_delay):
        engine, _, route = engine.partition("/")
        store = ClusterStateStore(CLUSTER, policy=policy, engine=engine)
        with probe_route(route) if route else nullcontext():
            daemon = AllocationDaemon(store, max_delay=max_delay)
            for i, (start, length, spec, shape, explain) in enumerate(asks):
                vm = _vm(i, start, length, spec, shape)
                if vm.start > store.clock:
                    # advance first: the twins see what the decision sees
                    assert daemon.handle({"op": "tick",
                                          "now": vm.start})["ok"]
                twins = [_twin(state) for state in store.states]
                reply = daemon.handle(place_request(vm, explain=explain))
                assert reply["ok"], reply
                if reply["decision"] == "placed":
                    twin = twins[reply["server_id"]]
                    booked = shift_request(vm, reply["delay"])
                    assert reply["energy_delta"].hex() \
                        == twin.incremental_cost(booked).hex()
                    twin.place(booked)
                assert _costs(store.states) == _costs(twins)
