"""Count-based scaling gates for the durable commit path — no stopwatch.

A tick closes over the servers that are awake and a snapshot encodes
the commits since the previous one; neither may cost what the fleet or
the history has grown to. Both are pinned by counting the work done —
``ServerMachine.power_draw`` calls, ``vm_to_record`` calls — so the
gates repeat exactly on any box.
"""

from __future__ import annotations

import json

from repro.model.cluster import Cluster
from repro.service import AllocationDaemon, ClusterStateStore, place_request
from repro.service import state as state_module
from repro.simulation.power_state import ServerMachine

from conftest import make_vm


class _NoScan(dict):
    """A ``machines`` table that may be indexed but never enumerated."""

    def _refuse(self, *args):
        raise AssertionError("the fleet was enumerated")

    __iter__ = keys = values = items = _refuse


def _counting(monkeypatch, owner, name: str) -> list[int]:
    """Count calls of ``owner.name`` in ``calls[0]`` from here on."""
    calls = [0]
    wrapped = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return wrapped(*args, **kwargs)
    monkeypatch.setattr(owner, name, counted)
    return calls


def test_idle_ticks_cost_the_awake_servers_not_the_fleet(monkeypatch):
    awake, ticks = 5, 100
    store = ClusterStateStore(Cluster.paper_all_types(3000))
    store.advance_to(1)
    for i in range(awake):
        store.commit(make_vm(i, 1, 400), 7 + 500 * i)
    store.advance_to(10)
    assert store.servers_active() == awake
    store.machines = _NoScan(store.machines)
    draws = _counting(monkeypatch, ServerMachine, "power_draw")
    store.advance_to(10 + ticks)
    assert 0 < draws[0] <= ticks * awake    # a fleet walk: 300 000
    # Retirements and the sleep sweep do not enumerate it either.
    store.run_to_completion()
    assert store.servers_active() == 0
    assert store.telemetry().active_servers.tolist() == [awake] * 400


def test_periodic_snapshot_encodes_only_the_commits_since(
        tmp_path, monkeypatch):
    every, rounds = 100, 4
    daemon = AllocationDaemon(
        ClusterStateStore(Cluster.paper_all_types(40)),
        data_dir=tmp_path, snapshot_every=every, fsync=False)
    store = daemon.store
    # ``state`` binds vm_to_record by name: this counts the snapshot
    # encoder's calls, not the journal's or the request builder's.
    encoded = _counting(monkeypatch, state_module, "vm_to_record")
    for n in range(1, rounds + 1):
        for i in range((n - 1) * every, n * every):
            response = daemon.handle(place_request(
                make_vm(i, 1 + i // 10, 4 + i // 10)))
            assert response["decision"] == "placed", response
        assert encoded[0] == every          # parent: n * every
        seq = daemon._last_seq()
        written = daemon.snapshots.path_for(seq).read_text()
        assert written == json.dumps(store.to_snapshot(daemon._meta(seq)))
        assert len(json.loads(written)["placements"]) == n * every
        encoded[0] = 0
