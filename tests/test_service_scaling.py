"""Count-based scaling gates for the durable commit path — no stopwatch.

A tick closes over the servers that are awake and reads their draws,
a snapshot encodes the commits since the previous one, a consolidation
episode or a failure books what is live, and a first-fit walk asks each
candidate yes or no; none may cost what the fleet or the history has
grown to, or build a verdict nobody reads. All are pinned by counting
the work done — ``ServerMachine.power_draw`` calls, ``vm_to_record``
calls, ``ServerState.probe`` / ``admits`` calls, book placements and
the sizes handed to ``merge_intervals`` / ``server_cost`` — so the
gates repeat exactly on any box.
"""

from __future__ import annotations

import json

import pytest

from repro.allocators import state as book_module
from repro.allocators.base import Allocator
from repro.allocators.state import ServerState
from repro.consolidation.planner import PlannedMove
from repro.model.cluster import Cluster
from repro.service import (
    AllocationDaemon,
    ClusterStateStore,
    Replacement,
    consolidate_request,
    fail_server_request,
    place_batch_request,
    place_request,
)
from repro.service import snapshot as snapshot_module
from repro.simulation import power_state as power_state_module
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
    # The aggregates remember each draw from the machine's last
    # mutation; an idle tick sums them (parent: ticks * awake calls, a
    # fleet walk: 300 000).
    assert draws[0] == 0
    # Retirements and the sleep sweep do not enumerate it either.
    store.run_to_completion()
    assert store.servers_active() == 0
    assert store.telemetry().active_servers.tolist() == [awake] * 400


def test_a_wake_or_sleep_storm_is_sorted_once_a_tick(monkeypatch):
    """Membership changes are O(1) in the aggregates — ``awake`` is
    updated in place, the id order dropped — and a tick sorts at most
    once however many machines moved (a copied dict per change took
    490 ms for 3000 wakes, 8 s for 10 000)."""
    n = 2000
    store = ClusterStateStore(Cluster.paper_all_types(n))
    store.advance_to(1)
    awake = store.fleet.awake
    sorts = [0]

    def counting(*args, **kwargs):
        sorts[0] += 1
        return sorted(*args, **kwargs)
    monkeypatch.setattr(power_state_module, "sorted", counting,
                        raising=False)
    for i in range(n):      # descending ids: each wake lands in front
        store.commit(make_vm(i, 2, 3), n - 1 - i)
    store.advance_to(3)     # n wakes, then tick 2 closes
    assert store.servers_active() == n and sorts[0] == 1
    assert store.fleet.awake_ids() == list(range(n))
    store.advance_to(6)     # n sleeps at the close of tick 3
    assert store.servers_active() == 0 and sorts[0] == 2
    assert store.fleet.awake is awake and not awake
    assert store.telemetry().active_servers.tolist() == [0, n, n, 0, 0]


def test_a_first_fit_batch_asks_yes_or_no_and_builds_no_verdict(
        monkeypatch):
    daemon = AllocationDaemon(
        ClusterStateStore(Cluster.paper_all_types(30)),
        algorithm="first-fit")
    assert not hasattr(daemon, "_state_lock")   # the commit lock serialises
    verdicts = _counting(monkeypatch, ServerState, "probe")
    asked = _counting(monkeypatch, ServerState, "admits")
    counted = [0]
    select = Allocator.select

    def selecting(allocator, vm, states):
        before = asked[0]
        chosen = select(allocator, vm, states)
        assert asked[0] - before == allocator.candidates_evaluated
        counted[0] += allocator.candidates_evaluated
        return chosen
    monkeypatch.setattr(Allocator, "select", selecting)
    response = daemon.handle(place_batch_request(
        make_vm(i, 1 + i // 40, 30 + i // 40, cpu=3.0) for i in range(200)))
    assert response["placed"] + response["rejected"] == 200
    assert response["placed"] >= 100
    assert counted[0] > 4 * 200     # the full servers up front refuse
    assert verdicts[0] == 0         # parent: one Feasibility per candidate
    # one yes/no per counted candidate, plus ``place``'s guard per commit
    assert asked[0] == counted[0] + response["placed"]


def test_periodic_snapshot_encodes_only_the_live_vms(tmp_path, monkeypatch):
    every, rounds = 100, 4
    daemon = AllocationDaemon(
        ClusterStateStore(Cluster.paper_all_types(40)),
        data_dir=tmp_path, snapshot_every=every, fsync=False)
    store = daemon.store
    # ``snapshot`` binds vm_to_record by name: this counts the snapshot
    # encoder's calls, not the journal's or the request builder's.
    encoded = _counting(monkeypatch, snapshot_module, "vm_to_record")
    for n in range(1, rounds + 1):
        for i in range((n - 1) * every, n * every):
            response = daemon.handle(place_request(
                make_vm(i, 1 + i // 10, 4 + i // 10)))
            assert response["decision"] == "placed", response
        # the residents and the last commit; every commit ever (n *
        # every) in format 3, the commits since the last snapshot in
        # its incremental encoder
        live = len(store.placements)
        assert encoded[0] == live + 1 and live <= 50
        seq = daemon._last_seq()
        written = daemon.snapshots.path_for(seq).read_text()
        assert written == json.dumps(store.to_snapshot(daemon._meta(seq)))
        assert json.loads(written)["store"]["placements"] == n * every
        encoded[0] = 0


def _sizing(monkeypatch, owner, name: str) -> list[int]:
    """Record in ``largest[0]`` the largest collection ``owner.name``
    is handed (as its last positional argument) from here on."""
    largest = [0]
    wrapped = getattr(owner, name)

    def sized(*args, **kwargs):
        items = list(args[-1])
        largest[0] = max(largest[0], len(items))
        return wrapped(*args[:-1], items, **kwargs)
    monkeypatch.setattr(owner, name, sized)
    return largest


def test_an_episode_and_a_failure_cost_what_is_live(monkeypatch):
    servers, history = 30, 3000
    store = ClusterStateStore(Cluster.paper_all_types(servers))
    for i in range(history):        # 100 short VMs per server, all gone
        store.advance_to(1 + i // servers * 3)
        store.commit(make_vm(i, store.clock, store.clock + 1), i % servers)
    store.advance_to(store.clock + 5)
    start = store.clock
    for sid in range(servers):      # one long light VM on every server
        store.commit(make_vm(history + sid, start, start + 400), sid)
    store.advance_to(start + 10)
    live = sum(len(book.vms) for book in store.states)
    assert live == servers <= 40 and store.placement_count() >= history
    fullest = max(len(book.vms) for book in store.states)

    booked = _counting(monkeypatch, ServerState, "place_trusted")
    merged = _sizing(monkeypatch, book_module, "merge_intervals")
    costed = _sizing(monkeypatch, book_module, "server_cost")
    report = store.consolidate()
    assert report.migrations >= 1
    # ``place`` books through ``place_trusted``: every booking counts.
    assert booked[0] <= 3 * live + report.migrations    # parent: > 3000
    fullest = max(fullest, max(len(book.vms) for book in store.states))

    booked[0] = 0
    victim = max(range(servers), key=lambda sid: len(store.states[sid].vms))
    failure = store.fail_server(victim)
    assert failure.killed >= 1 and len(failure.replacements) >= 2
    assert booked[0] <= 3 * live    # parent: the victim's whole history
    assert merged[0] <= fullest and costed[0] <= fullest
    store.run_to_completion()
    assert store.energy_accumulated == pytest.approx(store.energy_total(),
                                                     rel=1e-12)


def test_a_live_episode_encodes_each_record_once(monkeypatch, tmp_path):
    # The list the daemon journals is ``report.records``, encoded once:
    # a durable episode of k records used to cost 2k ``to_record``
    # calls, one sweep per destination (the journal, a snapshot event).
    daemon = AllocationDaemon(
        ClusterStateStore(Cluster.paper_all_types(4)), algorithm="first-fit",
        data_dir=tmp_path, fsync=False)
    for i in range(4):              # a short heavy and a long light VM each
        daemon.handle(place_request(make_vm(2 * i, 1, 8, cpu=7.0)))
        daemon.handle(place_request(make_vm(2 * i + 1, 1, 200, cpu=1.0)))
    daemon.handle({"op": "tick", "now": 10})
    moves = _counting(monkeypatch, PlannedMove, "to_record")
    episode = daemon.handle(consolidate_request())
    assert episode["migrations"] >= 1
    assert moves[0] == episode["migrations"]
    replacements = _counting(monkeypatch, Replacement, "to_record")
    victim = max(range(4), key=lambda sid: len(daemon.store.states[sid].vms))
    failure = daemon.handle(fail_server_request(victim))
    assert len(failure["replacements"]) >= 2
    assert replacements[0] == len(failure["replacements"])
    # The journal is the one place the records go: a snapshot holds the
    # books the episodes left, not the episodes.
    journal = [json.loads(line) for line
               in (tmp_path / "journal.jsonl").read_text().splitlines()]
    assert len(journal[-2]["moves"]) == episode["migrations"]
    assert len(journal[-1]["replacements"]) == len(failure["replacements"])
    assert "events" not in daemon.store.to_snapshot()
    assert (moves[0], replacements[0]) == (episode["migrations"],
                                           len(failure["replacements"]))
