"""Fleet-level candidate index: skip servers that cannot possibly win.

Fleets are built from a handful of server *types* (Table II has six), so a
per-type admission check answers "can this VM ever run on that server?"
once per type instead of once per server. :class:`CandidateIndex` groups a
``prepare``-time fleet by spec identity and lets allocators

* fetch the statically-admissible candidate list in fleet order
  (:meth:`candidates`) — order-preserving, so first-fit semantics and
  deterministic tie-breaking are untouched;
* look up per-spec admission (:meth:`spec_admits`) for allocators with
  their own scan order (ffps, round-robin, power-aware);
* walk, per admissible type, the position queues of its *busy* and
  *pristine* servers (:meth:`groups_for`) — sorted by fleet position
  and updated in place on every commit / retire / remove through the
  ``ServerState`` watcher protocol. A type's Eq.-2/3 run cost
  lower-bounds every candidate in its queues, so a scan drops them whole.
  Pristine servers (never hosted anything) of one spec are
  interchangeable, which lets min-energy probe one representative
  instead of hundreds of identical empty machines.

``kernel=True`` additionally builds the
:class:`~repro.placement.kernels.FleetKernel` that batch-probes
candidates, and the position arrays :meth:`candidate_positions` hands
it; ``kernel=False`` means scalar probes only — same queues, same
decisions.

The index is bound to the exact ``states`` list it was built from
(:meth:`covers` is an identity check); callers fall back to a plain scan
for any other fleet, so ad-hoc uses (failure recovery builds throwaway
state lists) stay correct without rebuilding.
"""

from __future__ import annotations

import bisect
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.allocators.state import ServerState
    from repro.model.vm import VM
    from repro.placement.kernels import FleetKernel

__all__ = ["CandidateIndex", "SpecGroup"]


class SpecGroup:
    """One server type's candidate queues, in fleet-position order.

    ``busy`` and ``pristine`` partition the type's fleet positions:
    pristine servers (no VMs, no busy history) are interchangeable for
    placement, so scans probe one representative; busy servers must each
    be probed. The run cost of a VM on ``spec`` lower-bounds its
    incremental cost on any of them, so the min-energy walk prunes whole
    queues with it.
    """

    __slots__ = ("spec", "busy", "pristine")

    def __init__(self, spec: object) -> None:
        self.spec = spec
        self.busy: list[int] = []
        self.pristine: list[int] = []


class CandidateIndex:
    """Spec-grouped view of one fleet's ``ServerState`` list."""

    __slots__ = ("_states", "_spec_ids", "_pos", "kernel", "_groups",
                 "_is_pristine", "_spec_positions", "_all_positions",
                 "__weakref__")

    def __init__(self, states: Sequence["ServerState"], *,
                 kernel: bool = False) -> None:
        # Bound by identity: `covers` compares with `is`, not `==`.
        self._states = states
        self._spec_ids = [id(st.server.spec) for st in states]
        self._pos = {id(st): i for i, st in enumerate(states)}
        self._is_pristine = [st.is_pristine for st in states]
        #: distinct specs by identity, insertion-ordered
        self._groups: dict[int, SpecGroup] = {}
        for i, st in enumerate(states):
            key = self._spec_ids[i]
            group = self._groups.get(key)
            if group is None:
                group = self._groups[key] = SpecGroup(st.server.spec)
            (group.pristine if self._is_pristine[i]
             else group.busy).append(i)
            st.add_watcher(self)
        #: the batch-probe kernel (``None``: scalar probes only)
        self.kernel: "FleetKernel | None" = None
        if kernel and states:
            from repro.placement.kernels import FleetKernel

            self._spec_positions = {
                key: np.fromiter(
                    (i for i, k in enumerate(self._spec_ids) if k == key),
                    dtype=np.intp)
                for key in self._groups}
            self._all_positions = np.arange(len(states), dtype=np.intp)
            self.kernel = FleetKernel(states)

    def covers(self, states: Sequence["ServerState"]) -> bool:
        """Whether this index was built from exactly this ``states`` list."""
        return states is self._states

    # -- incremental maintenance -------------------------------------------

    def server_state_changed(self, state: "ServerState") -> None:
        """Watcher hook: re-queue a server whose pristine status flipped.

        Commits move a position from its type's pristine queue to the
        busy queue; a remove that empties the server moves it back. The
        queues stay position-sorted via bisect, so scans keep walking
        candidates in fleet order. (The kernel registers its own
        watcher for occupancy rows; this hook only owns the queues.)
        """
        pos = self._pos.get(id(state))
        if pos is None:
            return
        pristine = state.is_pristine
        if pristine == self._is_pristine[pos]:
            return
        self._is_pristine[pos] = pristine
        group = self._groups[self._spec_ids[pos]]
        source, target = ((group.busy, group.pristine) if pristine
                          else (group.pristine, group.busy))
        i = bisect.bisect_left(source, pos)
        if i < len(source) and source[i] == pos:
            del source[i]
        bisect.insort(target, pos)

    # -- static admission ---------------------------------------------------

    def spec_admits(self, vm: "VM") -> dict[int, bool]:
        """``id(spec) -> can this server type ever host vm`` (static caps)."""
        cpu, mem = vm.cpu, vm.memory
        return {key: not (cpu > group.spec.cpu_capacity
                          or mem > group.spec.memory_capacity)
                for key, group in self._groups.items()}

    def candidates(self, vm: "VM") -> Sequence["ServerState"]:
        """Statically-admissible servers in fleet order.

        Returns the original list object unchanged when every type admits
        the VM (the common case — no copy, no allocation).
        """
        admits = self.spec_admits(vm)
        if all(admits.values()):
            return self._states
        return [st for st, key in zip(self._states, self._spec_ids)
                if admits[key]]

    def candidate_positions(self, vm: "VM") -> np.ndarray:
        """Fleet positions of the admissible candidates, in fleet order.

        Built with the kernel only. The all-admitted case returns a
        cached ``arange`` — no per-VM allocation.
        """
        admits = self.spec_admits(vm)
        if all(admits.values()):
            return self._all_positions
        keep = [self._spec_positions[key]
                for key, ok in admits.items() if ok]
        if not keep:
            return np.empty(0, dtype=np.intp)
        return np.sort(np.concatenate(keep))

    def groups_for(self, vm: "VM") -> list[SpecGroup]:
        """The admissible types' candidate queues."""
        admits = self.spec_admits(vm)
        return [group for key, group in self._groups.items()
                if admits[key]]
