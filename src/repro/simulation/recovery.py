"""Shared crash-recovery mechanics: remainder splitting and target choice.

Both failure paths — the offline replay of
:func:`repro.simulation.failures.inject_failures` and the live
``fail_server`` operation of the allocation daemon
(:mod:`repro.service.daemon`) — recover a crashed server's VMs the same
way: each affected VM is cut at the failure tick, the interrupted head
stays on the victim's books as wasted (but already spent) energy, and
the remainder is offered to a recovery allocator over the surviving
fleet. This module holds that mechanics once, so the online service and
the offline simulator provably agree: the end-to-end test streams a
workload at a daemon, injects failures live, and asserts the final
fleet energy equals an offline ``inject_failures`` replay of the same
schedule to 1e-12 relative. The consolidation planner
(:mod:`repro.consolidation.planner`) is the third consumer: a live
migration is the same cut — :func:`split_remainder` at the episode tick
— with the remainder moved for profit instead of necessity.

The two primitives:

* :func:`split_remainder` — the cut rule. A VM that had not started yet
  moves whole (same id, no waste); a running VM is split by
  :func:`~repro.model.phases.split_vm` into a head ``[start, t-1]``
  (new id, stays behind) and a remainder ``[t, end]`` (new id,
  re-placed), consuming exactly two ids from the caller's counter.
* :func:`recover_target` — the re-placement rule. Survivors are scanned
  in server-id order, filtered by :meth:`ServerState.admits`, and the
  recovery allocator's ``choose`` picks among the feasible ones —
  ``None`` when the remainder fits nowhere (a lost VM).
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.allocators.base import Allocator
from repro.allocators.state import ServerState
from repro.model.phases import split_vm
from repro.model.vm import VM

__all__ = ["split_remainder", "recover_target"]


def split_remainder(vm: VM, time: int, next_id: int
                    ) -> tuple[VM | None, VM, int]:
    """Cut ``vm`` at failure tick ``time``.

    Returns ``(head, remainder, next_id)``:

    * ``head`` is the interrupted prefix ``[start, time - 1]`` that ran
      on the dead server — ``None`` when the VM had not started yet (it
      moves whole, keeping its id);
    * ``remainder`` is the part still to run, ``[time, end]`` for a
      split or the original VM for a whole move;
    * ``next_id`` is the caller's id counter after the cut (advanced by
      two for a split — head and remainder each get a fresh id — and
      untouched for a whole move).

    Phase-preserving: a :class:`~repro.model.phases.PhasedVM` keeps its
    demand profile on both sides of the cut.
    """
    if vm.start >= time:
        return None, vm, next_id  # had not started: move it whole
    head, remainder = split_vm(vm, time, next_id, next_id + 1)
    return head, remainder, next_id + 2


def recover_target(remainder: VM,
                   states: Mapping[int, ServerState] | Sequence[ServerState],
                   dead: Mapping[int, int],
                   recovery: Allocator) -> ServerState | None:
    """Pick a surviving server for ``remainder`` via the recovery policy.

    ``states`` maps server id to state (or is a list indexed by server
    id); ``dead`` holds the crashed server ids. Survivors are considered
    in ascending server-id order, the ones that admit it go to
    ``recovery.choose``, and ``None`` means the remainder is lost.
    """
    if isinstance(states, Mapping):
        items = sorted(states.items())
    else:
        items = list(enumerate(states))
    survivors = [state for sid, state in items if sid not in dead]
    feasible = [state for state in survivors if state.admits(remainder)]
    if not feasible:
        return None
    return recovery.choose(remainder, feasible)
