"""Epoch-based migration consolidation — beyond the paper.

The paper saves energy *at allocation time* and explicitly contrasts
itself with migration-based approaches (Sec. V: "[6] and [18] researched
to save energy ... by dynamic migration ... our problem focuses on saving
energy by allocation instead of migration"). This extension adds the
migration half of that comparison: a post-pass that revisits the plan at
fixed epoch boundaries and moves running VMs when doing so lowers energy
by more than the migration itself costs.

Model
-----
A live migration at time ``t`` splits a VM into a *head* piece
``[start, t-1]`` staying on the source server and a *remainder* piece
``[t, end]`` on the target. Energy of the resulting plan is the ordinary
Eq.-17 accounting over pieces, plus a per-move cost proportional to the
VM's memory footprint (copying RAM over the network burns energy on both
hosts): ``migration_cost = migration_cost_per_gb * vm.memory``.

The pass is greedy: at each epoch boundary, each VM spanning the boundary
is tentatively split, its remainder re-bid across the fleet with the same
incremental-cost rule the paper uses, and the move is kept only when the
total saving (source relief + target increase + move cost) is negative.

Move selection itself lives in the shared
:class:`~repro.consolidation.planner.MigrationPlanner` — the very same
episode algorithm the live daemon runs — so the offline post-pass and
the online consolidation subsystem provably agree move for move.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.allocators.base import Allocator
from repro.allocators.min_energy import MinIncrementalEnergy
from repro.consolidation.planner import MigrationPlanner
from repro.exceptions import ValidationError
from repro.model.allocation import Allocation
from repro.model.cluster import Cluster
from repro.model.vm import VM

__all__ = ["Migration", "ConsolidationResult", "EpochConsolidator"]


@dataclass(frozen=True)
class Migration:
    """One live migration: a VM moves servers at an epoch boundary."""

    vm_id: int
    time: int
    source: int
    target: int
    cost: float


@dataclass(frozen=True)
class ConsolidationResult:
    """Outcome of allocation plus the migration post-pass."""

    allocation: Allocation
    migrations: tuple[Migration, ...]
    placement_energy: float
    migration_energy: float

    @property
    def total_energy(self) -> float:
        return self.placement_energy + self.migration_energy

    @property
    def migration_count(self) -> int:
        return len(self.migrations)


class EpochConsolidator:
    """Allocate online, then re-consolidate at fixed epoch boundaries.

    Parameters
    ----------
    epoch_length:
        Time units between consolidation passes (the knob trading
        migration churn against energy).
    migration_cost_per_gb:
        Energy charged per GByte of VM memory per move, in the same
        watt-time-unit currency as the rest of the model.
    base:
        The allocator producing the initial plan (the paper's heuristic
        by default). Its books (``Allocator.books``) carry the plan, so
        its policy and engine (Γ included) price every migration too.
    planner:
        The shared :class:`MigrationPlanner` selecting moves (built from
        ``migration_cost_per_gb`` when omitted). Passing the daemon's
        planner instance here is what the live-vs-offline equivalence
        test leans on.
    """

    def __init__(self, epoch_length: int = 30,
                 migration_cost_per_gb: float = 5.0,
                 base: Allocator | None = None,
                 planner: MigrationPlanner | None = None) -> None:
        if epoch_length <= 0:
            raise ValidationError(
                f"epoch_length must be positive, got {epoch_length}")
        self._epoch = epoch_length
        self._planner = planner if planner is not None \
            else MigrationPlanner(migration_cost_per_gb)
        self._base = base if base is not None else MinIncrementalEnergy()

    def allocate(self, vms: Iterable[VM], cluster: Cluster
                 ) -> ConsolidationResult:
        """Produce the consolidated plan for ``vms`` on ``cluster``."""
        vms = list(vms)
        initial = self._base.allocate(vms, cluster)
        states = self._base.books(cluster)
        # Pieces carry fresh ids above the original range so the final
        # Allocation stays a plain VM -> server mapping.
        next_id = max((vm.vm_id for vm in vms), default=-1) + 1
        pieces: dict[VM, int] = {}
        origin: dict[int, int] = {}
        for vm in vms:
            server_id = initial.server_of(vm)
            states[server_id].place_trusted(vm)
            pieces[vm] = server_id
            origin[vm.vm_id] = vm.vm_id

        migrations: list[Migration] = []
        horizon = initial.horizon()
        for boundary in range(self._epoch, horizon + 1, self._epoch):
            plan = self._planner.plan_episode(states, boundary, next_id)
            for move in plan.moves:
                del pieces[move.vm]
                pieces[move.head] = move.source_id
                pieces[move.remainder] = move.target_id
                origin[move.head.vm_id] = origin[move.vm.vm_id]
                origin[move.remainder.vm_id] = origin[move.vm.vm_id]
                migrations.append(Migration(
                    vm_id=origin[move.head.vm_id], time=boundary,
                    source=move.source_id, target=move.target_id,
                    cost=move.cost))
            next_id += 2 * len(plan.moves)

        allocation = Allocation(cluster, pieces)
        placement_energy = sum(state.cost for state in states)
        migration_energy = sum(m.cost for m in migrations)
        return ConsolidationResult(
            allocation=allocation,
            migrations=tuple(migrations),
            placement_energy=placement_energy,
            migration_energy=migration_energy,
        )
