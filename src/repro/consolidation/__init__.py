"""Online consolidation: defragmenting a live fleet by migration.

The paper saves energy at *allocation* time; a long-running daemon,
however, only ever adds load, and as VMs retire the fleet fragments —
servers idle at partial load that a re-pack would eliminate. This
package holds the online half of the migration story (the offline
post-pass lives in :mod:`repro.extensions.consolidation` and delegates
its move selection here, so offline and live provably agree):

* :class:`FragmentationMonitor` — a per-epoch fragmentation metric read
  off the live :class:`~repro.service.state.ClusterStateStore`: how many
  servers are active versus the packed lower bound the current resident
  demand actually needs.
* :class:`VictimSelector` — ranks drainable servers by reclaimable
  energy (fewest spanning residents first, then the largest idle-power
  + wake term, expressed in the Eq.-2/3 vocabulary of
  :class:`~repro.obs.explain.CostTerms`).
* :class:`MigrationPlanner` — drains victims through an iterative
  re-place queue: each spanning resident is split at the migration tick
  by :func:`~repro.simulation.recovery.split_remainder`, its remainder
  re-bid across the fleet through :meth:`ServerState.admits`-filtered
  candidates (optionally k-sampled), and the move kept only when the
  Eq.-17 saving beats the configured per-move migration cost.

The live entry point is :meth:`ClusterStateStore.consolidate` /
the daemon's protocol-v2 ``consolidate`` op; each episode is journaled
as one atomic group, so kill+restore mid-consolidation reproduces the
exact state. See ``docs/service.md`` ("Consolidation").
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

# This block is the export declaration: repro._lazy reads it at import.
if TYPE_CHECKING:
    from repro.consolidation.fragmentation import (
        FragmentationMonitor as FragmentationMonitor,
        FragmentationReading as FragmentationReading,
    )
    from repro.consolidation.planner import (
        ConsolidationPlan as ConsolidationPlan,
        ConsolidationReport as ConsolidationReport,
        MigrationPlanner as MigrationPlanner,
        PlannedMove as PlannedMove,
    )
    from repro.consolidation.victim import (
        VictimScore as VictimScore,
        VictimSelector as VictimSelector,
    )

__getattr__, __dir__, __all__ = lazy_exports(globals())
