"""Result types of the batch placement API.

:meth:`repro.allocators.base.Allocator.allocate_batch` returns one
:class:`Decision` per offered VM, *in the request order* — unlike
:meth:`~repro.allocators.base.Allocator.allocate`, a batch does not
raise when a VM fits nowhere; the rejection is reported as a decision
with ``server_id=None`` so callers see the whole batch outcome at once
(the shape the service's ``place_batch`` operation serializes).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.model.vm import VM

__all__ = ["Decision"]


@dataclass(frozen=True)
class Decision:
    """The batch-placement outcome for one VM.

    ``server_id`` is ``None`` when no admissible server could host the
    VM; ``energy_delta`` is the committed Eq.-17 incremental energy
    (``0.0`` for rejections).
    """

    vm: VM
    server_id: int | None
    energy_delta: float = 0.0

    @property
    def placed(self) -> bool:
        """Whether the VM landed on a server."""
        return self.server_id is not None
