"""Deterministic first fit (ablation of FFPS without the random shuffle).

Identical to FFPS except that servers are scanned in fleet id order. Useful
to separate how much of FFPS's behaviour comes from the random ordering
versus the first-fit rule itself.
"""

from __future__ import annotations

from repro.allocators.base import Allocator
from repro.allocators.state import ServerState

__all__ = ["FirstFit"]


class FirstFit(Allocator):
    """First fit over servers in id order."""

    name = "first-fit"

    def scan_key(self, state: ServerState) -> float:
        """The server id."""
        return state.server.server_id
