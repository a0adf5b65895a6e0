"""One-release alias of :mod:`repro.service.tcp`, the socket front's
module while it was an asyncio loop; it goes in the next release."""

from __future__ import annotations

from repro.service.tcp import AsyncDaemonServer, serve_async

__all__ = ["AsyncDaemonServer", "serve_async"]
