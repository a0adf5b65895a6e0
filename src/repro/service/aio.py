"""The async daemon server: one port, every protocol generation.

:class:`AsyncDaemonServer` runs an :mod:`asyncio` event loop on a
background thread and serves persistent connections for all three
wire dialects at once:

* **v1/v2 JSON-lines** — newline-terminated JSON, one response line
  per request line.
* **v3 binary framing** — length-prefixed frames
  (:mod:`repro.service.framing`).

Each connection is *sniffed* on its first byte: ``0xF3`` (the frame
magic, impossible as the first byte of a JSON-lines request) selects
the framed loop, anything else replays the byte into the line loop.
A connected client keeps its dialect for the connection's lifetime.

The event loop only shuttles bytes; request execution runs on a
bounded thread pool (``handler_threads``) through the daemon's own
``handle_line`` — the commit lock, the bounded ingest window and the
read-op fast path all apply exactly as for in-process and gateway
callers, so a mixed fleet of v1 sockets, v3 frames and gateway HTTP
clients observes one consistent daemon.
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor

from repro.exceptions import ServiceError
from repro.service.daemon import AllocationDaemon
from repro.service.framing import (
    FRAME_MAGIC,
    HEADER_SIZE,
    MAX_FRAME,
    decode_header,
    encode_frame,
)

__all__ = ["AsyncDaemonServer", "serve_async"]


class AsyncDaemonServer:
    """Serve ``daemon`` over TCP with per-connection protocol sniffing.

    Parameters
    ----------
    daemon:
        The shared :class:`AllocationDaemon`.
    host / port:
        Bind address; port ``0`` picks an ephemeral port (read it back
        from :attr:`address` after :meth:`start`).
    handler_threads:
        Width of the request-execution pool. Connections beyond this
        still connect and queue; the daemon's ``max_inflight`` bound
        governs shedding.
    """

    def __init__(self, daemon: AllocationDaemon,
                 host: str = "127.0.0.1", port: int = 0, *,
                 handler_threads: int = 16) -> None:
        self.daemon = daemon
        self._host = host
        self._port = port
        self.address: tuple[str, int] | None = None
        self._executor = ThreadPoolExecutor(
            max_workers=handler_threads,
            thread_name_prefix="repro-aio-handler")
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None
        self._started = threading.Event()
        self._bind_error: BaseException | None = None
        self._stopped = False
        #: Connections currently executing a request (loop-thread only).
        self._busy = 0

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "AsyncDaemonServer":
        """Bind and start serving on the background loop thread."""
        if self._thread is not None:
            raise ServiceError("server already started")
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="repro-aio")
        self._thread.start()
        self._started.wait()
        if self._bind_error is not None:
            raise self._bind_error
        return self

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        try:
            server = await asyncio.start_server(
                self._on_connection, self._host, self._port,
                limit=MAX_FRAME)
        except OSError as exc:
            self._bind_error = exc
            self._started.set()
            return
        self.address = server.sockets[0].getsockname()[:2]
        self._started.set()
        async with server:
            await self._stop_event.wait()
        # A shutdown op fires request_stop from *inside* handle (the
        # daemon's on_shutdown hook), while its response is still being
        # computed. Grace-wait for in-flight handlers to finish writing
        # before returning — asyncio.run() cancels whatever tasks
        # remain, which must only ever be idle readers.
        deadline = self._loop.time() + 10.0
        while self._busy and self._loop.time() < deadline:
            await asyncio.sleep(0.01)

    def request_stop(self) -> None:
        """Ask the loop to stop accepting and unwind (non-blocking)."""
        loop = self._loop
        if loop is not None and not loop.is_closed() \
                and self._stop_event is not None:
            loop.call_soon_threadsafe(self._stop_event.set)

    def stop(self, *, timeout: float = 10.0) -> None:
        """Stop the server and join the loop thread (idempotent)."""
        if self._stopped:
            return
        self._stopped = True
        self.request_stop()
        if self._thread is not None:
            self._thread.join(timeout)
        self._executor.shutdown(wait=False, cancel_futures=True)

    def join(self, timeout: float | None = None) -> None:
        """Block until the server stops (the CLI's serve loop)."""
        if self._thread is not None:
            self._thread.join(timeout)

    def __enter__(self) -> "AsyncDaemonServer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # -- connection handling -----------------------------------------------

    async def _handle(self, line: str) -> str:
        """One request on the handler pool; the loop never blocks."""
        return await asyncio.get_running_loop().run_in_executor(
            self._executor, self.daemon.handle_line, line)

    async def _on_connection(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        try:
            first = await reader.read(1)
            if first:
                await self._serve(reader, writer, first)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # peer went away; nothing to answer
        except asyncio.CancelledError:
            pass  # loop teardown cancelled an idle connection
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError,  # pragma: no cover - racy close
                    asyncio.CancelledError):
                pass

    async def _after_response(self, writer: asyncio.StreamWriter) -> bool:
        """Drain; returns True when the connection should end (the
        daemon was shut down by the request just answered)."""
        await writer.drain()
        if self.daemon.closed:
            # Flush and close *this* connection before unwinding the
            # loop, so the shutdown caller reads its response instead
            # of racing the teardown.
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:  # pragma: no cover - racy close
                pass
            self.request_stop()
            return True
        return False

    async def _serve(self, reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter, first: bytes) -> None:
        """One connection's request loop, in the dialect its sniffed
        ``first`` byte selects."""
        framed = first[0] == FRAME_MAGIC
        read = self._read_frame if framed else self._read_line

        def write(response: str) -> None:
            writer.write(
                encode_frame(response.rstrip("\n").encode("utf-8"))
                if framed else response.encode("utf-8"))

        while True:
            try:
                line = await read(reader, first)
            except ServiceError as exc:
                # A request that cannot even be delimited leaves the
                # stream out of step: answer once, typed, in this
                # connection's dialect (frames are protocol v3, a bare
                # line reads the legacy shape), then hang up.
                write(self.daemon.refuse(exc, 3 if framed else 1))
                await writer.drain()
                return
            if line is None:
                return
            first = b""
            self._busy += 1
            try:
                write(await self._handle(line))
                ended = await self._after_response(writer)
            finally:
                self._busy -= 1
            if ended:
                return

    @staticmethod
    async def _read_frame(reader: asyncio.StreamReader,
                          first: bytes) -> str | None:
        """The next v3 frame's payload (``first`` is the sniffed magic
        byte, if any); ``None`` on EOF between frames."""
        first = first or await reader.read(1)
        if not first:
            return None
        header = first + await reader.readexactly(HEADER_SIZE - 1)
        payload = await reader.readexactly(decode_header(header))
        return payload.decode("utf-8", errors="replace")

    @staticmethod
    async def _read_line(reader: asyncio.StreamReader,
                         first: bytes) -> str | None:
        """The next non-blank JSON line (``first`` is the sniffed
        byte, if any); ``None`` on EOF. A final unterminated line is
        served like any other."""
        while True:
            try:
                raw = first + await reader.readuntil(b"\n")
            except asyncio.IncompleteReadError as exc:
                raw = first + exc.partial
                if not raw:
                    return None
            except asyncio.LimitOverrunError:
                raise ServiceError(
                    f"request line exceeds the {MAX_FRAME}-byte "
                    f"limit") from None
            first = b""
            line = raw.decode("utf-8", errors="replace")
            if line.strip():
                return line


def serve_async(daemon: AllocationDaemon, host: str = "127.0.0.1",
                port: int = 0, *,
                handler_threads: int = 16) -> AsyncDaemonServer:
    """Start an :class:`AsyncDaemonServer` for ``daemon``.

    The server is already accepting when this returns (``port=0``
    binds an ephemeral port — read :attr:`AsyncDaemonServer.address`),
    and a daemon shutdown served over *any* transport stops it.
    """
    server = AsyncDaemonServer(daemon, host, port,
                               handler_threads=handler_threads)
    server.start()
    daemon.on_shutdown(server.request_stop)
    return server
