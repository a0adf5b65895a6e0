"""The socket front: one port, every protocol generation.

:class:`ThreadingDaemonServer` is a threaded TCP server
(:class:`socketserver.ThreadingTCPServer`, as the HTTP gateway is) that
serves persistent connections for all three wire dialects at once:

* **v1/v2 JSON-lines** — newline-terminated JSON, one response line
  per request line.
* **v3 binary framing** — length-prefixed frames
  (:mod:`repro.service.framing`).

Each connection is served start to finish on its own thread. The thread
*sniffs* the first byte (a peek, nothing is consumed): ``0xF3`` (the
frame magic, impossible as the first byte of a JSON-lines request)
selects frames, read with :func:`~repro.service.framing.read_frame`;
anything else selects lines. A connected client keeps its dialect for
the connection's lifetime. The thread then reads each request, runs it
through the daemon's own ``handle_line`` and writes the reply itself —
the commit lock, the bounded ingest window and the lock-free reads all
apply exactly as for in-process and gateway callers, so a mixed fleet
of v1 sockets, v3 frames and gateway HTTP clients observes one
consistent daemon, and a ``stats`` on one connection is answered while
another connection's ``place`` holds the commit lock.
"""

from __future__ import annotations

import socket
import socketserver
import threading

from repro.exceptions import ServiceError, TransportError
from repro.service.daemon import AllocationDaemon
from repro.service.framing import (
    FRAME_MAGIC,
    MAX_FRAME,
    encode_frame,
    read_frame,
)

__all__ = ["ThreadingDaemonServer", "serve_socket"]

#: Connections the kernel queues for ``accept`` on either network front
#: (``socketserver``'s default of 5 makes a burst of connects wait out a
#: one-second SYN retry).
LISTEN_BACKLOG = 100


def _read_line(rfile) -> str | None:
    """The next non-blank JSON line; ``None`` on EOF. A final
    unterminated line is served like any other."""
    while True:
        raw = rfile.readline(MAX_FRAME + 1)
        if not raw:
            return None
        if len(raw) > MAX_FRAME and not raw.endswith(b"\n"):
            raise ServiceError(
                f"request line exceeds the {MAX_FRAME}-byte limit")
        line = raw.decode("utf-8", errors="replace")
        if line.strip():
            return line


def _read_frame(rfile) -> str | None:
    """The next v3 frame's payload; ``None`` on EOF between frames."""
    payload = read_frame(rfile)
    return None if payload is None \
        else payload.decode("utf-8", errors="replace")


class _Connection(socketserver.StreamRequestHandler):
    """One connection's request loop, on the thread that accepted it."""

    disable_nagle_algorithm = True

    def handle(self) -> None:
        daemon = self.server.daemon
        try:
            first = self.rfile.peek(1)[:1]
            if not first:
                return
            framed = first[0] == FRAME_MAGIC
            read = _read_frame if framed else _read_line
            while True:
                try:
                    line = read(self.rfile)
                except TransportError:
                    return  # the peer hung up inside a frame
                except ServiceError as exc:
                    # A request that cannot even be delimited leaves the
                    # stream out of step: answer once, typed, in this
                    # connection's dialect (frames are protocol v3, a
                    # bare line reads the legacy shape), then hang up.
                    self._write(daemon.refuse(exc, 3 if framed else 1),
                                framed)
                    return
                if line is None:
                    return
                self._write(daemon.handle_line(line), framed)
                if daemon.closed:
                    return  # the shutdown just answered; its hook stops us
        except ConnectionError:
            pass  # the peer went away; nothing to answer

    def _write(self, response: str, framed: bool) -> None:
        self.wfile.write(
            encode_frame(response.rstrip("\n").encode("utf-8"))
            if framed else response.encode("utf-8"))


class ThreadingDaemonServer(socketserver.ThreadingTCPServer):
    """Serve ``daemon`` over TCP with per-connection protocol sniffing.

    The port is bound on construction (port ``0`` picks an ephemeral
    port; read it back from :attr:`address`); :meth:`start` accepts on
    a background thread, one thread per connection after that. An idle
    connection costs a parked thread; ``max_inflight`` on the daemon is
    the only bound on requests in flight.
    """

    allow_reuse_address = True
    request_queue_size = LISTEN_BACKLOG

    def __init__(self, daemon: AllocationDaemon,
                 host: str = "127.0.0.1", port: int = 0) -> None:
        super().__init__((host, port), _Connection)
        self.daemon = daemon
        self.address: tuple[str, int] = self.server_address[:2]
        self._thread: threading.Thread | None = None
        self._stopping = False
        self._lock = threading.Lock()
        #: Accepted connection -> its thread, until the thread hangs up.
        self._open: dict[socket.socket, threading.Thread] = {}

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "ThreadingDaemonServer":
        """Start accepting on the background thread."""
        if self._thread is not None:
            raise ServiceError("server already started")
        self._thread = threading.Thread(target=self.serve_forever,
                                        daemon=True, name="repro-tcp")
        self._thread.start()
        return self

    def serve_forever(self, poll_interval: float | None = None) -> None:
        """Accept until :meth:`request_stop`, then hang up on every
        connection and join their threads. There is no poll:
        ``request_stop`` wakes the blocked ``accept`` at once."""
        while True:
            try:
                conn, peer = self.get_request()
            except OSError:
                if self._stopping:
                    break
                continue
            self.process_request(conn, peer)
        # Shutting the read side wakes every parked reader with EOF; a
        # thread still computing its reply (the shutdown's own, say)
        # can still write it before it hangs up.
        with self._lock:
            threads = list(self._open.values())
            for conn in self._open:
                try:
                    conn.shutdown(socket.SHUT_RD)
                except OSError:  # pragma: no cover - racy peer reset
                    pass
        self.server_close()
        for thread in threads:
            thread.join()

    def process_request(self, request: socket.socket,
                        client_address: tuple) -> None:
        thread = threading.Thread(target=self.process_request_thread,
                                  args=(request, client_address),
                                  daemon=True, name="repro-tcp-conn")
        with self._lock:
            self._open[request] = thread
        thread.start()

    def shutdown_request(self, request: socket.socket) -> None:
        with self._lock:
            self._open.pop(request, None)
        super().shutdown_request(request)

    def request_stop(self) -> None:
        """Stop accepting and unwind (non-blocking; safe to call from a
        connection's thread, as the daemon's shutdown hook does)."""
        self._stopping = True
        try:
            self.socket.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # already stopped

    def stop(self, *, timeout: float = 10.0) -> None:
        """Stop the server and join its threads (idempotent)."""
        self.request_stop()
        if self._thread is None:
            self.server_close()
        else:
            self._thread.join(timeout)

    # ``BaseServer.shutdown`` waits for its own ``serve_forever`` loop,
    # which this server replaces.
    shutdown = stop

    def join(self, timeout: float | None = None) -> None:
        """Block until the server stops (the CLI's serve loop)."""
        if self._thread is not None:
            self._thread.join(timeout)

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


def serve_socket(daemon: AllocationDaemon, host: str = "127.0.0.1",
                port: int = 0) -> ThreadingDaemonServer:
    """Start an :class:`ThreadingDaemonServer` for ``daemon``.

    The server is already accepting when this returns (``port=0``
    binds an ephemeral port — read :attr:`ThreadingDaemonServer.address`),
    and a daemon shutdown served over *any* transport stops it.
    """
    server = ThreadingDaemonServer(daemon, host, port).start()
    daemon.on_shutdown(server.request_stop)
    return server
