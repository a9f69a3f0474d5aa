"""The live TCP face of the job server: ``repro serve``.

:class:`ReproServer` binds a :class:`~socketserver.ThreadingTCPServer` on
localhost, gives every connection its own :class:`ServerSession` (and so its
own quota identity ``client-<n>``), and pumps newline-delimited protocol
messages between the socket and the shared
:class:`~repro.runtime.workqueue.WorkQueue`.  A connection that drops
mid-stream has its session closed, detaching -- and, if it was the last
client, cancelling -- whatever it was attached to.

Shutdown is protocol-driven: a ``shutdown`` request stops the accept loop
and closes the queue (draining the backlog by default).  The same path runs
on ``KeyboardInterrupt`` in the CLI.
"""

from __future__ import annotations

import select
import socket
import socketserver
import threading

from repro.runtime.workqueue import WorkQueue
from repro.server.protocol import DEFAULT_HOST, encode_message
from repro.server.service import ServerSession

__all__ = ["ReproServer"]


class _Handler(socketserver.StreamRequestHandler):
    """One connection: read request lines, write response lines."""

    server: "_ThreadingServer"
    # Responses go out as small line-sized writes (``accepted`` then
    # ``result``); with Nagle on, the second waits for the client's delayed ACK.
    disable_nagle_algorithm = True

    def handle(self) -> None:
        session = self.server.repro_server._new_session()
        try:
            for raw in self.rfile:
                line = raw.strip()
                if not line:
                    continue
                responses = session.handle_line(line)
                try:
                    for response in responses:
                        if response is None:
                            # Idle heartbeat from a streaming submit: probe
                            # the socket so a vanished client cancels its job
                            # even when no events are flowing.
                            if self._client_gone():
                                raise ConnectionResetError("client disconnected mid-stream")
                            continue
                        self.wfile.write(encode_message(response))
                        self.wfile.flush()
                finally:
                    # Deterministic teardown: an aborted stream detaches its
                    # job here, not whenever the generator gets collected.
                    responses.close()
                if session.shutdown_requested:
                    self.server.repro_server.request_shutdown(drain=session.shutdown_drain)
                    return
        except (BrokenPipeError, ConnectionResetError, OSError):
            pass  # client vanished; session.close() reclaims its jobs
        finally:
            session.close()

    def _client_gone(self) -> bool:
        """True when the peer closed its end (EOF readable on the socket)."""
        try:
            readable, _, _ = select.select([self.connection], [], [], 0)
            if not readable:
                return False
            # Readable with bytes means a pipelined request, not a hangup.
            return self.connection.recv(1, socket.MSG_PEEK) == b""
        except OSError:
            return True


class _ThreadingServer(socketserver.ThreadingTCPServer):
    daemon_threads = True
    allow_reuse_address = True
    repro_server: ReproServer


class ReproServer:
    """A job server bound to a localhost port, serving one shared queue.

    Parameters
    ----------
    queue:
        The :class:`WorkQueue` requests are admitted into.  The server owns
        its shutdown: closing the server closes the queue.
    host / port:
        Bind address; ``port=0`` picks a free port (the :attr:`address`
        property reports the real one -- how the tests avoid collisions).
    """

    def __init__(self, queue: WorkQueue, host: str = DEFAULT_HOST, port: int = 0) -> None:
        self._queue = queue
        self._tcp = _ThreadingServer((host, port), _Handler)
        self._tcp.repro_server = self
        self._session_seq = 0
        self._session_lock = threading.Lock()
        self._shutdown_started = False
        self._drain = True
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        """The actually-bound ``(host, port)``."""
        host, port = self._tcp.server_address[:2]
        return str(host), int(port)

    @property
    def queue(self) -> WorkQueue:
        """The shared work queue (handy for in-process inspection)."""
        return self._queue

    def _new_session(self) -> ServerSession:
        with self._session_lock:
            self._session_seq += 1
            return ServerSession(self._queue, client_id=f"client-{self._session_seq}")

    # ------------------------------------------------------------------ #
    def serve_forever(self) -> None:
        """Run the accept loop until :meth:`request_shutdown`; then close."""
        try:
            self._tcp.serve_forever(poll_interval=0.1)
        except KeyboardInterrupt:
            # Ctrl-C means "stop now", not "finish the backlog".  _drain is
            # shared with request_shutdown() on handler threads, so take the
            # lock here too.
            with self._session_lock:
                self._drain = False
        finally:
            self._tcp.server_close()
            with self._session_lock:
                drain = self._drain
            self._queue.close(drain=drain)

    def start(self) -> ReproServer:
        """Run :meth:`serve_forever` on a background thread (for tests)."""
        self._thread = threading.Thread(
            target=self.serve_forever, name="repro-server", daemon=True
        )
        self._thread.start()
        return self

    def request_shutdown(self, drain: bool = True) -> None:
        """Stop accepting, then close the queue (idempotent, non-blocking)."""
        with self._session_lock:
            if self._shutdown_started:
                return
            self._shutdown_started = True
            self._drain = drain
        # shutdown() blocks until serve_forever() exits, so never call it
        # from a handler thread directly.
        threading.Thread(target=self._tcp.shutdown, daemon=True).start()

    def join(self, timeout: float | None = None) -> bool:
        """Wait for a :meth:`start`-ed server to finish; ``False`` on timeout."""
        if self._thread is None:
            return True
        self._thread.join(timeout)
        return not self._thread.is_alive()

    def __enter__(self) -> ReproServer:
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.request_shutdown(drain=exc_type is None)
        self.join(timeout=30.0)
