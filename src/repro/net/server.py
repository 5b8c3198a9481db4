"""The IO tier's one accept loop, under both socket servers: the data
plane's :class:`~repro.net.transport.TcpListener` (its handler reads
frames) and the control plane's :class:`~repro.core.control.ControlServer`
(its handler answers commands)."""

from __future__ import annotations

import contextlib
import os
import socket
import threading
import time
from typing import Callable

from repro.util.errors import TransportError

#: Host-string prefix selecting a Unix-domain socket endpoint.
UNIX_PREFIX = "unix:"

#: Seconds :meth:`SocketServer.close` waits, in all, for its threads.
JOIN_TIMEOUT = 5.0


def is_unix_endpoint(host: str) -> bool:
    """True when ``host`` names a Unix-domain socket (``"unix:/path"``):
    a same-host fabric's servers and transports then skip loopback TCP
    and ignore the port (0 by convention)."""
    return host.startswith(UNIX_PREFIX)


class SocketServer:
    """Binds TCP, or a Unix-domain socket for a ``"unix:/path"`` host,
    and runs ``handle(conn)`` on a daemon thread per accepted
    connection.  When it returns, the connection is closed and
    forgotten with its thread: only open connections are tracked.

    TCP connections have Nagle off (both users' messages are small and
    latency-bound).  ``rcvbuf`` sets ``SO_RCVBUF`` before ``listen``
    (None keeps the kernel's).  A failed bind is a TransportError.
    """

    def __init__(
        self,
        host: str,
        port: int,
        handle: Callable[[socket.socket], None],
        name: str,
        rcvbuf: int | None,
    ) -> None:
        self._handle = handle
        self._name = name
        self._unix_path = host[len(UNIX_PREFIX) :] if is_unix_endpoint(host) else None
        family = socket.AF_INET if self._unix_path is None else socket.AF_UNIX
        self._sock = socket.socket(family, socket.SOCK_STREAM)
        try:
            if rcvbuf is not None:
                self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, rcvbuf)
            if self._unix_path is None:
                self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
                self._sock.bind((host, port))
                self.host, self.port = self._sock.getsockname()[:2]
            else:
                # A crashed server leaves its socket file behind; binding
                # the same path again must not fail because of that.
                with contextlib.suppress(OSError):
                    os.unlink(self._unix_path)
                self._sock.bind(self._unix_path)
                self.host, self.port = host, 0
            self._sock.listen(64)
        except OSError as exc:
            self._sock.close()
            raise TransportError(f"bind to {host}:{port} failed: {exc}") from exc
        #: Connections accepted so far, open or not.
        self.accepted = 0
        self._conns: dict[socket.socket, threading.Thread] = {}
        self._lock = threading.Lock()
        self._closed = False
        self._thread = threading.Thread(
            target=self._accept_loop, name=f"{name}-{self.port}", daemon=True
        )
        self._thread.start()

    def _accept_loop(self) -> None:
        while True:
            try:
                conn, _addr = self._sock.accept()
            except OSError:
                return  # close() shut the listening socket
            if self._unix_path is None:
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            name = f"{self._name}-conn-{self.port}"
            thread = threading.Thread(target=self._serve, args=(conn,), name=name, daemon=True)
            with self._lock:  # started under it: close() joins only started threads
                if self._closed:
                    conn.close()
                    return
                self.accepted += 1
                self._conns[conn] = thread
                thread.start()

    def _serve(self, conn: socket.socket) -> None:
        try:
            self._handle(conn)
        finally:
            with self._lock:
                del self._conns[conn]
            conn.close()

    def close(self) -> None:
        """Stop accepting, shut the open connections and join every
        thread, for at most :data:`JOIN_TIMEOUT` seconds.  Idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            conns = dict(self._conns)
        # Closing a listening socket does not wake a thread blocked in
        # accept(); shutting it down does (on Linux, with EINVAL).
        with contextlib.suppress(OSError):
            self._sock.shutdown(socket.SHUT_RDWR)
        deadline = time.monotonic() + JOIN_TIMEOUT
        self._thread.join(JOIN_TIMEOUT)
        self._sock.close()
        if self._unix_path is not None:
            with contextlib.suppress(OSError):
                os.unlink(self._unix_path)
        for conn in conns:
            with contextlib.suppress(OSError):
                conn.shutdown(socket.SHUT_RDWR)
        me = threading.current_thread()
        for thread in conns.values():
            if thread is not me:
                thread.join(max(0.0, deadline - time.monotonic()))
