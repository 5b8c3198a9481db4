"""Ephemeral-port reservation (shared by the coordinator and tests).

Hardcoding "probably free" ports is the classic flake: a parallel test
run, a lingering ``TIME_WAIT`` socket, or another service can own the
port and the bind fails (or worse, the test talks to a stranger).
Reserving through the kernel — bind port 0, read the assignment back —
cannot collide, and ``SO_REUSEADDR`` on both the probe socket and the
eventual listener lets the listener rebind the port immediately even
while the probe's closed socket (or a previous listener's accepted
connections) linger in ``TIME_WAIT``.

The reservation is advisory (the socket is closed before the caller
binds), but the window is microseconds and — unlike a hardcoded port —
two concurrent calls can never return overlapping sets, because every
probe socket is held open until the whole batch is allocated.
"""

from __future__ import annotations

import socket


def reserve_ports(n: int, host: str = "127.0.0.1") -> list[int]:
    """Reserve ``n`` distinct free TCP ports on ``host``.

    All probe sockets are held open until every port is assigned, so
    the returned ports are pairwise distinct even within one call.
    """
    if n < 0:
        raise ValueError(f"cannot reserve {n} ports")
    probes: list[socket.socket] = []
    try:
        for _ in range(n):
            s = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            s.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            s.bind((host, 0))
            probes.append(s)
        return [s.getsockname()[1] for s in probes]
    finally:
        for s in probes:
            s.close()
