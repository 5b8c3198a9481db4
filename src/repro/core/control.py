"""Control plane for multi-process distributed deployments.

:class:`DistributedWorker` hosts a partition inside one process; this
module adds the coordination layer for workers living in *different*
processes (or machines):

- :data:`COMMANDS` — the ``DistributedWorker`` members a peer may
  call: the whole control protocol, one table.
- :class:`ControlServer` — the JSON-lines endpoint that calls them on
  a worker.
- :class:`RemoteWorker` — the client proxy: each command is a member of
  the same name, so it stands in for a ``DistributedWorker`` wherever
  the coordinator needs one.
- :class:`RemoteDistributedJob` — one job over anything worker-shaped:
  proxies here, in-process workers under
  :class:`~repro.core.distributed.DistributedJob` (its subclass).  Its
  lifecycle is :func:`repro.core.job.drain`, the same function a
  single-resource job ends by.

The process a :class:`ControlServer` runs in is started by
:mod:`repro.cluster.worker` (``python -m repro.cluster.worker --spec
spec.json``), the one worker entry point.

The data plane is unchanged: stream frames ride the workers' own
listeners; only coordination (start/drain/metrics) crosses the control
sockets.  Both servers share one accept loop,
:class:`repro.net.server.SocketServer`.
"""

from __future__ import annotations

import contextlib
import functools
import json
import socket
import threading
import time
from typing import Any

from repro.core.job import JobState, drain
from repro.net.server import SocketServer
from repro.util.errors import NeptuneError

#: The :class:`~repro.core.distributed.DistributedWorker` members a peer
#: may call, by name.  A request is one JSON line, ``{"cmd": name,
#: "args": [...], **keywords}``, and its reply is ``{"ok": true,
#: "result": ...}`` or ``{"ok": false, "error": ...}``.  ``failures`` is
#: a property, so its value is the result, each exception as its repr.
#: A new command is a worker method and its name here.
COMMANDS = frozenset(
    {
        "ping",
        "wait_sources",
        "finish_sources",
        "prepare_drain",
        "flush_all",
        "is_quiet",
        "metrics",
        "failures",
        "reconfigure",
        "collect",
        "snapshot",
        "collect_info",
        "flight_dump",
        "stop",
    }
)


class ControlError(NeptuneError):
    """A control command failed on the remote worker."""


class ControlServer:
    """JSON-lines command endpoint for one DistributedWorker, on the
    loopback interface: each connection is served on its own thread,
    one reply line per request line."""

    def __init__(self, worker, port: int = 0) -> None:
        self.worker = worker
        self.stop_requested = threading.Event()
        self._server = SocketServer("127.0.0.1", port, self._serve, "neptune-ctl", None)
        self.port = self._server.port

    def _serve(self, conn: socket.socket) -> None:
        try:
            with conn.makefile("r", encoding="utf-8") as rfile, conn.makefile(
                "w", encoding="utf-8"
            ) as wfile:
                for line in rfile:
                    if not line.strip():
                        continue
                    name, reply = self._reply(line)
                    wfile.write(json.dumps(reply, default=repr) + "\n")
                    wfile.flush()
                    if name == "stop":
                        return
        except OSError:
            pass  # the peer went away

    def _reply(self, line: str) -> tuple[Any, dict]:
        name = None
        try:
            request = json.loads(line)
            if not isinstance(request, dict):
                raise ValueError(f"a control request is a JSON object, not {line[:80]!r}")
            name = request.pop("cmd", None)
            if name not in COMMANDS:
                return name, {"ok": False, "error": f"unknown command {name!r}"}
            member = getattr(self.worker, name)
            args = request.pop("args", ())
            result = member(*args, **request) if callable(member) else member
        except Exception as exc:  # noqa: BLE001 — reported to the caller
            return name, {"ok": False, "error": repr(exc)}
        if name == "stop":
            self.stop_requested.set()
        return name, {"ok": True, "result": result}

    def close(self) -> None:
        """Stop serving and join the connection threads. Idempotent."""
        self._server.close()


class RemoteWorker:
    """Coordinator-side proxy for a worker in another process.  Each
    name in :data:`COMMANDS` is a member here that forwards its
    arguments as they are and returns the worker's result."""

    def __init__(self, host: str, port: int, connect_timeout: float = 30.0) -> None:
        self._address = (host, port)
        self._waiter: RemoteWorker | None = None
        deadline = time.monotonic() + connect_timeout
        last_error: Exception | None = None
        while time.monotonic() < deadline:
            try:
                self._sock = socket.create_connection((host, port), timeout=5.0)
                break
            except OSError as exc:  # worker still starting
                last_error = exc
                time.sleep(0.05)
        else:
            raise ControlError(f"cannot reach worker control at {host}:{port}: {last_error}")
        self._sock.settimeout(60.0)
        # Request/response lines are tiny: without TCP_NODELAY each
        # exchange stalls on Nagle + delayed ACK (~40ms), which alone
        # would blow the collector's poll-duty budget.
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._rfile = self._sock.makefile("r", encoding="utf-8")
        self._wfile = self._sock.makefile("w", encoding="utf-8")
        self._lock = threading.Lock()
        self.worker_id = self.ping()

    def __getattr__(self, name: str) -> Any:
        if name not in COMMANDS:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        return functools.partial(self._command, name)

    def _command(self, name: str, *args: Any, **kwargs: Any) -> Any:
        return self._call({"cmd": name, "args": args, **kwargs})

    def _call(self, request: dict) -> Any:
        message = json.dumps(request) + "\n"
        try:
            with self._lock:
                self._wfile.write(message)
                self._wfile.flush()
                line = self._rfile.readline()
        except (OSError, ValueError) as exc:
            # A worker stopped from elsewhere (external `cluster stop`,
            # a crash) surfaces as EPIPE/ECONNRESET here, a proxy closed
            # on this side as ValueError; callers handle ControlError,
            # so never leak the raw socket error.
            raise ControlError(f"worker control connection lost: {exc}") from exc
        if not line:
            raise ControlError("worker control connection closed")
        response = json.loads(line)
        if not response.get("ok"):
            raise ControlError(response.get("error", "unknown control failure"))
        return response["result"]

    @property
    def failures(self) -> dict:
        """The worker's ``failures`` (a property there too), each
        exception as its repr."""
        return self._command("failures")

    def wait_sources(self, timeout: float) -> bool:
        """Forwarded on a connection of its own: the command blocks for
        as long as it is given, and ``_lock`` is what the collector's
        ``collect`` and every other command of this proxy take turns on."""
        if self._waiter is None:
            self._waiter = RemoteWorker(*self._address, connect_timeout=5.0)
        return bool(self._waiter._command("wait_sources", timeout))

    def stop(self, timeout: float = 10.0) -> None:
        """Stop the worker, then :meth:`close`. Idempotent: a worker
        that is already gone is not an error."""
        with contextlib.suppress(ControlError):
            self._command("stop", timeout)
        self.close()

    def close(self) -> None:
        """Detach: close the control sockets WITHOUT stopping the worker
        (read-only attachments like ``repro cluster status``)."""
        for end in (self._rfile, self._wfile, self._sock):
            try:
                end.close()  # the files hold the descriptor open otherwise
            except OSError:
                pass  # nothing left to flush to
        if self._waiter is not None:
            self._waiter.close()


class RemoteDistributedJob:
    """One job over its workers: the lifecycle and the metric merge.
    A worker is a part of :func:`repro.core.job.drain` with ``metrics``
    and ``stop``: a :class:`~repro.core.distributed.DistributedWorker`
    in this process, or a :class:`RemoteWorker` proxy to one."""

    def __init__(self, workers: list) -> None:
        if not workers:
            raise NeptuneError("RemoteDistributedJob needs at least one worker")
        self.workers = workers
        self.state = JobState.RUNNING  # whoever built the workers started them
        #: Zero-arg callables invoked after the cluster quiesces but
        #: before the workers are stopped (stopping severs the control
        #: sockets).  The cluster collector registers its final poll
        #: here so the merged view includes the drain's tail.
        self.pre_stop_hooks: list = []
        #: ``(hook, exception)`` for every pre-stop hook that raised.
        self.hook_errors: list[tuple[str, BaseException]] = []
        self._final_metrics: dict | None = None
        self._final_failures: dict | None = None

    def failures(self) -> dict:
        """Operator-instance failures keyed by 'operator[index]'.  After
        the teardown has stopped the workers, returns the final snapshot."""
        if self._final_failures is not None:
            return self._final_failures
        out: dict = {}
        for w in self.workers:
            out.update(w.failures)
        return out

    def metrics(self) -> dict:
        """Aggregated per-operator counters.  After the teardown has
        stopped the workers, returns the final pre-stop snapshot."""
        if self._final_metrics is not None:
            return self._final_metrics
        merged: dict = {}
        for w in self.workers:
            for op, m in w.metrics().items():
                if op not in merged:
                    merged[op] = dict(m)
                else:
                    for key, value in m.items():
                        merged[op][key] += value
        return merged

    def await_completion(self, timeout: float = 60.0) -> bool:
        """Wait for natural completion, then the global drain.  False on
        timeout, with every worker still running as configured."""
        return self._drain(timeout, force=False)

    def stop(self, timeout: float = 60.0) -> bool:
        """Finish the sources now, drain, stop the workers. Idempotent."""
        return self._drain(timeout, force=True)

    def _drain(self, timeout: float, force: bool) -> bool:
        if self.state is not JobState.RUNNING:
            return True
        # Frames in flight on a socket need longer to land than a
        # worker thread needs to pick up a batch.
        return drain(
            self.workers,
            timeout,
            force=force,
            teardown=self._teardown,
            settle=0.05,
            poll=0.01,
        )

    def _teardown(self) -> None:
        for hook in self.pre_stop_hooks:
            try:
                hook()
            except Exception as exc:  # noqa: BLE001 - reported below
                # A dying hook must not block the teardown, nor vanish.
                self.hook_errors.append((getattr(hook, "__name__", repr(hook)), exc))
        try:
            # Stopping severs the control connections: snapshot the
            # final counters first so post-run metrics()/failures()
            # still answer.
            self._final_metrics = self.metrics()
            self._final_failures = self.failures()
        except (ControlError, OSError):
            pass
        for w in self.workers:
            w.stop()
        self.state = JobState.FAILED if self._final_failures else JobState.STOPPED
