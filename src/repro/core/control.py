"""Control plane for multi-process distributed deployments.

:class:`DistributedWorker` hosts a partition inside one process; this
module adds the coordination layer for workers living in *different*
processes (or machines):

- :class:`ControlServer` — a tiny JSON-lines TCP command endpoint
  attached to a worker (``ping``/``wait_sources``/``finish_sources``/
  ``flush_all``/``is_quiet``/``metrics``/``collect``/``snapshot``/
  ``failures``/``stop``).
- :class:`RemoteWorker` — the client proxy, duck-type compatible with
  :class:`DistributedWorker` for everything the coordinator needs.
- :class:`RemoteDistributedJob` — one job over anything worker-shaped:
  proxies here, in-process workers under
  :class:`~repro.core.distributed.DistributedJob` (its subclass).  Its
  lifecycle is :func:`repro.core.job.drain`, the same function a
  single-resource job ends by.

The process a :class:`ControlServer` runs in is started by
:mod:`repro.cluster.worker` (``python -m repro.cluster.worker --spec
spec.json``), the one worker entry point.

The data plane is unchanged: stream frames ride the workers' own
TCP listeners; only coordination (start/drain/metrics) crosses the
control sockets.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from typing import Any

from repro.core.job import JobState, drain
from repro.net.transport import TcpListener  # noqa: F401  (doc cross-ref)
from repro.util.errors import NeptuneError


class ControlError(NeptuneError):
    """A control command failed on the remote worker."""


class ControlServer:
    """JSON-lines command endpoint for one DistributedWorker."""

    def __init__(self, worker, host: str = "127.0.0.1", port: int = 0) -> None:
        self.worker = worker
        self._server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._server.bind((host, port))
        self._server.listen(8)
        self.host, self.port = self._server.getsockname()[:2]
        self._running = True
        self.stop_requested = threading.Event()
        self._thread = threading.Thread(
            target=self._accept_loop, name=f"neptune-ctl-{self.port}", daemon=True
        )
        self._thread.start()

    def _accept_loop(self) -> None:
        while self._running:
            try:
                conn, _ = self._server.accept()
            except OSError:
                return
            if not self._running:  # close()'s wake-up connection
                conn.close()
                return
            threading.Thread(
                target=self._serve,
                args=(conn,),
                name=f"neptune-ctl-conn-{self.port}",
                daemon=True,
            ).start()

    def _serve(self, conn: socket.socket) -> None:
        try:
            # Request/response lines are tiny: without TCP_NODELAY each
            # exchange stalls on Nagle + delayed ACK (~40ms), which
            # alone would blow the collector's poll-duty budget.
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            rfile = conn.makefile("r", encoding="utf-8")
            wfile = conn.makefile("w", encoding="utf-8")
            for line in rfile:
                line = line.strip()
                if not line:
                    continue
                cmd = None
                try:
                    request = json.loads(line)
                    if not isinstance(request, dict):
                        raise ValueError(
                            f"a control request is a JSON object, not {line[:80]!r}"
                        )
                    cmd = request.get("cmd")
                    response = self._dispatch(request)
                except Exception as exc:  # noqa: BLE001 — report to caller
                    response = {"ok": False, "error": repr(exc)}
                wfile.write(json.dumps(response) + "\n")
                wfile.flush()
                if cmd == "stop":
                    return
        except OSError:
            pass
        finally:
            conn.close()

    def _dispatch(self, request: dict) -> dict:
        cmd = request.get("cmd")
        worker = self.worker
        if cmd == "ping":
            return {"ok": True, "worker_id": worker.worker_id}
        if cmd in ("finish_sources", "prepare_drain", "flush_all"):
            getattr(worker, cmd)()
            return {"ok": True}
        if cmd == "wait_sources":
            # Blocks this connection's thread, and only it: the proxy
            # sends it on a connection of its own.
            done = worker.wait_sources(float(request.get("timeout", 0.0)))
            return {"ok": True, "done": done}
        if cmd == "is_quiet":
            return {"ok": True, "quiet": worker.is_quiet()}
        if cmd == "metrics":
            return {"ok": True, "metrics": worker.metrics()}
        if cmd == "collect":
            # The polled telemetry envelope (series + the spans/events
            # since the last collect + SLO states) for the one cluster
            # collector.  None when the worker runs without an
            # observability plane.
            source = getattr(worker, "delta_source", None)
            return {
                "ok": True,
                "delta": None if source is None else source.collect(),
            }
        if cmd == "snapshot":
            # The standing envelope, no cursor moved: what the flight
            # recorder persists, profile included.  Without an
            # observability plane it still carries the job's series.
            source = getattr(worker, "delta_source", None)
            if source is None:
                from repro.observe import DeltaSource, RuntimeObserver

                source = DeltaSource(RuntimeObserver(), worker.worker_id, worker)
            return {
                "ok": True,
                "snapshot": source.snapshot(
                    request.get("max_events"), request.get("max_spans")
                ),
            }
        if cmd == "collect_info":
            source = getattr(worker, "delta_source", None)
            return {
                "ok": True,
                "info": None if source is None else source.info(),
            }
        if cmd == "flight_dump":
            # Coordinator-requested black-box dump (kill_worker asks
            # for one before delivering the signal).
            recorder = getattr(worker, "flight_recorder", None)
            return {
                "ok": True,
                "path": None if recorder is None else recorder.dump("request"),
            }
        if cmd == "reconfigure":
            # Live elasticity action (policy engine): retune buffer
            # bounds / resize the scheduler pool without a restart.
            return {
                "ok": True,
                "result": worker.reconfigure(dict(request.get("changes") or {})),
            }
        if cmd == "failures":
            return {
                "ok": True,
                "failures": {k: repr(v) for k, v in worker.failures.items()},
            }
        if cmd == "stop":
            worker.stop()
            self.stop_requested.set()
            return {"ok": True}
        return {"ok": False, "error": f"unknown command {cmd!r}"}

    def close(self) -> None:
        """Release underlying resources. Idempotent."""
        if not self._running:
            return
        self._running = False
        # Closing the listening socket does not wake a thread blocked
        # in accept(); a throwaway connection does (the loop then sees
        # _running is False and exits), so the join returns at once.
        try:
            host = "127.0.0.1" if self.host == "0.0.0.0" else self.host
            socket.create_connection((host, self.port), timeout=0.5).close()
        except OSError:
            pass
        self._server.close()
        self._thread.join(5.0)


class RemoteWorker:
    """Coordinator-side proxy for a worker in another process."""

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
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._rfile = self._sock.makefile("r", encoding="utf-8")
        self._wfile = self._sock.makefile("w", encoding="utf-8")
        self._lock = threading.Lock()
        self.worker_id = self._call({"cmd": "ping"})["worker_id"]

    def _call(self, request: dict) -> dict:
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
        return response

    # -- DistributedWorker-compatible surface -----------------------------
    def wait_sources(self, timeout: float) -> bool:
        """Block until the worker's sources finished or something
        failed there; False after ``timeout`` seconds.  On a connection
        of its own: the command blocks for as long as it is given, and
        ``_lock`` is what the collector's ``collect`` and every other
        command of this proxy take turns on."""
        if self._waiter is None:
            self._waiter = RemoteWorker(*self._address, connect_timeout=5.0)
        reply = self._waiter._call({"cmd": "wait_sources", "timeout": timeout})
        return bool(reply["done"])

    def finish_sources(self) -> None:
        """Mark all local sources finished (``stop``)."""
        self._call({"cmd": "finish_sources"})

    def prepare_drain(self) -> None:
        """Switch custom-scheduled processors to data-driven dispatch."""
        self._call({"cmd": "prepare_drain"})

    def flush_all(self) -> None:
        """Force-flush every outbound buffer."""
        self._call({"cmd": "flush_all"})

    def is_quiet(self) -> bool:
        """Locally quiescent: nothing running, queued, or buffered."""
        return bool(self._call({"cmd": "is_quiet"})["quiet"])

    def metrics(self) -> dict:
        """Aggregated per-operator counters."""
        return self._call({"cmd": "metrics"})["metrics"]

    def collect(self) -> dict | None:
        """One telemetry delta from the worker's DeltaSource (None when
        the worker runs without an observability plane)."""
        return self._call({"cmd": "collect"})["delta"]

    def snapshot(
        self, max_events: int | None = None, max_spans: int | None = None
    ) -> dict:
        """The worker's standing telemetry envelope (see
        :meth:`repro.observe.collector.DeltaSource.snapshot`): series,
        profile, and the last ``max_events`` events / ``max_spans``
        spans (None: every one retained).  Advances nothing."""
        request = {"cmd": "snapshot", "max_events": max_events, "max_spans": max_spans}
        return self._call(request)["snapshot"]

    def collect_info(self) -> dict | None:
        """Cheap DeltaSource status (last-collection age, counters)."""
        return self._call({"cmd": "collect_info"})["info"]

    def reconfigure(self, changes: dict) -> dict:
        """Apply a live reconfiguration on the worker (see
        :meth:`~repro.core.distributed.DistributedWorker.reconfigure`);
        returns the worker's applied-changes report."""
        return self._call({"cmd": "reconfigure", "changes": changes})["result"]

    def flight_dump(self) -> str | None:
        """Request an immediate flight-recorder dump; returns its path
        on the worker's filesystem (None without a recorder)."""
        return self._call({"cmd": "flight_dump"})["path"]

    @property
    def failures(self) -> dict:
        """Operator-instance failures keyed by 'operator[index]'."""
        return self._call({"cmd": "failures"})["failures"]

    def stop(self, timeout: float = 10.0) -> None:
        """Stop and release resources. Idempotent."""
        try:
            self._call({"cmd": "stop"})
        except (ControlError, OSError):
            pass  # worker may already be gone
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
