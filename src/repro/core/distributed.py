"""Distributed deployment: a graph spanning multiple Granules resources.

The paper runs NEPTUNE jobs across Granules resources on separate
machines connected by TCP (§II, §IV-A).  This module provides that
deployment shape:

- :func:`round_robin_plan` assigns every operator *instance* to a
  worker (resource).
- :class:`DistributedWorker` hosts one worker's partition: its operator
  instances run on a local :class:`~repro.granules.resource.Resource`,
  wired by the engine's one wiring function
  (:func:`repro.core.runtime._wire_partition`, the same one
  :class:`~repro.core.runtime.NeptuneRuntime` uses); link legs whose
  destination is local use in-process channels, remote
  legs ride :class:`~repro.net.transport.TcpTransport` /
  :class:`~repro.net.transport.TcpListener` with checksummed,
  sequence-verified frames.
- :class:`DistributedJob` coordinates N workers (typically one per
  process or machine; they may also be co-hosted for tests — the full
  TCP path is exercised either way), including graceful drain.

Backpressure works across workers exactly as §III-B4 describes: a gated
inbound channel blocks the listener's reader thread, the kernel receive
buffer fills, TCP's window closes, and the sender's blocking
``sendall`` parks the flushing thread.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any

from repro.core.buffering import FlushTimerService
from repro.core.control import RemoteDistributedJob
from repro.core.graph import StreamProcessingGraph
from repro.core.job import JobState
from repro.core.runtime import _apply_reconfigure, _JobRuntime, _wire_partition
from repro.granules.resource import Resource
from repro.net.framing import Frame
from repro.net.transport import TcpListener, TcpTransport
from repro.util.errors import GraphValidationError, NeptuneError, TransportError


#: How long an early frame waits for this worker's ``connect()`` (the
#: same window a sender grants a slow-starting peer's listener).
_WIRING_TIMEOUT = 30.0


@dataclass(frozen=True)
class DeploymentPlan:
    """Instance → worker assignment for one graph."""

    n_workers: int
    #: (operator name, instance index) → worker index.
    assignment: dict

    def worker_of(self, op: str, instance: int) -> int:
        """The worker hosting (operator, instance)."""
        return self.assignment[(op, instance)]

    def instances_on(self, worker: int) -> list[tuple[str, int]]:
        """The (operator, instance) pairs hosted by a worker."""
        return sorted(k for k, w in self.assignment.items() if w == worker)

    def to_dict(self) -> dict:
        """The wire form (a ``WorkerSpec.plan``): ``{"n_workers": N,
        "assignment": [[op, idx, worker], ...]}``, sorted by (op, idx)."""
        return {
            "n_workers": self.n_workers,
            "assignment": [
                [op, idx, worker]
                for (op, idx), worker in sorted(self.assignment.items())
            ],
        }

    @classmethod
    def from_dict(cls, raw: Any) -> "DeploymentPlan":
        """The plan a :meth:`to_dict` form describes."""
        assignment = {
            (str(op), int(idx)): int(worker)
            for op, idx, worker in raw["assignment"]
        }
        return cls(n_workers=int(raw["n_workers"]), assignment=assignment)


def round_robin_plan(graph: StreamProcessingGraph, n_workers: int) -> DeploymentPlan:
    """Spread instances across workers round-robin, stage-major.

    Keeping an operator's instances on distinct workers load-balances
    both CPU and network, mirroring the paper's horizontal scaling
    (§III-A5).
    """
    if n_workers <= 0:
        raise GraphValidationError(f"n_workers must be positive: {n_workers}")
    graph.validate()
    assignment = {}
    cursor = 0
    for spec in graph.operators.values():
        for idx in range(spec.parallelism):
            assignment[(spec.name, idx)] = cursor % n_workers
            cursor += 1
    return DeploymentPlan(n_workers=n_workers, assignment=assignment)


class DistributedWorker:
    """One worker's partition of a distributed NEPTUNE job.

    Its public methods are what a coordinator drives it with: the part
    surface of :func:`repro.core.job.drain`, ``metrics`` and
    ``reconfigure``, and the telemetry it answers itself (``collect``,
    ``snapshot``, ``collect_info``, ``flight_dump``).  From another
    process the same names cross the control plane, as listed in
    :data:`repro.core.control.COMMANDS`.
    """

    def __init__(
        self,
        worker_id: int,
        graph: StreamProcessingGraph,
        plan: DeploymentPlan,
        listen_host: str = "127.0.0.1",
        listen_port: int = 0,
        injector=None,
        observer=None,
    ) -> None:
        graph.validate()
        if not 0 <= worker_id < plan.n_workers:
            raise GraphValidationError(
                f"worker_id {worker_id} out of range for {plan.n_workers} workers"
            )
        self.worker_id = worker_id
        self.graph = graph
        self.plan = plan
        self.observer = observer  # repro.observe.RuntimeObserver | None
        self.job = _JobRuntime(graph, observer=observer)
        self._flush_service = FlushTimerService()
        self._resource: Resource | None = None
        # Inbound routing: global wire id → (channel, in_info), filled by
        # connect(); the listener below accepts from construction on,
        # so frames from a peer that started first wait on ``_wired``.
        self._inbound: dict[int, tuple] = {}
        self._wired = threading.Event()
        self._injector = injector
        # Recovery protocol (ack + replay + duplicate suppression) on
        # every link, both ends: the listener acks and resumes, the
        # outbound transports replay on the shared config's schedule.
        self._retry = graph.config.retry_policy()
        self._listener = TcpListener(
            listen_host,
            listen_port,
            sink=self._on_frame,
            injector=injector,
            site=f"tcp.recv.w{worker_id}",
        )
        self._transports: dict[int, TcpTransport] = {}
        self._started = False
        self._lock = threading.Lock()
        #: This shard's DeltaSource and the FlightRecorder persisting
        #: it, when :mod:`repro.cluster.worker` builds them.
        self.delta_source: Any = None
        self.flight_recorder: Any = None

    # -- addressing -----------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        """(host, port) of this worker's data listener."""
        return (self._listener.host, self._listener.port)

    # -- wiring -----------------------------------------------------------------
    def connect(self, endpoints: dict[int, tuple]) -> None:
        """Create instances and wire all link legs.

        ``endpoints`` maps worker id → (host, port) for every worker
        (including this one).  Must be called on every worker before
        :meth:`start`.
        """
        plan, me = self.plan, self.worker_id
        self._inbound = _wire_partition(
            self.job,
            lambda op, idx: plan.worker_of(op, idx) == me,
            f"w{me}:",
            lambda op, idx: self._transport_to(plan.worker_of(op, idx), endpoints),
            self._flush_service,
        )
        self._wired.set()

    def _transport_to(
        self, worker: int, endpoints: dict[int, tuple], connect_window: float = 30.0
    ) -> TcpTransport:
        with self._lock:
            transport = self._transports.get(worker)
        if transport is not None:
            return transport
        # Connect OUTSIDE the lock: a slow-starting peer can take most
        # of ``connect_window``, and holding ``_lock`` for that long
        # would stall every other wire's first flush and the stats
        # snapshots.  Losing a connect race is handled below.
        host, port = endpoints[worker]
        deadline = time.monotonic() + connect_window
        while True:
            try:
                transport = TcpTransport(
                    host,
                    port,
                    retry=self._retry,
                    injector=self._injector,
                    site=f"tcp.send.w{self.worker_id}->w{worker}",
                    # Retry budget exhausted: a failure of the job, which
                    # wakes whoever awaits it.
                    on_link_failure=lambda exc, w=worker: self.job.record_failure(
                        f"link->worker{w}", exc
                    ),
                    observer=self.observer,
                )
                break
            except TransportError:
                if time.monotonic() >= deadline:
                    raise
                time.sleep(0.05)
        with self._lock:
            existing = self._transports.setdefault(worker, transport)
        if existing is not transport:
            transport.close()  # lost the race; the winner carries the wire
        return existing

    # -- inbound ------------------------------------------------------------------
    def _on_frame(self, frame: Frame) -> None:
        if not self._wired.is_set():
            # A peer that started first can flush before this worker's
            # connect() ran.  Hold its frames — a blocked reader thread
            # is ordinary backpressure — rather than fail them: a frame
            # refused here would cost the peer a reconnect and a replay
            # for every attempt until the wires exist.
            self._wired.wait(_WIRING_TIMEOUT)
        entry = self._inbound.get(frame.link_id)
        if entry is None:
            raise NeptuneError(
                f"worker {self.worker_id}: frame for unknown wire {frame.link_id}"
            )
        channel, info = entry
        # The frame passes on unchanged: the listener's receiver took
        # it in order, and the instance runtime checks it again.  The
        # batch is born here: the sender's monotonic clock is not ours,
        # so a socket crossing starts a fresh ``buffer_max_delay``.
        now = time.monotonic()
        channel.put(len(frame.body), (frame, now, info, now))

    # -- lifecycle -----------------------------------------------------------------
    def start(self) -> None:
        """Start background threads/services. Idempotent."""
        if self._started:
            return
        self._started = True
        self._flush_service.start()
        hosted = len(self.job.tasks())
        workers = self.graph.config.effective_workers(max(hosted, 1))
        self._resource = Resource(f"worker-{self.worker_id}", workers=workers)
        self._resource.start()
        self.job.launch(self._resource)

    # -- the part surface of repro.core.job.drain: the hosted job's,
    # plus what only a resource with sockets has -----------------------------
    def wait_sources(self, timeout: float) -> bool:
        """Block until the hosted sources finished or something failed."""
        return self.job.wait_sources(timeout)

    def finish_sources(self) -> None:
        """Mark all local sources finished (``stop``)."""
        self.job.finish_sources()

    def prepare_drain(self) -> None:
        """Switch custom-scheduled processors to data-driven dispatch so
        sub-threshold leftovers cannot be stranded during the drain."""
        self.job.prepare_drain()

    def _unacked(self) -> list[TcpTransport]:
        with self._lock:
            transports = list(self._transports.values())
        return [t for t in transports if t.unacked_frames]

    def flush_all(self) -> None:
        """Force-flush every outbound buffer and nudge transport
        delivery (replay stalled/unacknowledged frames)."""
        self.job.flush_all()
        for t in self._unacked():
            t.ensure_delivered(timeout=0.05, stall=0.3)

    def is_quiet(self) -> bool:
        """Locally quiescent: sources finished, no running task, empty
        channels/buffers, and every sent frame acknowledged."""
        return self.job.is_quiet() and not self._unacked()

    @property
    def failures(self) -> dict[str, BaseException]:
        """Operator-instance failures keyed by 'operator[index]',
        plus terminal link failures keyed by 'link->workerN'."""
        return dict(self.job.failures)

    def metrics(self) -> dict:
        """Aggregated per-operator counters."""
        return self.job.metrics.snapshot()

    def reconfigure(self, changes: dict) -> dict:
        """Apply a live reconfiguration to this shard (control-plane
        ``reconfigure`` command; see the policy engine's act path).

        ``changes`` mirrors :meth:`NeptuneRuntime.reconfigure`:
        ``retune`` adjusts the StreamBuffers on the legs into/out of an
        operator this worker sends on (a shrinking deadline pokes the
        flush-timer service so the tighter bound applies immediately);
        ``scale`` resizes this worker's Granules thread pool.  Returns
        a JSON-able report of what was applied — an empty ``applied``
        list when this shard owns none of the named operator's legs.
        """
        applied = _apply_reconfigure(changes, [self.job], self._resource)
        return {"worker": self.worker_id, "applied": applied}

    # -- telemetry; all but snapshot answer None without a plane ----------
    def ping(self) -> int:
        """This worker's id: what a control connection checks first."""
        return self.worker_id

    def collect(self) -> dict | None:
        """The polled telemetry envelope, for the cluster collector."""
        return None if self.delta_source is None else self.delta_source.collect()

    def snapshot(self, max_events: int | None = None, max_spans: int | None = None) -> dict:
        """The standing envelope, no cursor moved (the job's series at
        least; see :meth:`repro.observe.collector.DeltaSource.snapshot`)."""
        source = self.delta_source
        if source is None:
            from repro.observe.collector import DeltaSource
            from repro.observe.observer import RuntimeObserver

            source = DeltaSource(RuntimeObserver(), self.worker_id, self)
        return source.snapshot(max_events, max_spans)

    def collect_info(self) -> dict | None:
        """Cheap collection status (last-collection age, counters)."""
        return None if self.delta_source is None else self.delta_source.info()

    def flight_dump(self) -> str | None:
        """Write a flight-recorder dump now; its path."""
        recorder = self.flight_recorder
        return None if recorder is None else recorder.dump("request")

    def stop(self, timeout: float = 10.0) -> None:
        """Stop and release resources. Idempotent."""
        if self._resource is not None:
            self.job.terminate()
            self._resource.stop(timeout)
            self._resource = None
        self._flush_service.stop()
        for t in self._transports.values():
            t.close()
        self._listener.close()
        self.job.state = (
            JobState.FAILED if self.failures else JobState.STOPPED
        )


class DistributedJob(RemoteDistributedJob):
    """Coordinates a set of workers hosting one graph.

    For same-process multi-worker deployments (tests, examples): builds
    the workers, exchanges endpoints, starts everything; the global
    drain is :class:`~repro.core.control.RemoteDistributedJob`'s.
    Multi-process deployments construct one
    :class:`DistributedWorker` per process with identical (graph, plan)
    and exchange endpoints out of band, then drive the same methods.
    """

    def __init__(
        self,
        graph: StreamProcessingGraph,
        n_workers: int = 2,
        injector: Any = None,
        observer: Any = None,
    ) -> None:
        self.graph = graph
        self.plan = round_robin_plan(graph, n_workers)
        super().__init__(
            [
                DistributedWorker(w, graph, self.plan, injector=injector, observer=observer)
                for w in range(n_workers)
            ]
        )
        endpoints = {w.worker_id: w.address for w in self.workers}
        for w in self.workers:
            w.connect(endpoints)

    def start(self) -> None:
        """Start background threads/services. Idempotent."""
        for w in self.workers:
            w.start()
