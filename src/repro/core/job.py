"""Job lifecycle (paper §III: "The framework initializes individual
stages, establishes communication between stages and manages the
lifecycle of a stream processing job").

A :class:`JobHandle` is returned by
:meth:`~repro.core.runtime.NeptuneRuntime.submit`; it exposes state,
metrics, graceful stop (drain — never drop), and failure reporting.
:func:`drain` is the lifecycle itself — wait, drain, teardown — for a
job on one resource or on many (DESIGN.md "Job lifecycle").
"""

from __future__ import annotations

import enum
import time
from typing import Any, Callable, Sequence


class JobState(enum.Enum):
    """Job lifecycle states."""
    CREATED = "created"
    RUNNING = "running"
    DRAINING = "draining"
    STOPPED = "stopped"
    FAILED = "failed"


#: How long the wait parks on one part before it looks at the next.  A
#: part *tells* the waiter when its sources finish or something fails
#: (an event, in process or behind one blocking control command); the
#: slice only bounds how long a failure on one resource goes unseen
#: while the wait is parked on another.
_WAIT_SLICE = 0.25


def drain(
    parts: Sequence[Any],
    timeout: float,
    *,
    force: bool,
    teardown: Callable[[], None],
    settle: float = 0.01,
    poll: float = 0.002,
) -> bool:
    """Take a launched job to its end: wait, drain, teardown (DESIGN.md
    §6 "Job lifecycle").  True iff it quiesced.

    ``parts`` are the job's shares, one per resource: a ``_JobRuntime``,
    ``DistributedWorker``s or ``RemoteWorker`` proxies.  Waiting does
    not change the job - nothing is flushed or rescheduled before every
    part's sources have finished, one recorded a failure, or ``force``
    (``stop``) finished them - and only a job that quiesced, failed or
    was forced is torn down: a wait that runs out of ``timeout``
    returns False and can be repeated.
    """
    deadline = time.monotonic() + timeout
    failed = False
    if force:
        for part in parts:
            part.finish_sources()
    else:
        waiting = True
        while waiting and not failed:
            waiting = False
            for part in parts:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                if not part.wait_sources(min(_WAIT_SLICE, remaining)):
                    waiting = True
                elif part.failures:
                    failed = True
                    break
    for part in parts:
        part.prepare_drain()
    quiesced = False
    while time.monotonic() < deadline:
        # Before the flush: one into a failed receiver's gated channel
        # would block.
        failed = failed or any(part.failures for part in parts)
        if failed:
            break
        for part in parts:
            part.flush_all()
        if all(part.is_quiet() for part in parts):
            # A worker thread may sit between draining its channel and
            # processing, a frame may be on a socket: look twice.
            time.sleep(settle)
            for part in parts:
                part.flush_all()
            if all(part.is_quiet() for part in parts):
                quiesced = True
                break
        time.sleep(poll)
    if quiesced or failed or force:
        teardown()
    return quiesced


class JobHandle:
    """Control surface for one submitted stream-processing job.

    The heavy lifting lives in the runtime; the handle delegates so
    user code never touches runtime internals.
    """

    def __init__(self, runtime, job) -> None:
        self._runtime = runtime
        self._job = job

    @property
    def name(self) -> str:
        """The job/graph name."""
        return self._job.graph.name

    @property
    def state(self) -> JobState:
        """Current lifecycle state."""
        return self._job.state

    @property
    def failures(self) -> dict[str, BaseException]:
        """Operator-instance failures keyed by ``operator[index]``.

        Collected live, so a monitoring loop can observe a failure
        before calling :meth:`stop`.
        """
        return dict(self._job.failures)

    def metrics(self) -> dict[str, dict]:
        """Aggregated per-operator counters (see MetricsRegistry)."""
        return self._job.metrics.snapshot()

    def checkpoint(self, timeout: float = 30.0):
        """Snapshot all opted-in operator state (§VI future work).

        Sources are paused and in-flight packets drained first, yielding
        a globally consistent cut (exactly-once on recovery when sources
        checkpoint replay positions); sources resume afterwards.

        Returns a :class:`~repro.core.checkpoint.Checkpoint`; resubmit
        with ``runtime.submit(graph, restore_from=ckpt)`` to recover.
        """
        return self._runtime._checkpoint_job(self._job, timeout)

    def await_completion(self, timeout: float = 30.0) -> bool:
        """Block until every source finished naturally and the graph
        drained.  Returns False on timeout, and then the job is still
        running exactly as configured: call again, or :meth:`stop`."""
        return self._runtime._await_job(self._job, timeout, force_finish=False)

    def stop(self, timeout: float = 30.0) -> bool:
        """Stop sources now, drain in-flight packets, tear down.

        Packets already ingested are processed (never dropped); returns
        False if the drain did not quiesce within ``timeout``.
        """
        return self._runtime._await_job(self._job, timeout, force_finish=True)
