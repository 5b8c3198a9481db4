"""Job lifecycle (paper §III: "The framework initializes individual
stages, establishes communication between stages and manages the
lifecycle of a stream processing job").

A :class:`JobHandle` is returned by
:meth:`~repro.core.runtime.NeptuneRuntime.submit`; it exposes state,
metrics, graceful stop (drain — never drop), and failure reporting.
"""

from __future__ import annotations

import enum


class JobState(enum.Enum):
    """Job lifecycle states."""
    CREATED = "created"
    RUNNING = "running"
    DRAINING = "draining"
    STOPPED = "stopped"
    FAILED = "failed"


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
        return dict(self._job.collect_failures())

    def metrics(self) -> dict[str, dict]:
        """Aggregated per-operator counters (see MetricsRegistry)."""
        return self._job.metrics.snapshot()

    def checkpoint(self, quiesce: bool = True, timeout: float = 30.0):
        """Snapshot all opted-in operator state (§VI future work).

        ``quiesce=True`` pauses sources and drains in-flight packets
        first, yielding a globally consistent cut (exactly-once on
        recovery when sources checkpoint replay positions); sources
        resume afterwards.  ``quiesce=False`` snapshots live — cheap
        but fuzzy across instances.

        Returns a :class:`~repro.core.checkpoint.Checkpoint`; resubmit
        with ``runtime.submit(graph, restore_from=ckpt)`` to recover.
        """
        return self._runtime._checkpoint_job(self._job, quiesce, timeout)

    def await_completion(self, timeout: float = 30.0) -> bool:
        """Block until every source finished naturally and the graph
        drained.  Returns False on timeout."""
        return self._runtime._await_job(self._job, timeout, force_finish=False)

    def stop(self, timeout: float = 30.0) -> bool:
        """Stop sources now, drain in-flight packets, tear down.

        Packets already ingested are processed (never dropped); returns
        False if the drain did not quiesce within ``timeout``.
        """
        return self._runtime._await_job(self._job, timeout, force_finish=True)
