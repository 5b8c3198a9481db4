"""Granules resources — per-machine task containers.

"Granules launches one or more *resources* at a single physical machine
which act as containers for individual computation tasks.  The framework
is responsible for managing the life cycles of computational tasks in
addition to launching and terminating computational tasks running on
these resources." (§II)

A :class:`Resource` hosts tasks on a worker thread pool (NEPTUNE's
worker tier).  This module alone sizes a pool: it never has fewer
threads than live tasks.  An emit blocked on a gated downstream channel
parks its thread, so one thread per task guarantees the consumer that
must drain that channel can always run (pressure chains are acyclic, so
the most-downstream stage always progresses - no deadlock).  A thread
beyond that has nothing it may run, since a task never runs beside
itself; the pool only grows, as tasks launch.  Dispatch rules:

- a task instance never executes concurrently with itself;
- it is (re)queued when its scheduling strategy fires, either from a
  dataset-availability notification or from a timer deadline;
- executions drained from the ready queue amortize context switches: a
  worker keeps re-executing a task while its strategy still fires,
  up to :data:`MAX_CONSECUTIVE` runs, before yielding the worker.
"""

from __future__ import annotations

import enum
import threading
from collections import deque
from dataclasses import dataclass, field

from repro.granules.scheduler import DataDrivenStrategy, SchedulingStrategy
from repro.granules.task import ComputationalTask, TaskState
from repro.util.clock import Clock, SYSTEM_CLOCK

#: How many back-to-back executions a worker grants one task before
#: rotating to the next ready task (fairness vs. batching).
MAX_CONSECUTIVE = 16


class _SchedState(enum.Enum):
    IDLE = 0
    QUEUED = 1
    RUNNING = 2


@dataclass
class _TaskEntry:
    task: ComputationalTask
    strategy: SchedulingStrategy
    state: _SchedState = _SchedState.IDLE
    rerun: bool = field(default=False)  # notification arrived while RUNNING


class Resource:
    """A container executing computational tasks on a thread pool.

    Parameters
    ----------
    name:
        Identifier (appears in thread names and metrics).
    workers:
        The pool's floor: threads started before any task launches.
        Each launch past it adds one, so a running resource has
        ``max(workers, live tasks)`` threads at least.
    clock:
        Injectable time source for deterministic tests.
    """

    def __init__(
        self,
        name: str,
        workers: int = 1,
        clock: Clock = SYSTEM_CLOCK,
    ) -> None:
        # Thread names carry this; force the stable runtime-wide prefix
        # so profiler / flight-recorder output never shows bare pool
        # names ("worker-0-timer" → "neptune-worker-0-timer").
        self.name = name if name.startswith("neptune") else f"neptune-{name}"
        self.workers = workers
        if workers <= 0:
            raise ValueError(f"workers must be positive: {workers}")
        self._clock = clock
        self._entries: dict[str, _TaskEntry] = {}
        self._ready: deque[_TaskEntry] = deque()
        self._lock = threading.Lock()
        self._work_available = threading.Condition(self._lock)
        self._threads: list[threading.Thread] = []
        self._timer_thread: threading.Thread | None = None
        self._running = False
        # Set by stop(): cuts the timer thread's poll wait short.
        self._stopping = threading.Event()
        self.task_failures: dict[str, BaseException] = {}

    # -- task management ----------------------------------------------------
    def launch(self, task: ComputationalTask, strategy: SchedulingStrategy) -> None:
        """Register and initialize a task under ``strategy``."""
        with self._lock:
            if task.task_id in self._entries:
                raise ValueError(f"task id {task.task_id!r} already launched on {self.name!r}")
            entry = _TaskEntry(task, strategy)
            self._entries[task.task_id] = entry
            if self._running and len(self._entries) > len(self._threads):
                self._spawn_worker()
        task._framework_initialize()
        task.state = TaskState.RUNNABLE
        for ds in task.datasets:
            ds.on_available(lambda _ds, e=entry: self._on_data(e))
        # The task may already be runnable (e.g. periodic, or data
        # preloaded before launch).
        self._maybe_enqueue(entry)

    def terminate_task(self, task_id: str) -> None:
        """Terminate one task and close its datasets."""
        with self._lock:
            entry = self._entries.pop(task_id, None)
        if entry is not None:
            entry.task._framework_terminate()

    def set_strategy(self, task_id: str, strategy: SchedulingStrategy) -> None:
        """Swap a task's scheduling strategy during execution (§II)."""
        with self._lock:
            entry = self._entries[task_id]
            entry.strategy = strategy
        # Enqueue with the entry captured under the lock: re-reading
        # _entries here would race a concurrent terminate_task.
        self._maybe_enqueue(entry)

    @property
    def tasks(self) -> tuple[ComputationalTask, ...]:
        """The tasks currently hosted by this resource."""
        with self._lock:
            return tuple(e.task for e in self._entries.values())

    # -- lifecycle ------------------------------------------------------------
    def start(self) -> None:
        """Start background threads/services. Idempotent."""
        with self._lock:
            if self._running:
                return
            self._running = True
            self._stopping.clear()
            for _ in range(max(self.workers, len(self._entries))):
                self._spawn_worker()
        self._timer_thread = threading.Thread(
            target=self._timer_loop, name=f"{self.name}-timer", daemon=True
        )
        self._timer_thread.start()

    def stop(self, timeout: float = 5.0) -> None:
        """Stop and release resources. Idempotent."""
        with self._work_available:
            self._running = False
            self._work_available.notify_all()
            threads, self._threads = self._threads, []
        self._stopping.set()
        for t in threads:
            t.join(timeout)
        if self._timer_thread is not None:
            self._timer_thread.join(timeout)
        self._timer_thread = None
        with self._lock:
            entries = list(self._entries.values())
            self._entries.clear()
        for e in entries:
            e.task._framework_terminate()

    def __enter__(self) -> "Resource":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def _spawn_worker(self) -> None:
        """Add one thread to the pool; the caller holds ``_lock``."""
        t = threading.Thread(
            target=self._worker_loop,
            name=f"{self.name}-worker-{len(self._threads)}",
            daemon=True,
        )
        t.start()
        self._threads.append(t)

    # -- dispatch -------------------------------------------------------------
    def _on_data(self, entry: _TaskEntry) -> None:
        self._maybe_enqueue(entry)

    def _maybe_enqueue(self, entry: _TaskEntry) -> None:
        now = self._clock.now()
        with self._work_available:
            if entry.state is _SchedState.RUNNING:
                # A data-driven task runs again when this run ends, even
                # if the run took the data (an empty run is a no-op). Any
                # other strategy is only asked again: a forced rerun would
                # run a count-based task below its threshold.
                if isinstance(entry.strategy, DataDrivenStrategy):
                    entry.rerun = True
                return
            if entry.state is _SchedState.QUEUED:
                return
            if entry.task.state in (TaskState.TERMINATED, TaskState.FAILED):
                return
            if entry.strategy.should_run(entry.task, now):
                entry.state = _SchedState.QUEUED
                self._ready.append(entry)
                self._work_available.notify()

    def _worker_loop(self) -> None:
        while True:
            with self._work_available:
                while self._running and not self._ready:
                    self._work_available.wait(0.1)
                if not self._running:
                    return
                entry = self._ready.popleft()
                entry.state = _SchedState.RUNNING
                entry.rerun = False
            self._run_entry(entry)

    def _run_entry(self, entry: _TaskEntry) -> None:
        consecutive = 0
        while True:
            try:
                entry.task._framework_execute()
            except BaseException as exc:  # noqa: BLE001 — isolate task faults
                with self._work_available:
                    # Worker threads fail concurrently; the failure map
                    # shares the scheduling lock.
                    self.task_failures[entry.task.task_id] = exc
                    entry.state = _SchedState.IDLE
                return
            now = self._clock.now()
            entry.strategy.notify_executed(entry.task, now)
            consecutive += 1
            with self._work_available:
                again = entry.rerun or entry.strategy.should_run(entry.task, now)
                entry.rerun = False
                if not again:
                    entry.state = _SchedState.IDLE
                    return
                if consecutive >= MAX_CONSECUTIVE:
                    # Yield the worker; stay queued for fairness.
                    entry.state = _SchedState.QUEUED
                    self._ready.append(entry)
                    self._work_available.notify()
                    return
                # Keep running on this worker (amortized scheduling).

    def _timer_loop(self) -> None:
        """Poll time-based strategies for due executions."""
        while True:
            with self._lock:
                if not self._running:
                    return
                entries = list(self._entries.values())
            now = self._clock.now()
            next_deadline: float | None = None
            for entry in entries:
                dl = entry.strategy.next_deadline(entry.task, now)
                if dl is None:
                    continue
                if dl <= now:
                    self._maybe_enqueue(entry)
                elif next_deadline is None or dl < next_deadline:
                    next_deadline = dl
            # Pace the poll loop in *real* time (never via self._clock:
            # a ManualClock's sleep advances simulated time, and the
            # timer thread must not own the clock); stop() ends the wait.
            delay = 0.01 if next_deadline is None else min(max(next_deadline - now, 0.0005), 0.05)
            self._stopping.wait(delay)
