"""Granules scheduling strategies.

"Computational tasks are scheduled to run based on a *scheduling
strategy* that can be changed during execution.  The scheduling strategy
could be data driven, periodic, count based or a combination of these."
(§II)

A strategy answers two questions for the Resource's dispatcher:

- :meth:`should_run` — given the task and the current time, is an
  execution due right now?
- :meth:`next_deadline` — if not, when should the dispatcher re-check
  (None = only on a data-availability notification)?
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.granules.task import ComputationalTask


class SchedulingStrategy(ABC):
    """Decides when a computational task gets a scheduled execution."""

    @abstractmethod
    def should_run(self, task: ComputationalTask, now: float) -> bool:
        """Whether the task is due for an execution at time ``now``."""

    def next_deadline(self, task: ComputationalTask, now: float) -> float | None:
        """Earliest future time the decision could flip to True.

        None means "no time-based trigger" — the dispatcher waits for a
        dataset notification instead.
        """
        return None

    def notify_executed(self, task: ComputationalTask, now: float) -> None:
        """Hook invoked after each execution (for stateful strategies)."""


class DataDrivenStrategy(SchedulingStrategy):
    """Run whenever any attached dataset has data.

    This is the strategy behind NEPTUNE stream processors: "Stream
    processors are scheduled only if data is available in any of the
    input streams" (§III-A3).
    """

    def should_run(self, task: ComputationalTask, now: float) -> bool:
        """Whether the task is due for execution now."""
        return any(ds.has_data() for ds in task.datasets)


class PeriodicStrategy(SchedulingStrategy):
    """Run every ``interval`` seconds (e.g. "every 500 milliseconds")."""

    def __init__(self, interval: float) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive: {interval}")
        self.interval = interval
        self._next_run: float | None = None

    def should_run(self, task: ComputationalTask, now: float) -> bool:
        """Whether the task is due for execution now."""
        if self._next_run is None:
            self._next_run = now
        return now >= self._next_run

    def next_deadline(self, task: ComputationalTask, now: float) -> float | None:
        """Earliest future time the decision could flip to True."""
        return self._next_run if self._next_run is not None else now

    def notify_executed(self, task: ComputationalTask, now: float) -> None:
        """Post-execution hook for stateful strategies."""
        base = self._next_run if self._next_run is not None else now
        nxt = base + self.interval
        if nxt <= now:
            # Stalled past one or more periods: skip the missed runs
            # rather than bursting to catch up.
            nxt = now + self.interval
        self._next_run = nxt


class CountBasedStrategy(SchedulingStrategy):
    """Run when at least ``threshold`` items are queued in any dataset.

    Counts what a dataset's length counts (a runtime channel's queued
    frames, a ``QueueDataset``'s items); a dataset without one is skipped.
    """

    def __init__(self, threshold: int) -> None:
        if threshold <= 0:
            raise ValueError(f"threshold must be positive: {threshold}")
        self.threshold = threshold

    def should_run(self, task: ComputationalTask, now: float) -> bool:
        """Whether the task is due for execution now."""
        for ds in task.datasets:
            try:
                if len(ds) >= self.threshold:  # type: ignore[arg-type]
                    return True
            except TypeError:
                continue
        return False


class CombinedStrategy(SchedulingStrategy):
    """OR-combination: run when any child strategy says run.

    The paper's example — "run every 500 milliseconds or when data is
    available in a particular dataset" — is
    ``CombinedStrategy(PeriodicStrategy(0.5), DataDrivenStrategy())``.
    """

    def __init__(self, *strategies: SchedulingStrategy) -> None:
        if not strategies:
            raise ValueError("CombinedStrategy needs at least one child")
        self.strategies = strategies

    def should_run(self, task: ComputationalTask, now: float) -> bool:
        """Whether the task is due for execution now."""
        return any(s.should_run(task, now) for s in self.strategies)

    def next_deadline(self, task: ComputationalTask, now: float) -> float | None:
        """Earliest future time the decision could flip to True."""
        deadlines = [
            d for s in self.strategies if (d := s.next_deadline(task, now)) is not None
        ]
        return min(deadlines) if deadlines else None

    def notify_executed(self, task: ComputationalTask, now: float) -> None:
        """Post-execution hook for stateful strategies."""
        for s in self.strategies:
            s.notify_executed(task, now)
