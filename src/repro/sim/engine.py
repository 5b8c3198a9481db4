"""Minimal discrete-event simulation kernel (SimPy-flavoured).

A :class:`Simulator` owns a virtual clock and an event heap.  Model
logic is written as generator *processes* that ``yield``:

- a ``float`` → sleep that many simulated seconds,
- an :class:`Event` → suspend until the event triggers (its value is
  sent back into the generator),
- ``None`` → reschedule immediately (cooperative yield).

Determinism: ties in time break by schedule order (a monotonically
increasing sequence number), so identical runs produce identical
traces — a property the experiment harness relies on.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`."""

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence processes can wait on.

    ``succeed(value)`` wakes all waiters with ``value``.  Events may be
    triggered at most once.
    """

    __slots__ = ("sim", "triggered", "value", "_waiters", "callbacks")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.triggered = False
        self.value: Any = None
        self._waiters: list[Process] = []
        self.callbacks: list[Callable[[Any], None]] = []

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event, waking all waiters."""
        if self.triggered:
            raise RuntimeError("event already triggered")
        self.triggered = True
        self.value = value
        for cb in self.callbacks:
            cb(value)
        waiters, self._waiters = self._waiters, []
        for proc in waiters:
            self.sim._schedule(0.0, proc, value)
        return self

    def _add_waiter(self, proc: "Process") -> None:
        if self.triggered:
            self.sim._schedule(0.0, proc, self.value)
        else:
            self._waiters.append(proc)

    def _discard_waiter(self, proc: "Process") -> None:
        try:
            self._waiters.remove(proc)
        except ValueError:
            pass


class Process:
    """A running generator; itself awaitable like an event."""

    __slots__ = ("sim", "_gen", "name", "finished", "result", "_waiters", "_waiting_on")

    def __init__(self, sim: "Simulator", gen: Generator, name: str = "") -> None:
        self.sim = sim
        self._gen = gen
        self.name = name or getattr(gen, "__name__", "proc")
        self.finished = False
        self.result: Any = None
        self._waiters: list[Process] = []
        self._waiting_on: Event | None = None

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its yield point."""
        if self.finished:
            return
        if self._waiting_on is not None:
            self._waiting_on._discard_waiter(self)
            self._waiting_on = None
        self.sim._schedule(0.0, self, Interrupt(cause))

    def _add_waiter(self, proc: "Process") -> None:
        if self.finished:
            self.sim._schedule(0.0, proc, self.result)
        else:
            self._waiters.append(proc)

    def _discard_waiter(self, proc: "Process") -> None:
        try:
            self._waiters.remove(proc)
        except ValueError:
            pass

    def _step(self, sent: Any) -> None:
        self._waiting_on = None
        try:
            if isinstance(sent, Interrupt):
                target = self._gen.throw(sent)
            else:
                target = self._gen.send(sent)
        except StopIteration as stop:
            self._finish(stop.value)
            return
        except Interrupt:
            self._finish(None)
            return
        if target is None:
            self.sim._schedule(0.0, self, None)
        elif isinstance(target, (int, float)):
            if target < 0:
                raise ValueError(f"process {self.name!r} yielded negative delay {target}")
            self.sim._schedule(float(target), self, None)
        elif isinstance(target, (Event, Process)):
            self._waiting_on = target if isinstance(target, Event) else None
            target._add_waiter(self)
        else:
            raise TypeError(
                f"process {self.name!r} yielded {type(target).__name__}; "
                "expected float, Event, Process, or None"
            )

    def _finish(self, value: Any) -> None:
        self.finished = True
        self.result = value
        waiters, self._waiters = self._waiters, []
        for proc in waiters:
            self.sim._schedule(0.0, proc, value)


class Simulator:
    """Event heap + virtual clock."""

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: list[tuple[float, int, Any, Any]] = []
        self._seq = 0
        self.events_processed = 0

    # -- construction ---------------------------------------------------------
    def event(self) -> Event:
        """Create a new untriggered event."""
        return Event(self)

    def process(self, gen: Generator, name: str = "") -> Process:
        """Register a generator as a process starting now."""
        proc = Process(self, gen, name)
        self._schedule(0.0, proc, None)
        return proc

    def timeout(self, delay: float, value: Any = None) -> Event:
        """An event that triggers ``delay`` seconds from now."""
        ev = Event(self)
        self._schedule(delay, ev, value)
        return ev

    def call_at(self, when: float, fn: Callable[[], None]) -> None:
        """Run a plain callback at absolute time ``when``."""
        if when < self.now:
            raise ValueError(f"cannot schedule in the past: {when} < {self.now}")
        self._schedule(when - self.now, fn, None)

    def schedule_interrupt(
        self, when: float, proc: "Process", cause: Any = None
    ) -> None:
        """Chaos hook: interrupt ``proc`` at absolute simulated time
        ``when`` (no-op if it already finished by then).

        This is the engine-level primitive behind node-kill events:
        :mod:`repro.chaos.simfaults` schedules one of these per victim
        process.  Deterministic like every other event — ties at the
        same timestamp fire in schedule order.
        """
        if when < self.now:
            raise ValueError(f"cannot schedule in the past: {when} < {self.now}")
        self.call_at(when, lambda: proc.interrupt(cause))

    # -- execution ---------------------------------------------------------------
    def _schedule(self, delay: float, target: Any, payload: Any) -> None:
        heapq.heappush(self._heap, (self.now + delay, self._seq, target, payload))
        self._seq += 1

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Drain the heap until empty, ``until`` time, or ``max_events``."""
        processed = 0
        while self._heap:
            t, _seq, target, payload = self._heap[0]
            if until is not None and t > until:
                self.now = until
                return
            heapq.heappop(self._heap)
            self.now = t
            self.events_processed += 1
            processed += 1
            if isinstance(target, Process):
                target._step(payload)
            elif isinstance(target, Event):
                if not target.triggered:
                    target.succeed(payload)
            else:  # plain callback
                target()
            if max_events is not None and processed >= max_events:
                return
        if until is not None:
            self.now = until

