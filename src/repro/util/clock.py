"""Clock abstractions.

Runtime components never call :func:`time.monotonic` directly; they take
a :class:`Clock`.  Production code uses :class:`MonotonicClock`; tests
use :class:`ManualClock` to drive timer-based behaviour (buffer flush
deadlines, backpressure waits) deterministically.
"""

from __future__ import annotations

import threading
import time
from abc import ABC, abstractmethod
from typing import Callable


def timed_acquire(lock: "threading.Lock", now: "Callable[[], float]") -> float:
    """Acquire ``lock``; return the seconds that took.

    Uncontended, that is 0.0 without reading the clock: the callers
    account time spent *waiting*, per flush, and most flushes don't.
    """
    if lock.acquire(blocking=False):
        return 0.0
    since = now()
    lock.acquire()
    return now() - since


class Clock(ABC):
    """A source of monotonic time in (float) seconds."""

    @abstractmethod
    def now(self) -> float:
        """Return the current monotonic time in seconds."""

    @abstractmethod
    def sleep(self, seconds: float) -> None:
        """Block the calling thread for ``seconds``."""


class MonotonicClock(Clock):
    """Wall clock backed by :func:`time.monotonic`."""

    def now(self) -> float:
        """Current monotonic time in seconds."""
        return time.monotonic()

    def sleep(self, seconds: float) -> None:
        """Block (or advance, for manual clocks) for the duration."""
        if seconds > 0:
            time.sleep(seconds)


class ManualClock(Clock):
    """A clock advanced explicitly by tests.

    ``sleep`` advances the clock rather than blocking, and wakes any
    thread waiting in :meth:`wait_until`.  Thread-safe.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        self._cond = threading.Condition()

    def now(self) -> float:
        """Current monotonic time in seconds."""
        with self._cond:
            return self._now

    def sleep(self, seconds: float) -> None:
        """Block (or advance, for manual clocks) for the duration."""
        self.advance(seconds)

    def advance(self, seconds: float) -> None:
        """Move time forward by ``seconds`` (must be non-negative)."""
        if seconds < 0:
            raise ValueError(f"cannot advance clock backwards: {seconds}")
        with self._cond:
            self._now += seconds
            self._cond.notify_all()

    def wait_until(self, deadline: float, timeout: float = 5.0) -> bool:
        """Block (in real time) until the manual clock reaches ``deadline``.

        Returns False if ``timeout`` real seconds elapse first.  Used by
        tests coordinating with timer threads.
        """
        end = time.monotonic() + timeout
        with self._cond:
            while self._now < deadline:
                remaining = end - time.monotonic()
                if remaining <= 0:
                    return False
                self._cond.wait(remaining)
            return True


SYSTEM_CLOCK = MonotonicClock()
