"""Watermark-based flow-controlled channels (paper §III-B4).

"For each inbound buffer of a stream processor, we maintain high and low
watermarks.  Once the buffer is filled up to the high watermark, the IO
worker threads are not allowed to write to the buffer unless the buffer
contents are consumed by the worker threads and the buffer usage reaches
the low watermark level."

:class:`WatermarkChannel` is that inbound buffer: a byte-capacity
bounded queue whose writers block between the high-watermark trip and
the low-watermark drain.  Hysteresis (the gap between the marks, "set
sufficiently apart to avoid the system oscillating between the two
states rapidly") prevents write-admission flapping.  Over TCP the
blocked reader stops draining the socket, the kernel receive window
closes, and the sender's writes block — propagating pressure upstream
exactly as the paper describes; in-process links block directly.
"""

from __future__ import annotations

import threading
from time import monotonic as _real_time  # what Condition.wait sleeps in
from typing import Any, Callable

from repro.util.clock import Clock, SYSTEM_CLOCK
from repro.util.errors import NeptuneError


class ChannelClosed(NeptuneError):
    """Write to (or blocking read from) a closed channel."""


def _remaining(deadline: float | None) -> float | None:
    """Seconds left until ``deadline`` (real time), for one more
    ``Condition.wait``; None waits indefinitely."""
    return None if deadline is None else max(0.0, deadline - _real_time())


class WatermarkChannel:
    """Bounded byte-accounted FIFO with high/low watermark admission.

    Items are ``(size_bytes, payload)`` pairs; admission is decided on
    the byte total, matching NEPTUNE's capacity-based (not count-based)
    buffers.

    Parameters
    ----------
    high_watermark:
        Byte level at which writers stop being admitted.
    low_watermark:
        Byte level the queue must drain to before writers resume.
    clock:
        Time source for gate-episode durations (``gated_seconds`` /
        ``last_gate_seconds``).  Chaos and policy tests run on a
        :class:`~repro.util.clock.ManualClock`; wall-clock reads here
        would make sim-time gate attribution flake.
    """

    def __init__(
        self,
        high_watermark: int,
        low_watermark: int | None = None,
        injector=None,
        site: str = "channel.put",
        clock: Clock = SYSTEM_CLOCK,
    ) -> None:
        if high_watermark <= 0:
            raise ValueError(f"high_watermark must be positive: {high_watermark}")
        if low_watermark is None:
            low_watermark = high_watermark // 2
        if not 0 <= low_watermark < high_watermark:
            raise ValueError(
                f"low_watermark must be in [0, high): {low_watermark} vs {high_watermark}"
            )
        self.high_watermark = high_watermark
        self.low_watermark = low_watermark
        # Chaos hook: an optional FaultInjector consulted on every put
        # (delay faults stall the writer, modelling a slow IO thread).
        self._injector = injector
        self._site = site
        self._clock = clock
        self._items: list[tuple[int, Any]] = []
        self._bytes = 0
        self._gated = False  # True between high trip and low drain
        self._lock = threading.Lock()
        self._writable = threading.Condition(self._lock)
        self._readable = threading.Condition(self._lock)
        self._closed = False
        # Observability / backpressure metrics.
        self.writer_blocks = 0
        self.gate_trips = 0
        self.gated_seconds = 0.0  # cumulative time the gate was closed
        self.last_gate_seconds = 0.0  # duration of the last closed episode
        self._gated_since = 0.0
        self._on_gate: Callable[[bool], None] | None = None
        self._on_data: Callable[[], None] | None = None

    def on_data_available(self, callback: Callable[[], None]) -> None:
        """Register a callback fired (outside the lock) after each put.

        The runtime hooks this to Granules' data-driven scheduling so a
        destination operator is dispatched when a batch lands.
        """
        self._on_data = callback

    def on_gate_change(self, callback: Callable[[bool], None]) -> None:
        """Register a callback invoked with the new gate state on change.

        The runtime uses this to throttle upstream operator scheduling
        (the application-visible half of backpressure).
        """
        self._on_gate = callback

    def _set_gate(self, gated: bool) -> Callable[[bool], None] | None:
        """Flip the gate state; caller must hold ``_lock``.

        Returns the gate-change callback to invoke (or None) — the
        CALLER runs it *after releasing the lock*.  Invoking it under
        the lock would let a callback that re-enters the channel (or
        blocks, e.g. pausing a scheduler) deadlock every reader and
        writer.
        """
        if gated == self._gated:
            return None
        self._gated = gated
        if gated:
            self.gate_trips += 1
            self._gated_since = self._clock.now()
        else:
            duration = self._clock.now() - self._gated_since
            self.last_gate_seconds = duration
            self.gated_seconds += duration
        return self._on_gate

    def put(
        self,
        size: int,
        item: Any,
        timeout: float | None = None,
        on_wait: Callable[[float], None] | None = None,
    ) -> bool:
        """Enqueue ``item`` accounting ``size`` bytes.

        Blocks while the gate is closed.  Returns False once ``timeout``
        seconds have passed in total, however often the writer was woken
        and found the gate re-tripped by a competing writer; raises
        :class:`ChannelClosed` if the channel closes while waiting or
        is already closed.  A put that had to wait for the
        gate reports the seconds it waited to ``on_wait`` (called under
        the channel's lock: it must not block); the clock is read only
        then.
        """
        if size < 0:
            raise ValueError(f"negative size: {size}")
        if self._injector is not None:
            self._injector.maybe_delay(self._site)
        gate_cb: Callable[[bool], None] | None = None
        with self._writable:
            if self._closed:
                raise ChannelClosed("put on closed channel")
            since: float | None = None
            deadline: float | None = None
            while self._gated:
                if since is None:
                    since = self._clock.now()
                    if timeout is not None:
                        # Real time, whatever clock times the gate
                        # episodes: it bounds Condition.wait.
                        deadline = _real_time() + timeout
                if not self._writable.wait(_remaining(deadline)):
                    self.writer_blocks += 1
                    return False
                if self._closed:
                    raise ChannelClosed("channel closed while blocked in put")
            if since is not None:
                self.writer_blocks += 1
                if on_wait is not None:
                    on_wait(self._clock.now() - since)
            self._items.append((size, item))
            self._bytes += size
            if self._bytes >= self.high_watermark:
                gate_cb = self._set_gate(True)
            self._readable.notify()
        if gate_cb is not None:
            gate_cb(True)
        if self._on_data is not None:
            self._on_data()
        return True

    def get(self, timeout: float | None = None) -> Any:
        """Dequeue one item; blocks while empty.

        Raises :class:`ChannelClosed` when the channel is closed and
        drained, :class:`TimeoutError` once ``timeout`` seconds have
        passed in total.  Returns the payload only (size accounting is
        internal).
        """
        deadline = None if timeout is None else _real_time() + timeout
        with self._readable:
            while not self._items:
                if self._closed:
                    raise ChannelClosed("channel closed and drained")
                if not self._readable.wait(_remaining(deadline)):
                    raise TimeoutError("get timed out")
            size, item = self._items.pop(0)
            gate_cb = self._release(size)
        if gate_cb is not None:
            gate_cb(False)
        return item

    def wait_taken(self, timeout: float | None = None) -> float:
        """Block until a reader has taken everything queued.

        What a sender calls after a put to hand the batch over instead
        of running ahead of its receiver.  Returns the seconds it
        waited (0.0 when nothing was queued).  Pacing, not admission:
        it gives up without an error once ``timeout`` seconds have
        passed or the channel closes — the byte gate in :meth:`put` is
        what refuses a writer.
        """
        with self._writable:
            if not self._items or self._closed:
                return 0.0
            since = self._clock.now()
            deadline = None if timeout is None else _real_time() + timeout
            while self._items and not self._closed:
                if not self._writable.wait(_remaining(deadline)):
                    break
            return self._clock.now() - since

    def drain(self, max_items: int | None = None) -> list[Any]:
        """Dequeue up to ``max_items`` (all if None) without blocking."""
        with self._readable:
            n = len(self._items) if max_items is None else min(max_items, len(self._items))
            taken = self._items[:n]
            del self._items[:n]
            freed = sum(s for s, _ in taken)
            gate_cb = self._release(freed)
            items = [item for _, item in taken]
        if gate_cb is not None:
            gate_cb(False)
        return items

    def _release(self, freed: int) -> Callable[[bool], None] | None:
        """Caller must hold ``_lock``; returns the gate callback to run
        after release (see :meth:`_set_gate`)."""
        self._bytes -= freed
        opened = self._gated and self._bytes <= self.low_watermark
        if opened or not self._items:
            # Gated writers, and senders waiting in wait_taken.
            self._writable.notify_all()
        return self._set_gate(False) if opened else None

    def close(self) -> None:
        """Release underlying resources. Idempotent."""
        with self._lock:
            self._closed = True
            self._writable.notify_all()
            self._readable.notify_all()

    @property
    def closed(self) -> bool:
        """Whether this object has been closed."""
        with self._lock:
            return self._closed

    @property
    def gated(self) -> bool:
        """Whether writers are currently blocked (gate closed)."""
        with self._lock:
            return self._gated

    @property
    def buffered_bytes(self) -> int:
        """Bytes currently buffered."""
        with self._lock:
            return self._bytes

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)
