"""Application-level buffering (paper §III-B1).

"Instead of sending individual stream packets, NEPTUNE implements
application level buffering at the stream dataset layer to increase
throughput.  The size of these buffers are defined in terms of their
capacity as opposed to the number of messages being buffered. ...
each buffer in NEPTUNE is equipped with a timer that guarantees flushing
of the buffer after a certain time period since arrival of the first
message."

One :class:`StreamBuffer` exists per (operator instance → destination
instance) link leg.  ``append_packet`` encodes a packet into the
pending batch (a body of :mod:`repro.core.serde`; ``append`` takes
bytes serialized elsewhere); the buffer flushes

- immediately when the pending records' row-form bytes reach
  ``capacity`` (on the appending worker thread), or
- from the runtime's :class:`FlushTimerService` (the IO tier) when
  ``max_delay`` elapses after the *first* append since the last flush,
  bounding end-to-end latency for slow streams, or
- on the worker thread of the operator that fills it, when that operator
  runs out of input and the pending data has already spent ``max_delay``
  on this resource (:meth:`StreamBuffer.flush_if_spent`): the bound is a
  budget a packet spends once per resource, not once per buffer.

Zero-copy flush protocol: a take hands the sink the accumulation
``bytearray`` itself and swaps in a pooled spare under ``_lock`` — the
batch is never copied on the flush path.  The sink receives
``(body, packet_count)`` where ``body`` is ``bytes | bytearray |
memoryview``; it may retain the bytearray past the call (e.g. park it
in an inbound channel) and, once fully consumed, SHOULD hand it back
via :meth:`StreamBuffer.recycle` so steady state runs on two pooled
buffers with no per-flush allocation.  A consumer that never recycles
just costs one fresh bytearray per flush — still no copy.  The sink is
expected to block under backpressure — never to drop.
"""

from __future__ import annotations

import threading
from typing import Any, Callable

from repro.util.clock import Clock, SYSTEM_CLOCK, timed_acquire

#: ``sink(body, packet_count)``.  A sink that waited on backpressure
#: (a gated channel, a full replay window) returns the seconds it
#: waited as a float; the time it spent working is not a wait.
FlushSink = Callable[["bytes | bytearray | memoryview", int], Any]

#: Spare bytearrays a buffer keeps for the double-buffer swap.  Two
#: covers the steady state (one accumulating, one in flight); a third
#: take while both are out just allocates fresh.
_SPARE_LIMIT = 2

#: How long the thread that filled a batch waits for its receiver to
#: take it, as a multiple of the time the batch took to fill (see
#: ``StreamBuffer.after_capacity_flush``).  Relative, so it holds at any
#: machine speed and batch size: a receiver up to this much slower than
#: its sender is waited for and never has more than a batch or two
#: queued; one slower still is overloaded, its sender goes on at a third
#: of its speed, and the backlog is the byte gate's to bound and report.
#: Measured on the unpinned relay bench (p50, quartiles over 12 runs;
#: parent 15.8-16.2 ms): 1 -> 7.4-10.8 ms, 2 -> 7.0-8.5 ms.
_HANDOVER_PATIENCE = 2.0


class StreamBuffer:
    """Capacity-triggered, timer-bounded accumulation buffer.

    Observability hooks (both optional, both duck-typed so this module
    never imports :mod:`repro.observe`):

    - ``trace_leg`` — a :class:`~repro.observe.tracing.LegTrace`
      shared with this buffer's flush sink.  ``append_packet(codec,
      packet, note)`` stamps the note's ``append_ts``/``batch_index``;
      the take stamps ``take_ts`` and deposits the note on the leg,
      from which the sink claims it (all under ``_flush_lock``, so no
      extra locking).
    - ``observer`` — a :class:`~repro.observe.observer.RuntimeObserver`
      whose timeline receives ``buffer.timer_flush`` events.
    """

    # Slots: past 29 attributes CPython 3.11 drops the compact instance
    # dict, and every ``self.x`` on the append path reads ~20 % slower.
    __slots__ = ("capacity", "max_delay", "name", "_sink", "_clock", "_trace_leg", "_observer")
    __slots__ += ("_notes", "_buf", "_spares", "_count", "_columns", "_extra", "_first_append_at")
    __slots__ += ("born", "taken_born", "_inherited", "_lock", "_service", "_flush_lock")
    __slots__ += ("capacity_flushes", "timer_flushes", "budget_flushes", "manual_flushes")
    __slots__ += ("bytes_flushed", "packets_flushed", "buffers_recycled", "spare_allocs")
    __slots__ += ("retunes", "after_capacity_flush", "blocked_seconds")

    def __init__(
        self,
        capacity: int,
        sink: FlushSink,
        max_delay: float = 0.010,
        clock: Clock = SYSTEM_CLOCK,
        name: str = "",
        trace_leg: Any = None,
        observer: Any = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive: {capacity}")
        if max_delay <= 0:
            raise ValueError(f"max_delay must be positive: {max_delay}")
        self.capacity = capacity
        self.max_delay = max_delay
        self.name = name
        self._sink = sink
        self._clock = clock
        self._trace_leg = trace_leg
        self._observer = observer
        self._notes: list[Any] = []
        self._buf = bytearray()
        self._spares: list[bytearray] = []
        self._count = 0
        # The batch's columns (False: no variable-width field) and the
        # row-form bytes in them; the capacity counts ``len(_buf) + _extra``.
        self._columns: Any = None
        self._extra = 0
        self._first_append_at: float | None = None
        # The latency budget (see ``flush_if_spent``).  ``born`` is when
        # the oldest pending packet entered the job on this resource,
        # None while nothing is pending; ``taken_born`` is that of the
        # batch taken last, which its sink, running under the same
        # ``_flush_lock`` hold as the take, passes on to the receiver.
        self.born: float | None = None
        self.taken_born = 0.0
        self._inherited: float | None = None
        self._lock = threading.Lock()
        # Back-reference set by FlushTimerService.register so a live
        # retune that shrinks max_delay can wake the scan thread.
        self._service: "FlushTimerService | None" = None
        # Serializes (take, sink) pairs across the worker thread
        # (capacity flush) and the timer thread, so batches reach the
        # transport in take-order — required for per-link in-order
        # delivery.  Always acquired before self._lock.
        self._flush_lock = threading.Lock()
        # Flush statistics (capacity vs timer) feed the Fig-2 analysis.
        self.capacity_flushes = 0
        self.timer_flushes = 0
        self.budget_flushes = 0
        self.manual_flushes = 0
        self.bytes_flushed = 0
        self.packets_flushed = 0
        # Double-buffer pool statistics (observe bridge scrapes these).
        self.buffers_recycled = 0
        self.spare_allocs = 0
        # Live-reconfiguration count (policy engine retunes).
        self.retunes = 0
        # Set by whoever wires the buffer: called on the appending
        # thread after each capacity flush, holding no buffer lock,
        # with the longest it may wait (``_HANDOVER_PATIENCE`` times
        # what the batch took to fill); returns the seconds it did
        # wait.  The runtime parks a sender here until its receiver has
        # taken the batch, so whoever fills batches does not run ahead
        # of whoever drains them.  Timer and manual flushes run on
        # other threads and never call it.
        self.after_capacity_flush: Callable[[float], float] | None = None
        # Seconds the appending thread spent *waiting* in capacity and
        # budget flushes: for the flush lock (the timer thread holds it
        # while its own flush is held up) and, as the sink and
        # ``after_capacity_flush`` report them, for the receiver.
        # Compressing, framing and copying the batch is
        # work, not backpressure, and is not in here.  The flush lock
        # and the sink read the clock only when a wait happens; only
        # the (serialized) appending thread writes it.
        self.blocked_seconds = 0.0

    def append(self, payload: bytes | bytearray | memoryview) -> bool:
        """Add one serialized packet; returns True if this append flushed."""
        with self._lock:
            if not self._count:
                self._first_append_locked()
            buf = self._buf
            buf += payload
            self._count += 1
            if len(buf) < self.capacity:
                return False
        return self._flush_capacity()

    def append_packet(self, codec: Any, packet: Any, note: Any = None) -> bool:
        """Encode and append ``packet``; returns True if this flushed.

        The link's send path.  ``codec`` is the link's
        :class:`~repro.core.serde.PacketCodec` (duck-typed: ``schema``,
        ``pack``, ``columns``, ``reject``, ``refuse``).  Every check
        ``PacketCodec.encode_into`` makes, and its error, comes before
        the lock, so a failed encode leaves bytes, count, dictionaries
        and timer as they were.  The hold is one append, the columns'
        commit and the bookkeeping: the flush timer and every metrics
        scrape take the same lock and wait out a GIL switch interval.

        A ``note`` (observe trace note for a sampled packet) is stamped
        with its position and enqueue time and will ride the flushed
        batch to the sink via ``trace_leg``.
        """
        values = packet._values
        schema = codec.schema
        if (packet.schema is not schema and packet.schema != schema) or None in values:
            codec.reject(packet)
        try:
            record = codec.pack(*values)
        except Exception:
            codec.refuse(values)  # raises, naming the field
        columns = self._columns
        if columns:
            taken = columns.taken
            extra = columns.prepare(values)
        elif columns is None:
            self._columns = codec.columns() or False
            return self.append_packet(codec, packet, note)
        with self._lock:
            if columns:
                if columns.taken != taken:
                    # A take on another thread started a new batch (and
                    # emptied its dictionaries) since the prepare.
                    extra = columns.prepare(values)
                columns.commit()
                self._extra += extra
            buf = self._buf
            buf += record
            count = self._count
            if not count:
                self._first_append_locked()
            if note is not None:
                note.batch_index = count
                note.append_ts = self._clock.now()
                self._notes.append(note)
            self._count = count + 1
            if len(buf) + self._extra < self.capacity:
                return False
        return self._flush_capacity()

    def _first_append_locked(self) -> None:
        """Start the timer's clock and stamp the new batch's ``born``."""
        now = self._first_append_at = self._clock.now()
        inherited = self._inherited
        self.born = now if inherited is None else inherited

    def inherit(self, born: float | None) -> None:
        """Declare what the appends that follow are made from: an
        inbound batch whose oldest packet entered the job on this
        resource at ``born``.

        Called by the appending thread at inbound batch boundaries,
        never per packet.  The first append of a batch stamps it with
        this instead of the time of the append, and a pending batch
        becomes as old as the oldest inbound batch that fed it: an
        older ``born`` lowers its stamp, a younger one never raises it.
        None ends the inheritance (appends are born when made, as at a
        source).
        """
        with self._lock:
            self._inherited = born
            if born is not None and self.born is not None and born < self.born:
                self.born = born

    def flush_if_spent(self, now: float | None = None) -> bool:
        """Budget flush: send the pending batch if its oldest packet has
        already been on this resource for ``max_delay``.

        ``max_delay`` is a budget a packet spends once per resource, not
        once per buffer: output made from an inbound batch that waited
        out the bound upstream is due the moment it is appended.  The
        operator that fills this buffer calls this, on its own thread,
        when it has run out of input - while more input is queued the
        same thread appends again at once and the batch only grows.
        Younger data stays and accumulates as configured; the timer
        service (``flush_if_due``) remains the backstop for it.
        Returns whether a flush happened.
        """
        born = self.born  # unlocked peek: almost always None or young
        if born is None:
            return False
        if now is None:
            now = self._clock.now()
        if now - born < self.max_delay:
            return False
        body = None
        self.blocked_seconds += timed_acquire(self._flush_lock, self._clock.now)
        try:
            with self._lock:
                # Re-check: the timer thread may have flushed meanwhile.
                born = self.born
                if born is not None and now - born >= self.max_delay:
                    body, count = self._take_locked()
                    self.budget_flushes += 1
            if body is not None:
                waited = self._sink(body, count)
                if type(waited) is float:
                    self.blocked_seconds += waited
        finally:
            self._flush_lock.release()
        return body is not None

    def _flush_capacity(self) -> bool:
        """Capacity-triggered flush on the appending thread."""
        body = None
        hand_over = self.after_capacity_flush
        filled_in = 0.0
        self.blocked_seconds += timed_acquire(self._flush_lock, self._clock.now)
        try:
            with self._lock:
                # Re-check: the timer thread may have flushed meanwhile
                # (and may be what kept us waiting for the flush lock).
                if len(self._buf) + self._extra >= self.capacity:
                    if hand_over is not None:
                        assert self._first_append_at is not None
                        filled_in = self._clock.now() - self._first_append_at
                    body, count = self._take_locked()
                    self.capacity_flushes += 1
            if body is not None:
                waited = self._sink(body, count)
                if type(waited) is float:
                    self.blocked_seconds += waited
        finally:
            self._flush_lock.release()
        if body is None:
            return False
        if hand_over is not None:
            self.blocked_seconds += hand_over(_HANDOVER_PATIENCE * filled_in)
        return True

    def flush(self) -> bool:
        """Force a flush of any pending data (graph drain / shutdown)."""
        with self._flush_lock:
            with self._lock:
                body, count = self._take_locked()
                if body is not None:
                    self.manual_flushes += 1
            if body is not None:
                self._sink(body, count)
                return True
        return False

    def flush_if_due(self, now: float | None = None) -> bool:
        """Timer-service entry: flush when the first pending packet has
        waited ``max_delay``.  Returns whether a flush happened."""
        if now is None:
            now = self._clock.now()
        size = 0
        with self._flush_lock:
            with self._lock:
                if (
                    self._first_append_at is None
                    or now - self._first_append_at < self.max_delay
                ):
                    return False
                body, count = self._take_locked()
                self.timer_flushes += 1
            if body is not None:
                # Capture the size before the sink runs: a sink that
                # consumes and recycles the bytearray leaves it empty.
                size = len(body)
                self._sink(body, count)
        if body is not None and self._observer is not None:
            self._observer.event(
                "buffer", "timer_flush", buffer=self.name, bytes=size, count=count
            )
        return body is not None

    def retune(
        self, *, max_delay: float | None = None, capacity: int | None = None
    ) -> dict[str, tuple[float, float] | tuple[int, int]]:
        """Live-adjust the flush bounds (policy reconfigure path).

        Either bound may be changed while the buffer is in service; the
        new values apply to data already accumulated.  A ``max_delay``
        that *shrinks* pokes the owning :class:`FlushTimerService` so
        the tighter deadline is honored immediately rather than after
        the sleep computed against the old bound.  A smaller
        ``capacity`` takes effect on the next append (the capacity
        check runs on the appending thread).

        Returns a dict of applied changes, ``field -> (old, new)``;
        empty when every requested value matched the current one.
        """
        changed: dict[str, tuple[float, float] | tuple[int, int]] = {}
        shrunk = False
        with self._lock:
            if max_delay is not None:
                if max_delay <= 0:
                    raise ValueError(f"max_delay must be positive: {max_delay}")
                if float(max_delay) != self.max_delay:
                    changed["max_delay"] = (self.max_delay, float(max_delay))
                    shrunk = float(max_delay) < self.max_delay
                    self.max_delay = float(max_delay)
            if capacity is not None:
                if capacity <= 0:
                    raise ValueError(f"capacity must be positive: {capacity}")
                if int(capacity) != self.capacity:
                    changed["capacity"] = (self.capacity, int(capacity))
                    self.capacity = int(capacity)
        if changed:
            self.retunes += 1
        if shrunk and self._service is not None:
            self._service.poke()
        return changed

    def next_deadline(self) -> float | None:
        """When the timer service must revisit this buffer (None = idle)."""
        with self._lock:
            if self._first_append_at is None:
                return None
            return self._first_append_at + self.max_delay

    def _take_locked(self) -> tuple[bytearray | None, int]:
        if not self._count:
            return None, 0
        # Double-buffer swap: hand the accumulation buffer itself to
        # the caller (NO copy) and continue accumulating into a pooled
        # spare.  The sink's consumer returns the bytearray through
        # recycle() when done with it.
        body = self._buf
        if self._columns:
            self._columns.take(body)
        if self._spares:
            self._buf = self._spares.pop()
        else:
            self._buf = bytearray()
            self.spare_allocs += 1
        count = self._count
        self._count = self._extra = 0
        self._first_append_at = None
        self.taken_born = self.born
        self.born = None
        self.bytes_flushed += len(body)
        self.packets_flushed += count
        if self._notes:
            if self._trace_leg is not None:
                take_ts = self._clock.now()
                for note in self._notes:
                    note.take_ts = take_ts
                self._trace_leg.pending.extend(self._notes)
            self._notes.clear()
        return body, count

    def recycle(self, body: bytes | bytearray | memoryview) -> None:
        """Return a fully consumed flush body to the spare pool.

        Safe to call from any thread with anything a sink received:
        non-bytearray bodies (or a bytearray with live memoryview
        exports) are simply dropped.  Never call while the body is
        still referenced by a pending frame — the storage is reused by
        the very next take.
        """
        if type(body) is not bytearray:
            return
        try:
            body.clear()
        except BufferError:
            return  # a memoryview export is still alive; let GC take it
        with self._lock:
            if len(self._spares) < _SPARE_LIMIT:
                self._spares.append(body)
                self.buffers_recycled += 1

    @property
    def pending_bytes(self) -> int:
        """Bytes accumulated and not yet flushed, in row form (what
        ``capacity`` is compared with)."""
        with self._lock:
            return len(self._buf) + self._extra

    @property
    def pending_count(self) -> int:
        """Packets accumulated and not yet flushed."""
        with self._lock:
            return self._count

    def appended(self) -> tuple[int, int]:
        """``(packets, bytes)`` ever appended: flushed (the bodies as
        taken) plus pending (in row form)."""
        with self._lock:
            return (
                self.packets_flushed + self._count,
                self.bytes_flushed + len(self._buf) + self._extra,
            )


def leg_matches(name: str, operator: str, where: str) -> bool:
    """Whether the leg ``[w{id}:]{from}[{s}]->{to}[{r}]/{stream}`` runs
    into (``where="into"``) or out of (``"from"``) ``operator``."""
    if where == "into":
        return f"->{operator}[" in name
    head = name.split("->", 1)[0]
    return head.split(":", 1)[-1].startswith(f"{operator}[")


def retune_matching(
    buffers: "list[StreamBuffer]",
    operator: str,
    *,
    where: str = "into",
    max_delay: float | None = None,
    capacity: int | None = None,
) -> list[dict[str, Any]]:
    """Retune every buffer on the legs into/out of ``operator``.

    Buffer names follow ``[w{id}:]{from}[{s}]->{to}[{r}]/{stream}``;
    ``where="into"`` matches legs whose *destination* is ``operator``
    (the usual healing direction: the batches a struggling operator
    receives), ``where="from"`` matches legs it sends on.  Returns one
    entry per buffer actually changed — the policy engine's applied
    report.
    """
    if where not in ("into", "from"):
        raise ValueError(f"where must be 'into' or 'from': {where!r}")
    out: list[dict[str, Any]] = []
    for buf in buffers:
        name = buf.name
        if not leg_matches(name, operator, where):
            continue
        applied = buf.retune(max_delay=max_delay, capacity=capacity)
        if applied:
            entry: dict[str, Any] = {"buffer": name}
            entry.update({k: list(v) for k, v in applied.items()})
            out.append(entry)
    return out


class FlushTimerService:
    """IO-tier thread guaranteeing buffer latency bounds.

    Scans registered buffers and fires :meth:`StreamBuffer.flush_if_due`.
    One service per runtime; buffers register on link creation.  The
    service sleeps to the nearest deadline: that of pending data, or -
    for a buffer that was empty when scanned, whose first append may
    come at any moment - the scan's own time plus the buffer's
    ``max_delay``, before which it cannot fall due.

    The clock is re-read for every buffer in a scan (and again before
    computing the sleep): ``flush_if_due`` calls a blocking sink, so
    under backpressure one slow sink would otherwise make a
    scan-global timestamp stale for every later buffer — silently
    exceeding their ``max_delay`` bound and mis-sizing the next sleep.

    The sleep is interruptible: the delay is computed from the nearest
    deadline *at scan time*, so a deadline that shrinks mid-sleep (a
    live :meth:`StreamBuffer.retune`, or a config reload) would
    otherwise be missed by up to the stale sleep.  :meth:`poke` wakes
    the scan thread immediately; ``register`` and ``retune`` call it.
    """

    def __init__(self, clock: Clock = SYSTEM_CLOCK) -> None:
        self._clock = clock
        self._buffers: list[StreamBuffer] = []
        self._lock = threading.Lock()
        self._running = False
        self._thread: threading.Thread | None = None
        self._wake = threading.Event()
        # Observability: how often the sleep was cut short by a poke.
        self.pokes = 0

    def register(self, buffer: StreamBuffer) -> None:
        """Track a buffer for timer-driven flushes."""
        with self._lock:
            self._buffers.append(buffer)
            buffer._service = self
        self.poke()

    def unregister(self, buffer: StreamBuffer) -> None:
        """Stop tracking a buffer (no-op when unknown)."""
        with self._lock:
            try:
                self._buffers.remove(buffer)
            except ValueError:
                pass
            if buffer._service is self:
                buffer._service = None

    def poke(self) -> None:
        """Interrupt the current sleep so the next scan runs now.

        Called when a deadline may have moved *earlier* than the sleep
        in progress assumed — buffer registration and live retunes that
        shrink ``max_delay``.  Cheap and thread-safe; spurious pokes
        only cost one extra scan.
        """
        self.pokes += 1
        self._wake.set()

    def start(self) -> None:
        """Start background threads/services. Idempotent."""
        with self._lock:
            if self._running:
                return
            self._running = True
        self._thread = threading.Thread(
            target=self._loop, name="neptune-flush-timer", daemon=True
        )
        self._thread.start()

    def stop(self, timeout: float = 5.0) -> None:
        """Stop and release resources. Idempotent."""
        with self._lock:
            self._running = False
        self._wake.set()  # cut any in-progress sleep short
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None

    def scan_once(self) -> float | None:
        """One pass over all registered buffers; returns the sleep delay
        (None with nothing registered: ``register`` pokes).

        Each buffer is judged against a *fresh* clock reading, so a
        buffer becoming due while an earlier buffer's sink blocks is
        still flushed within this scan.  Exposed for deterministic
        tests with a manual clock.
        """
        with self._lock:
            buffers = list(self._buffers)
        if not buffers:
            return None
        # A buffer found empty below was empty no earlier than now, so
        # it cannot fall due before now + its own max_delay (a retune
        # that shrinks one pokes).
        next_deadline = self._clock.now() + min(buf.max_delay for buf in buffers)
        for buf in buffers:
            dl = buf.next_deadline()
            if dl is None:
                continue
            now = self._clock.now()
            if dl <= now:
                buf.flush_if_due(now)
            elif dl < next_deadline:
                next_deadline = dl
        # Re-read the clock: the flush_if_due calls above may have
        # blocked for a long time, and sleeping against a stale "now"
        # would overshoot the remaining deadlines.
        return max(next_deadline - self._clock.now(), 0.0002)

    def _loop(self) -> None:
        # Real-time paced (see Resource._timer_loop), but the wait is an
        # Event so poke() can cut a sleep short when a deadline shrinks.
        while True:
            with self._lock:
                if not self._running:
                    return
            delay = self.scan_once()
            if self._wake.wait(delay):
                # Clear under the lock: a poke landing between wait()
                # and clear() is swallowed, but the scan_once() that
                # follows re-reads every deadline, so no wake is lost.
                with self._lock:
                    self._wake.clear()
