"""Tests for application-level buffering (capacity + timer flush, §III-B1)."""

import threading
import time

import pytest

from repro.core.buffering import FlushTimerService, StreamBuffer
from repro.util import ManualClock


class Sink:
    def __init__(self):
        self.flushes = []

    def __call__(self, body, count):
        self.flushes.append((body, count))


class TestCapacityFlush:
    def test_no_flush_below_capacity(self):
        sink = Sink()
        buf = StreamBuffer(capacity=100, sink=sink, clock=ManualClock())
        assert not buf.append(b"x" * 50)
        assert sink.flushes == []
        assert buf.pending_bytes == 50
        assert buf.pending_count == 1

    def test_flush_at_capacity(self):
        sink = Sink()
        buf = StreamBuffer(capacity=100, sink=sink, clock=ManualClock())
        buf.append(b"a" * 60)
        assert buf.append(b"b" * 60)  # 120 >= 100 → flush
        assert sink.flushes == [(b"a" * 60 + b"b" * 60, 2)]
        assert buf.pending_bytes == 0

    def test_capacity_is_bytes_not_count(self):
        """Paper: buffers are sized by capacity, not message count."""
        sink = Sink()
        buf = StreamBuffer(capacity=1000, sink=sink, clock=ManualClock())
        for _ in range(999):
            buf.append(b"x")  # 999 tiny messages: below capacity
        assert sink.flushes == []
        buf.append(b"y")
        assert len(sink.flushes) == 1
        assert sink.flushes[0][1] == 1000

    def test_single_oversized_payload_flushes_immediately(self):
        sink = Sink()
        buf = StreamBuffer(capacity=10, sink=sink, clock=ManualClock())
        buf.append(b"z" * 100)
        assert sink.flushes == [(b"z" * 100, 1)]

    def test_flush_order_preserved(self):
        sink = Sink()
        buf = StreamBuffer(capacity=4, sink=sink, clock=ManualClock())
        for i in range(10):
            buf.append(bytes([i]) * 4)
        bodies = b"".join(b for b, _ in sink.flushes)
        assert bodies == b"".join(bytes([i]) * 4 for i in range(10))

    def test_stats(self):
        sink = Sink()
        buf = StreamBuffer(capacity=4, sink=sink, clock=ManualClock())
        buf.append(b"aaaa")
        buf.append(b"bb")
        buf.flush()
        assert buf.capacity_flushes == 1
        assert buf.manual_flushes == 1
        assert buf.bytes_flushed == 6
        assert buf.packets_flushed == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            StreamBuffer(capacity=0, sink=Sink())
        with pytest.raises(ValueError):
            StreamBuffer(capacity=10, sink=Sink(), max_delay=0)


class TestTimerFlush:
    def test_flush_if_due_after_max_delay(self):
        clk = ManualClock()
        sink = Sink()
        buf = StreamBuffer(capacity=1000, sink=sink, max_delay=0.5, clock=clk)
        buf.append(b"data")
        assert not buf.flush_if_due()  # not yet due
        clk.advance(0.6)
        assert buf.flush_if_due()
        assert sink.flushes == [(b"data", 1)]
        assert buf.timer_flushes == 1

    def test_deadline_measured_from_first_append(self):
        """The paper's timer starts at the *first* message's arrival."""
        clk = ManualClock()
        sink = Sink()
        buf = StreamBuffer(capacity=1000, sink=sink, max_delay=1.0, clock=clk)
        buf.append(b"first")
        clk.advance(0.8)
        buf.append(b"second")  # does NOT restart the timer
        clk.advance(0.3)  # first has now waited 1.1s
        assert buf.flush_if_due()
        assert sink.flushes == [(b"firstsecond", 2)]

    def test_next_deadline(self):
        clk = ManualClock(start=10.0)
        buf = StreamBuffer(capacity=1000, sink=Sink(), max_delay=0.25, clock=clk)
        assert buf.next_deadline() is None
        buf.append(b"x")
        assert buf.next_deadline() == pytest.approx(10.25)

    def test_empty_manual_flush_is_noop(self):
        sink = Sink()
        buf = StreamBuffer(capacity=10, sink=sink, clock=ManualClock())
        assert not buf.flush()
        assert sink.flushes == []


class TestFlushTimerService:
    def test_timer_service_flushes_latent_buffer(self):
        """A slow stream must still meet its latency bound (real time)."""
        sink = Sink()
        buf = StreamBuffer(capacity=1 << 20, sink=sink, max_delay=0.02)
        svc = FlushTimerService()
        svc.register(buf)
        svc.start()
        try:
            buf.append(b"lonely-message")
            deadline = time.monotonic() + 2
            while not sink.flushes and time.monotonic() < deadline:
                time.sleep(0.005)
            assert sink.flushes == [(b"lonely-message", 1)]
        finally:
            svc.stop()

    def test_unregister_stops_flushing(self):
        sink = Sink()
        buf = StreamBuffer(capacity=1 << 20, sink=sink, max_delay=0.01)
        svc = FlushTimerService()
        svc.register(buf)
        svc.unregister(buf)
        svc.start()
        try:
            buf.append(b"data")
            time.sleep(0.1)
            assert sink.flushes == []
        finally:
            svc.stop()

    def test_unregister_unknown_buffer_is_noop(self):
        svc = FlushTimerService()
        svc.unregister(StreamBuffer(capacity=1, sink=Sink()))


class TestConcurrentFlushOrdering:
    def test_worker_and_timer_never_reorder(self):
        """Capacity flushes (worker) and timer flushes must serialize."""
        order = []
        lock = threading.Lock()

        def sink(body, count):
            with lock:
                order.append(body)

        buf = StreamBuffer(capacity=64, sink=sink, max_delay=0.001)
        svc = FlushTimerService()
        svc.register(buf)
        svc.start()
        try:
            payload = []
            for i in range(2000):
                chunk = i.to_bytes(4, "little")
                payload.append(chunk)
                buf.append(chunk)
                if i % 100 == 0:
                    time.sleep(0.002)  # let timer flushes interleave
            buf.flush()
        finally:
            svc.stop()
        assert b"".join(order) == b"".join(payload)


class TestDoubleBufferRecycle:
    def test_flush_hands_over_pooled_bytearray(self):
        bodies = []
        buf = StreamBuffer(capacity=64, sink=lambda b, c: bodies.append(b))
        buf.append(b"x" * 64)
        assert isinstance(bodies[0], bytearray)
        assert bytes(bodies[0]) == b"x" * 64

    def test_steady_state_cycles_two_buffers_without_allocating(self):
        bodies = []

        def sink(body, count):
            bodies.append(body)
            buf.recycle(body)

        buf = StreamBuffer(capacity=64, sink=sink)
        for _ in range(6):
            buf.append(b"x" * 64)
        assert len(bodies) == 6
        # The same two storage objects alternate; only one fresh
        # bytearray was ever allocated to replace the one in flight.
        assert len({id(b) for b in bodies}) <= 2
        assert buf.spare_allocs == 1
        assert buf.buffers_recycled == 6

    def test_non_recycling_sink_keeps_body_contents(self):
        sink = Sink()
        buf = StreamBuffer(capacity=64, sink=sink)
        buf.append(b"a" * 64)
        buf.append(b"b" * 64)
        # A legacy sink that retains bodies must see each batch intact.
        assert [bytes(b) for b, _ in sink.flushes] == [b"a" * 64, b"b" * 64]

    def test_recycle_ignores_foreign_bodies(self):
        buf = StreamBuffer(capacity=64, sink=lambda b, c: None)
        buf.recycle(b"immutable")
        buf.recycle(memoryview(b"view"))
        assert buf.buffers_recycled == 0

    def test_recycle_pool_is_bounded(self):
        buf = StreamBuffer(capacity=64, sink=lambda b, c: None)
        for _ in range(5):
            buf.recycle(bytearray(b"spare"))
        assert buf.buffers_recycled == 2  # _SPARE_LIMIT

    def test_recycle_drops_bytearray_with_live_export(self):
        buf = StreamBuffer(capacity=64, sink=lambda b, c: None)
        ba = bytearray(b"exported")
        view = memoryview(ba)
        buf.recycle(ba)  # clear() would raise BufferError — dropped
        assert buf.buffers_recycled == 0
        assert bytes(view) == b"exported"
        view.release()


class TestStaleClockScan:
    """Regression: FlushTimerService computed `now` once per scan, so a
    blocking sink made every later buffer's deadline check stale and
    silently exceeded their max_delay bound."""

    def test_buffer_becoming_due_during_blocked_sink_flushes_same_scan(self):
        clock = ManualClock()
        svc = FlushTimerService(clock=clock)
        flushed = []

        def slow_sink(body, count):
            flushed.append("A")
            clock.advance(0.5)  # the sink blocks 500ms under backpressure

        a = StreamBuffer(capacity=1 << 20, sink=slow_sink, max_delay=0.5, clock=clock)
        b = StreamBuffer(
            capacity=1 << 20,
            sink=lambda body, count: flushed.append("B"),
            max_delay=0.5,
            clock=clock,
        )
        svc.register(a)
        svc.register(b)
        a.append(b"a")  # deadline t=0.5
        clock.advance(0.3)
        b.append(b"b")  # deadline t=0.8
        clock.advance(0.25)  # t=0.55: A due, B not yet
        svc.scan_once()
        # A's sink advanced the clock to t=1.05 > B's deadline.  With a
        # scan-global timestamp B would wait for the next scan, blowing
        # its latency bound; per-buffer clock reads flush it now.
        assert flushed == ["A", "B"]

    def test_sleep_delay_rereads_clock_after_blocking_flushes(self):
        clock = ManualClock()
        svc = FlushTimerService(clock=clock)

        def slow_sink(body, count):
            clock.advance(0.4)

        a = StreamBuffer(capacity=1 << 20, sink=slow_sink, max_delay=20.0, clock=clock)
        b = StreamBuffer(
            capacity=1 << 20, sink=lambda bd, c: None, max_delay=30.0, clock=clock
        )
        svc.register(a)
        svc.register(b)
        a.append(b"a")  # due at t=20.0
        b.append(b"b")  # due at t=30.0
        clock.advance(20.2)  # A due now
        delay = svc.scan_once()  # flushing A advances the clock by 0.4
        # Sleep until B's deadline must be measured from the *post-flush*
        # clock (t=20.6): 30.0 - 20.6, not 30.0 - 20.2.  (A, emptied by
        # the flush, cannot fall due before t=40.2.)
        assert delay == pytest.approx(30.0 - 20.6)


class TestSleepsToADeadline:
    """The service does not poll: it sleeps to the nearest moment a
    buffer could fall due."""

    def test_nothing_registered_waits_to_be_poked(self):
        svc = FlushTimerService(clock=ManualClock())
        assert svc.scan_once() is None
        before = svc.pokes
        svc.register(StreamBuffer(capacity=10, sink=Sink()))
        assert svc.pokes == before + 1

    def test_an_empty_buffer_cannot_fall_due_before_its_own_max_delay(self):
        clock = ManualClock(start=5.0)
        svc = FlushTimerService(clock=clock)
        for max_delay in (0.3, 0.1, 7.0):
            svc.register(
                StreamBuffer(capacity=10, sink=Sink(), max_delay=max_delay, clock=clock)
            )
        assert svc.scan_once() == pytest.approx(0.1)

    def test_a_pending_deadline_nearer_than_that_wins(self):
        clock = ManualClock()
        svc = FlushTimerService(clock=clock)
        slow = StreamBuffer(capacity=10, sink=Sink(), max_delay=1.0, clock=clock)
        svc.register(slow)
        svc.register(StreamBuffer(capacity=10, sink=Sink(), max_delay=0.4, clock=clock))
        slow.append(b"x")  # due at t=1.0
        clock.advance(0.7)
        assert svc.scan_once() == pytest.approx(0.3)
        clock.advance(0.2999)
        assert svc.scan_once() == pytest.approx(0.0002)  # the floor

    def test_a_first_append_right_after_the_scan_is_flushed_on_time(self):
        clock = ManualClock()
        sink = Sink()
        svc = FlushTimerService(clock=clock)
        buf = StreamBuffer(capacity=10, sink=sink, max_delay=0.5, clock=clock)
        svc.register(buf)
        delay = svc.scan_once()  # found empty at t=0
        clock.advance(0.001)
        buf.append(b"x")  # due at t=0.501
        clock.advance(delay - 0.001)  # the service wakes: not due yet
        assert svc.scan_once() == pytest.approx(0.001)
        clock.advance(0.001)
        svc.scan_once()
        assert sink.flushes == [(b"x", 1)]


class TestDeadlineShrinkWakeup:
    """Regression: the service computed its sleep from the nearest
    deadline at scan time only, so a deadline that *shrinks* mid-sleep
    (live retune / config reload) was missed by up to the stale sleep.
    retune() now pokes the service, which wakes immediately."""

    def test_retune_applies_and_counts(self):
        buf = StreamBuffer(
            capacity=100, sink=Sink(), max_delay=1.0, clock=ManualClock()
        )
        changed = buf.retune(max_delay=0.5, capacity=200)
        assert changed == {"max_delay": (1.0, 0.5), "capacity": (100, 200)}
        assert buf.max_delay == 0.5
        assert buf.capacity == 200
        assert buf.retunes == 1
        assert buf.retune(max_delay=0.5) == {}  # no-op: values unchanged
        assert buf.retunes == 1
        with pytest.raises(ValueError):
            buf.retune(max_delay=0)
        with pytest.raises(ValueError):
            buf.retune(capacity=-1)

    def test_retune_shrink_pokes_registered_service(self):
        svc = FlushTimerService(clock=ManualClock())
        buf = StreamBuffer(
            capacity=100, sink=Sink(), max_delay=1.0, clock=ManualClock()
        )
        svc.register(buf)
        before = svc.pokes
        buf.retune(max_delay=0.2)  # shrinks: must wake the scan thread
        assert svc.pokes == before + 1
        buf.retune(max_delay=0.5)  # grows: the old sleep is still safe
        assert svc.pokes == before + 1

    def test_shrunk_deadline_flushes_on_next_scan(self):
        clk = ManualClock()
        sink = Sink()
        svc = FlushTimerService(clock=clk)
        buf = StreamBuffer(capacity=1 << 20, sink=sink, max_delay=50.0, clock=clk)
        svc.register(buf)
        buf.append(b"x")
        assert svc.scan_once() == pytest.approx(50.0)  # sleep vs old bound
        buf.retune(max_delay=0.5)
        clk.advance(1.0)  # past the NEW deadline, far from the old one
        svc.scan_once()
        assert sink.flushes == [(b"x", 1)]

    def test_retune_shrink_wakes_sleeping_service(self):
        """Real-time: the service sleeps toward a 30s deadline; a live
        retune to 10ms must flush promptly, not after the stale sleep."""
        sink = Sink()
        buf = StreamBuffer(capacity=1 << 20, sink=sink, max_delay=30.0)
        svc = FlushTimerService()
        svc.register(buf)
        svc.start()
        try:
            buf.append(b"parked")
            time.sleep(0.05)  # let the service go to sleep
            start = time.monotonic()
            buf.retune(max_delay=0.01)  # already overdue → flush now
            deadline = time.monotonic() + 5
            while not sink.flushes and time.monotonic() < deadline:
                time.sleep(0.002)
            elapsed = time.monotonic() - start
            assert sink.flushes == [(b"parked", 1)]
            assert elapsed < 2.0, "shrunk deadline was missed by the old sleep"
        finally:
            svc.stop()

    def test_stop_interrupts_long_sleep(self):
        svc = FlushTimerService()
        svc.start()
        start = time.monotonic()
        svc.stop()
        assert time.monotonic() - start < 5.0


class TestSwapStress:
    def test_capacity_flush_racing_timer_thread_loses_nothing(self):
        """Worker-thread capacity flushes race the real timer thread
        (plus recycling) — every packet arrives exactly once, in order."""
        import struct

        total = 20_000
        record = struct.Struct("<q")
        received = []
        lock = threading.Lock()

        def sink(body, count):
            assert len(body) % record.size == 0
            with lock:
                received.extend(
                    record.unpack_from(body, off)[0]
                    for off in range(0, len(body), record.size)
                )
            buf.recycle(body)

        buf = StreamBuffer(capacity=256, sink=sink, max_delay=0.001)
        svc = FlushTimerService()
        svc.register(buf)
        svc.start()
        try:
            for i in range(total):
                buf.append(record.pack(i))
                if i % 1000 == 999:
                    time.sleep(0.002)  # let the timer fire on partial buffers
            buf.flush()
        finally:
            svc.stop()
        assert len(received) == total, "lost or duplicated packets"
        assert received == list(range(total)), "reordered packets"
        assert buf.timer_flushes > 0, "timer thread never raced the worker"
        assert buf.capacity_flushes > 0


class _WaitSignalClock(ManualClock):
    """Sets ``read`` whenever one particular thread reads the time: the
    code under test reads its clock only once it has found it must
    wait, so the event says "that thread is about to block"."""

    def __init__(self):
        super().__init__()
        self.read = threading.Event()
        self.watched = None

    def now(self):
        if threading.current_thread() is self.watched:
            self.read.set()
        return super().now()


class TestBlockedSeconds:
    """``blocked_seconds`` is time spent waiting — for the receiver or
    for the flush lock — never the sink's own work (compression)."""

    PAYLOAD = b"sensor-17 nominal 21.5 21.5 21.5 " * 8  # compresses well

    def _link(self, channel):
        """A buffer wired as the runtime wires a compressing link."""
        from repro.compression import CompressionPolicy
        from repro.core.config import NeptuneConfig
        from repro.core.packet import PacketSchema
        from repro.core.fieldtypes import FieldType
        from repro.core.runtime import _InLinkInfo, _leg_buffer, _local_leg
        from repro.core.serde import PacketCodec

        policy = CompressionPolicy(enabled=True, min_size=0)
        info = _InLinkInfo(
            PacketCodec(PacketSchema([("b", FieldType.BYTES)])), True
        )
        deliver = _local_leg(0, channel, info, None)
        cfg = NeptuneConfig(buffer_capacity=8192)
        return _leg_buffer("", cfg, deliver, policy, None), policy

    def test_compressing_link_that_never_gates_reports_zero(self):
        from repro.net import WatermarkChannel

        channel = WatermarkChannel(high_watermark=1 << 30)
        buf, policy = self._link(channel)
        for _ in range(400):
            buf.append(self.PAYLOAD)
        assert buf.capacity_flushes >= 10
        assert policy.stats.payloads_compressed == buf.capacity_flushes
        assert policy.stats.compress_seconds > 0.0
        assert channel.writer_blocks == 0
        assert buf.blocked_seconds == 0.0

    def test_gate_wait_is_reported_and_nothing_else(self):
        from repro.net import WatermarkChannel

        clock = _WaitSignalClock()
        channel = WatermarkChannel(high_watermark=1, low_watermark=0, clock=clock)
        buf, _ = self._link(channel)
        while not channel.gated:  # the first flushed batch closes the gate
            buf.append(self.PAYLOAD)
        assert buf.capacity_flushes == 1
        assert buf.blocked_seconds == 0.0

        def fill():
            while buf.capacity_flushes < 2:
                buf.append(self.PAYLOAD)

        appender = threading.Thread(target=fill, daemon=True)
        clock.watched = appender
        appender.start()
        assert clock.read.wait(5.0)  # in put(), about to wait for the gate
        clock.advance(2.5)
        assert len(channel.drain()) == 1  # opens the gate
        appender.join(5.0)
        assert not appender.is_alive()
        assert channel.writer_blocks == 1
        assert buf.blocked_seconds == 2.5

    def test_flush_lock_wait_is_reported(self):
        clock = _WaitSignalClock()
        buf = StreamBuffer(capacity=100, sink=Sink(), clock=ManualClock())
        buf._clock = clock  # appends stamp times too: watch the flush only
        buf.append(b"x" * 60)
        appender = threading.Thread(
            target=buf.append, args=(b"y" * 60,), daemon=True
        )
        clock.watched = appender
        with buf._flush_lock:  # the timer thread, held up in its own flush
            clock.read.clear()
            appender.start()
            assert clock.read.wait(5.0)
            clock.advance(1.5)
        appender.join(5.0)
        assert not appender.is_alive()
        assert buf.capacity_flushes == 1
        assert buf.blocked_seconds == 1.5
