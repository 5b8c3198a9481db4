"""Tests for the watermark channel — the backpressure building block."""

import threading
import time

import pytest

from repro.net import ChannelClosed, WatermarkChannel
from repro.util import ManualClock
from waiters import wait_until


class TestBasics:
    def test_put_get_fifo(self):
        ch = WatermarkChannel(high_watermark=1000)
        for i in range(5):
            ch.put(10, i)
        assert [ch.get() for _ in range(5)] == [0, 1, 2, 3, 4]

    def test_drain(self):
        ch = WatermarkChannel(high_watermark=1000)
        for i in range(5):
            ch.put(10, i)
        assert ch.drain(max_items=2) == [0, 1]
        assert ch.drain() == [2, 3, 4]
        assert ch.buffered_bytes == 0

    def test_byte_accounting(self):
        ch = WatermarkChannel(high_watermark=100, low_watermark=20)
        ch.put(30, "a")
        ch.put(30, "b")
        assert ch.buffered_bytes == 60
        ch.get()
        assert ch.buffered_bytes == 30

    def test_validation(self):
        with pytest.raises(ValueError):
            WatermarkChannel(high_watermark=0)
        with pytest.raises(ValueError):
            WatermarkChannel(high_watermark=10, low_watermark=10)
        with pytest.raises(ValueError):
            WatermarkChannel(high_watermark=10, low_watermark=-1)
        ch = WatermarkChannel(high_watermark=10)
        with pytest.raises(ValueError):
            ch.put(-1, "x")

    def test_default_low_watermark_is_half(self):
        assert WatermarkChannel(high_watermark=100).low_watermark == 50


class TestWatermarkGate:
    def test_gate_trips_at_high_watermark(self):
        ch = WatermarkChannel(high_watermark=100, low_watermark=40)
        ch.put(50, "a")
        assert not ch.gated
        ch.put(50, "b")  # reaches 100
        assert ch.gated

    def test_gate_holds_until_low_watermark(self):
        """Hysteresis: the gate must NOT reopen between high and low."""
        ch = WatermarkChannel(high_watermark=100, low_watermark=30)
        for _ in range(4):
            ch.put(25, "x")  # 100 bytes → gated
        assert ch.gated
        ch.get()  # 75
        assert ch.gated
        ch.get()  # 50
        assert ch.gated
        ch.get()  # 25 <= 30 → reopen
        assert not ch.gated

    def test_blocked_writer_resumes_after_drain(self):
        ch = WatermarkChannel(high_watermark=20, low_watermark=5)
        ch.put(20, "big")
        assert ch.gated
        done = []

        def writer():
            ch.put(10, "second")
            done.append(True)

        t = threading.Thread(target=writer)
        t.start()
        time.sleep(0.05)
        assert not done  # writer is blocked by the gate
        assert ch.get() == "big"
        t.join(2.0)
        assert done
        assert ch.get() == "second"
        assert ch.writer_blocks == 1

    def test_put_timeout(self):
        ch = WatermarkChannel(high_watermark=10, low_watermark=1)
        ch.put(10, "fill")
        assert not ch.put(5, "late", timeout=0.05)

    def test_gate_trips_counted(self):
        ch = WatermarkChannel(high_watermark=10, low_watermark=1)
        for _ in range(3):
            ch.put(10, "x")  # allowed: gate only gates *subsequent* puts
            ch.drain()
        assert ch.gate_trips == 3

    def test_gate_callback(self):
        events = []
        ch = WatermarkChannel(high_watermark=10, low_watermark=1)
        ch.on_gate_change(events.append)
        ch.put(10, "x")
        assert events == [True]
        ch.drain()
        assert events == [True, False]


class TestClose:
    def test_put_on_closed_raises(self):
        ch = WatermarkChannel(high_watermark=10)
        ch.close()
        with pytest.raises(ChannelClosed):
            ch.put(1, "x")

    def test_get_drains_then_raises(self):
        ch = WatermarkChannel(high_watermark=10)
        ch.put(1, "x")
        ch.close()
        assert ch.get() == "x"
        with pytest.raises(ChannelClosed):
            ch.get()

    def test_close_unblocks_writer(self):
        ch = WatermarkChannel(high_watermark=10, low_watermark=1)
        ch.put(10, "fill")
        errors = []

        def writer():
            try:
                ch.put(1, "blocked")
            except ChannelClosed as exc:
                errors.append(exc)

        t = threading.Thread(target=writer)
        t.start()
        time.sleep(0.05)
        ch.close()
        t.join(2.0)
        assert len(errors) == 1

    def test_get_timeout(self):
        ch = WatermarkChannel(high_watermark=10)
        with pytest.raises(TimeoutError):
            ch.get(timeout=0.05)


class TestTimeoutIsOneDeadline:
    """``timeout`` bounds the whole call.  A waiter that is woken and
    finds its condition gone again (a competing writer re-tripped the
    gate, a competing reader took the item) used to wait the full
    timeout again, each time."""

    @staticmethod
    def _record_waits(condition):
        """Every timeout ``condition.wait`` is called with, in order."""
        waits, real_wait = [], condition.wait

        def wait(timeout=None):
            waits.append(timeout)
            return real_wait(timeout)

        condition.wait = wait
        return waits

    def _wake_without_cause(self, condition, waits, times):
        """Wake the waiter ``times`` times while its condition stays
        false — what it sees when someone else wins the race."""
        for n in range(1, times + 1):
            assert wait_until(lambda: len(waits) == n)
            with condition:
                condition.notify_all()
        assert wait_until(lambda: len(waits) == times + 1)

    def test_put_waits_against_one_deadline(self):
        ch = WatermarkChannel(high_watermark=10, low_watermark=1)
        ch.put(10, "fill")
        waits = self._record_waits(ch._writable)
        result = []
        t = threading.Thread(target=lambda: result.append(ch.put(1, "late", timeout=30.0)))
        t.start()
        self._wake_without_cause(ch._writable, waits, 3)
        assert waits[0] <= 30.0
        assert all(later < earlier for earlier, later in zip(waits, waits[1:])), waits
        ch.drain()
        t.join(5.0)
        assert not t.is_alive() and result == [True]

    def test_put_gives_up_at_the_deadline_however_often_woken(self):
        ch = WatermarkChannel(high_watermark=10, low_watermark=1)
        ch.put(10, "fill")
        result = []
        t = threading.Thread(target=lambda: result.append(ch.put(1, "late", timeout=0.2)))
        started = time.monotonic()
        t.start()
        # Wake it every 20 ms for as long as it is still waiting; a
        # wait that restarted on each wake-up would never give up.
        while t.is_alive() and time.monotonic() - started < 5.0:
            with ch._writable:
                ch._writable.notify_all()
            t.join(0.02)
        assert not t.is_alive() and result == [False]
        assert ch.writer_blocks == 1

    def test_get_waits_against_one_deadline(self):
        ch = WatermarkChannel(high_watermark=10)
        waits = self._record_waits(ch._readable)
        errors = []

        def reader():
            try:
                ch.get(timeout=30.0)
            except ChannelClosed as exc:
                errors.append(exc)

        t = threading.Thread(target=reader)
        t.start()
        self._wake_without_cause(ch._readable, waits, 3)
        assert waits[0] <= 30.0
        assert all(later < earlier for earlier, later in zip(waits, waits[1:])), waits
        ch.close()
        t.join(5.0)
        assert not t.is_alive() and len(errors) == 1


class TestWaitTaken:
    """A sender's wait for a reader to take what it put."""

    @staticmethod
    def _waiter(ch, timeout=None):
        """Starts ``ch.wait_taken(timeout)`` on a thread; returns the
        thread, its result list, and a predicate for "it is waiting"."""
        waits = TestTimeoutIsOneDeadline._record_waits(ch._writable)
        result = []
        t = threading.Thread(
            target=lambda: result.append(ch.wait_taken(timeout)), daemon=True
        )
        t.start()
        return t, result, lambda: len(waits) >= 1

    def test_nothing_queued_returns_at_once_without_reading_the_clock(self):
        clock = ManualClock()
        reads = []
        real_now = clock.now
        clock.now = lambda: reads.append(1) or real_now()
        ch = WatermarkChannel(high_watermark=100, clock=clock)
        assert ch.wait_taken() == 0.0
        ch.put(1, "x")
        ch.drain()
        assert ch.wait_taken() == 0.0
        assert reads == []

    def test_drain_releases_the_waiter(self):
        clock = ManualClock()
        ch = WatermarkChannel(high_watermark=100, clock=clock)
        ch.put(1, "a")
        ch.put(1, "b")
        t, result, waiting = self._waiter(ch)
        assert wait_until(waiting)
        clock.advance(0.25)
        assert ch.drain(max_items=1) == ["a"]  # one still queued
        t.join(0.05)
        assert t.is_alive()
        assert ch.drain() == ["b"]
        t.join(5.0)
        assert not t.is_alive() and result == [0.25]

    def test_get_of_the_last_item_releases_the_waiter(self):
        ch = WatermarkChannel(high_watermark=100)
        ch.put(1, "a")
        t, result, waiting = self._waiter(ch)
        assert wait_until(waiting)
        assert ch.get() == "a"
        t.join(5.0)
        assert not t.is_alive() and len(result) == 1

    def test_close_releases_the_waiter(self):
        ch = WatermarkChannel(high_watermark=100)
        ch.put(1, "a")
        t, result, waiting = self._waiter(ch)
        assert wait_until(waiting)
        ch.close()
        t.join(5.0)
        assert not t.is_alive() and len(result) == 1
        assert ch.wait_taken() == 0.0  # closed: nobody will take it

    def test_gives_up_at_the_timeout_without_raising(self):
        ch = WatermarkChannel(high_watermark=100)
        ch.put(1, "a")
        started = time.monotonic()
        waited = ch.wait_taken(timeout=0.05)
        assert 0.04 <= waited <= time.monotonic() - started + 0.01
        assert len(ch) == 1

    def test_opening_the_gate_does_not_release_it_early(self):
        """Gated writers and waiting senders share a condition: each
        re-checks its own."""
        ch = WatermarkChannel(high_watermark=10, low_watermark=5)
        ch.put(8, "a")
        ch.put(4, "b")  # trips the gate
        t, result, waiting = self._waiter(ch)
        assert wait_until(waiting)
        assert ch.get() == "a" and not ch.gated  # opened, "b" still queued
        t.join(0.05)
        assert t.is_alive()
        ch.drain()
        t.join(5.0)
        assert not t.is_alive()


class TestConcurrency:
    def test_many_producers_one_consumer_no_loss(self):
        ch = WatermarkChannel(high_watermark=500, low_watermark=100)
        n_producers, per_producer = 4, 200
        received = []

        def producer(pid):
            for i in range(per_producer):
                ch.put(8, (pid, i))

        def consumer():
            for _ in range(n_producers * per_producer):
                received.append(ch.get())

        threads = [threading.Thread(target=producer, args=(p,)) for p in range(n_producers)]
        ct = threading.Thread(target=consumer)
        ct.start()
        for t in threads:
            t.start()
        for t in threads:
            t.join(10.0)
        ct.join(10.0)
        assert len(received) == n_producers * per_producer
        # Per-producer FIFO order is preserved.
        for p in range(n_producers):
            seq = [i for pid, i in received if pid == p]
            assert seq == list(range(per_producer))


class TestInjectedClock:
    """Regression: gate-episode durations read ``time.monotonic()``
    directly, so sim-time tests (SimClock/ManualClock) saw wall-clock
    noise in ``gated_seconds`` — the doctor's backpressure attribution
    input.  Durations must follow the injected clock exactly."""

    def test_gate_durations_follow_manual_clock(self):
        clk = ManualClock(start=100.0)
        ch = WatermarkChannel(high_watermark=10, low_watermark=1, clock=clk)
        ch.put(10, "a")  # gate closes at t=100
        assert ch.gated
        clk.advance(2.5)
        ch.get()  # drains to 0 <= low: gate opens at t=102.5
        assert not ch.gated
        assert ch.last_gate_seconds == pytest.approx(2.5)
        assert ch.gated_seconds == pytest.approx(2.5)
        ch.put(10, "b")
        clk.advance(1.0)
        ch.get()
        assert ch.last_gate_seconds == pytest.approx(1.0)
        assert ch.gated_seconds == pytest.approx(3.5)

    def test_no_wall_clock_reads_in_gate_path(self):
        """Source guard: flowcontrol must never import time for gate
        accounting, and observe/ must stay free of time.time()."""
        import pathlib

        import repro.net.flowcontrol as fc
        import repro.observe as obs

        src = pathlib.Path(fc.__file__).read_text()
        assert "time.monotonic()" not in src
        assert "time.time()" not in src
        for path in pathlib.Path(obs.__path__[0]).glob("*.py"):
            assert "time.time()" not in path.read_text(), path.name
