"""Tests for clocks and the token-bucket rate limiter."""

import pytest

from repro.util import ManualClock, MonotonicClock, TokenBucket


class TestManualClock:
    def test_starts_at_given_time(self):
        assert ManualClock(5.0).now() == 5.0

    def test_advance(self):
        clk = ManualClock()
        clk.advance(2.5)
        assert clk.now() == 2.5

    def test_sleep_advances(self):
        clk = ManualClock()
        clk.sleep(1.0)
        assert clk.now() == 1.0

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            ManualClock().advance(-1.0)

    def test_wait_until_already_reached(self):
        clk = ManualClock(10.0)
        assert clk.wait_until(5.0, timeout=0.1)

    def test_wait_until_timeout(self):
        clk = ManualClock()
        assert not clk.wait_until(100.0, timeout=0.05)


class TestMonotonicClock:
    def test_monotone(self):
        clk = MonotonicClock()
        a = clk.now()
        b = clk.now()
        assert b >= a

    def test_sleep_zero_is_noop(self):
        MonotonicClock().sleep(0)
        MonotonicClock().sleep(-1)  # must not raise


class TestTokenBucket:
    def test_initial_burst_available(self):
        tb = TokenBucket(rate=10, burst=5, clock=ManualClock())
        assert [tb.acquire() for _ in range(5)] == [0.0] * 5

    def test_acquire_drains_the_burst(self):
        tb = TokenBucket(rate=10, burst=5, clock=ManualClock())
        for _ in range(5):
            tb.acquire()
        assert tb.acquire() == pytest.approx(0.1)

    def test_refill_over_time(self):
        clk = ManualClock()
        tb = TokenBucket(rate=10, burst=10, clock=clk)
        for _ in range(10):
            tb.acquire()
        clk.advance(0.5)
        assert [tb.acquire() for _ in range(5)] == [0.0] * 5
        assert tb.acquire() == pytest.approx(0.1)

    def test_refill_capped_at_burst(self):
        clk = ManualClock()
        tb = TokenBucket(rate=100, burst=10, clock=clk)
        clk.advance(100)
        assert [tb.acquire() for _ in range(10)] == [0.0] * 10
        assert tb.acquire() == pytest.approx(0.01)

    def test_acquire_blocks_until_refill(self):
        clk = ManualClock()
        tb = TokenBucket(rate=10, burst=1, clock=clk)
        assert tb.acquire() == 0.0
        waited = tb.acquire()  # ManualClock.sleep advances the clock
        assert waited == pytest.approx(0.1)

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0)
        with pytest.raises(ValueError):
            TokenBucket(rate=-5)
        with pytest.raises(ValueError):
            TokenBucket(rate=1, burst=0)

    def test_sustained_rate_converges(self):
        clk = ManualClock()
        tb = TokenBucket(rate=100, burst=1, clock=clk)
        start = clk.now()
        for _ in range(50):
            tb.acquire()
        elapsed = clk.now() - start
        # 50 tokens at 100/s with burst 1: ~0.49s of simulated waiting.
        assert elapsed == pytest.approx(0.49, abs=0.02)
