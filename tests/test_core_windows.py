"""Tests for windowing utilities."""

import statistics

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import SlidingWindow


class TestSlidingWindow:
    def test_add_and_values(self):
        w = SlidingWindow(size=10.0)
        w.add(0.0, "a")
        w.add(5.0, "b")
        assert list(w.values()) == ["a", "b"]
        assert len(w) == 2

    def test_eviction_beyond_size(self):
        w = SlidingWindow(size=10.0)
        w.add(0.0, "old")
        w.add(10.0, "edge")  # 0.0 <= 10.0 - 10.0 → evicted
        w.add(15.0, "new")
        assert list(w.values()) == ["edge", "new"]

    def test_out_of_order_rejected(self):
        w = SlidingWindow(size=5.0)
        w.add(10.0, "x")
        with pytest.raises(ValueError, match="out-of-order"):
            w.add(9.0, "y")

    def test_equal_timestamps_allowed(self):
        w = SlidingWindow(size=5.0)
        w.add(1.0, "a")
        w.add(1.0, "b")
        assert len(w) == 2

    def test_span(self):
        w = SlidingWindow(size=100.0)
        assert w.span == 0.0
        w.add(0.0, 1)
        w.add(30.0, 2)
        assert w.span == 30.0

    def test_aggregate(self):
        w = SlidingWindow(size=100.0)
        for i, v in enumerate([1.0, 2.0, 3.0, 4.0]):
            w.add(float(i), v)
        assert w.aggregate(statistics.mean) == 2.5

    def test_bool(self):
        w = SlidingWindow(size=1.0)
        assert not w
        w.add(0.0, 1)
        assert w

    def test_validation(self):
        with pytest.raises(ValueError):
            SlidingWindow(size=0)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(min_value=0, max_value=1000, allow_nan=False), max_size=100),
    st.floats(min_value=0.1, max_value=50.0),
)
def test_sliding_window_invariant(timestamps, size):
    """After any add sequence, all retained items lie within `size` of
    the newest timestamp."""
    w = SlidingWindow(size=size)
    for ts in sorted(timestamps):
        w.add(ts, ts)
        retained = list(w.values())
        assert retained  # the item just added is always retained
        assert all(ts - size < v <= ts for v in retained)
