"""Tests for metrics: latency recorder and registry."""

import math
import threading

import pytest

from repro.core.metrics import (
    LatencyRecorder,
    MetricsRegistry,
    OperatorMetrics,
)


class TestLatencyRecorder:
    def test_percentiles_exact_small_sample(self):
        rec = LatencyRecorder()
        for v in [1.0, 2.0, 3.0, 4.0, 5.0]:
            rec.record(v)
        assert rec.percentile(0) == 1.0
        assert rec.percentile(50) == 3.0
        assert rec.percentile(100) == 5.0
        assert rec.percentile(75) == 4.0

    def test_empty_is_nan(self):
        rec = LatencyRecorder()
        assert math.isnan(rec.percentile(99))
        assert math.isnan(rec.mean())

    def test_percentile_range_check(self):
        rec = LatencyRecorder()
        rec.record(1.0)
        with pytest.raises(ValueError):
            rec.percentile(101)

    def test_reservoir_bounds_memory(self):
        rec = LatencyRecorder(max_samples=100)
        for i in range(10_000):
            rec.record(float(i))
        assert rec.count == 10_000
        assert len(rec._samples) == 100

    def test_reservoir_stays_representative(self):
        rec = LatencyRecorder(max_samples=500, seed=1)
        for i in range(20_000):
            rec.record(i / 20_000)
        # Median of uniform[0,1) should be ~0.5.
        assert rec.percentile(50) == pytest.approx(0.5, abs=0.08)

    def test_mean(self):
        rec = LatencyRecorder()
        for v in (1.0, 2.0, 3.0):
            rec.record(v)
        assert rec.mean() == pytest.approx(2.0)

    def test_thread_safety(self):
        rec = LatencyRecorder(max_samples=64)
        errors = []

        def hammer():
            try:
                for i in range(2000):
                    rec.record(i * 1e-6)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10)
        assert not errors
        assert rec.count == 8000


class TestMetricsRegistry:
    def test_same_instance_returned(self):
        reg = MetricsRegistry()
        a = reg.for_operator("op", 0)
        b = reg.for_operator("op", 0)
        assert a is b
        assert reg.for_operator("op", 1) is not a

    def test_snapshot_aggregates_instances(self):
        reg = MetricsRegistry()
        for idx in range(3):
            m = reg.for_operator("relay", idx)
            m.packets_in = 10
            m.packets_out = 8
            m.bytes_in = 100
        snap = reg.snapshot()
        assert snap["relay"]["instances"] == 3
        assert snap["relay"]["packets_in"] == 30
        assert snap["relay"]["packets_out"] == 24
        assert snap["relay"]["bytes_in"] == 300

    def test_snapshot_empty(self):
        assert MetricsRegistry().snapshot() == {}

    def test_operator_metrics_defaults(self):
        m = OperatorMetrics(operator="x", instance=2)
        assert m.packets_in == 0
        assert m.emit_block_seconds == 0.0
        assert m.latency.count == 0
