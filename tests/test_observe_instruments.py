"""Observe subsystem: instruments, registry, timeline, exporters, and
the S1 metrics fixes (percentile validation / batch queries) the
bridge depends on."""

import json
import math
import re

import pytest

from repro.core.metrics import LatencyRecorder, MetricsRegistry
from repro.observe import EventTimeline, RuntimeObserver, TelemetryRegistry
from repro.observe.instruments import DEFAULT_BUCKETS, RegistryFull
from repro.observe.export import snapshot, to_prometheus


# ---------------------------------------------------------------------------
# Instruments
# ---------------------------------------------------------------------------


class TestCounter:
    def test_inc_and_value(self):
        reg = TelemetryRegistry()
        c = reg.counter("neptune_test_total", None, "help")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_negative_inc_rejected(self):
        c = TelemetryRegistry().counter("neptune_test_total", None, "help")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_set_total_never_backwards(self):
        c = TelemetryRegistry().counter("neptune_test_total", None, "help")
        c.set_total(10)
        c.set_total(4)  # stale mirror: ignored
        assert c.value == 10
        c.set_total(12)
        assert c.value == 12


class TestGauge:
    def test_set(self):
        g = TelemetryRegistry().gauge("neptune_g", None, "help")
        g.set(7.0)
        assert g.value == 7.0

    def test_pull_function(self):
        g = TelemetryRegistry().gauge("neptune_g", None, "help", fn=lambda: 42.0)
        assert g.value == 42.0

    def test_pull_exception_reads_zero(self):
        def boom() -> float:
            raise RuntimeError("source gone")

        g = TelemetryRegistry().gauge("neptune_g", None, "help", fn=boom)
        assert g.value == 0.0


class TestHistogram:
    def test_observe_and_cumulative_buckets(self):
        h = TelemetryRegistry().histogram("neptune_h", None, "help")
        for v in (0.00005, 0.003, 0.003, 100.0):
            h.observe(v)
        assert h.count == 4
        assert h.sum == pytest.approx(100.00605)
        buckets = h.cumulative_buckets()
        assert buckets[-1][0] == math.inf
        assert buckets[-1][1] == 4  # +Inf sees everything
        # Cumulative counts never decrease.
        counts = [n for _, n in buckets]
        assert counts == sorted(counts)
        le_01 = dict(buckets)[0.01]
        assert le_01 == 3  # the 100.0 outlier only lands in +Inf

    def test_default_buckets_sorted(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)


class TestTelemetryRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = TelemetryRegistry()
        a = reg.counter("neptune_x_total", {"op": "a"}, "help")
        b = reg.counter("neptune_x_total", {"op": "a"}, "help")
        assert a is b
        assert len(reg) == 1

    def test_label_sets_are_distinct_series(self):
        reg = TelemetryRegistry()
        reg.counter("neptune_x_total", {"op": "a"}, "h").inc()
        reg.counter("neptune_x_total", {"op": "b"}, "h").inc(2)
        assert len(reg) == 2

    def test_kind_conflict_raises(self):
        reg = TelemetryRegistry()
        reg.counter("neptune_x", None, "h")
        with pytest.raises(ValueError):
            reg.gauge("neptune_x", None, "h")

    def test_bounded_memory(self):
        reg = TelemetryRegistry(max_instruments=3)
        for i in range(3):
            reg.counter("neptune_x_total", {"i": str(i)}, "h")
        with pytest.raises(RegistryFull):
            reg.counter("neptune_x_total", {"i": "overflow"}, "h")
        # Existing instruments still resolve past the cap.
        reg.counter("neptune_x_total", {"i": "0"}, "h").inc()

    def test_collect_sorted(self):
        reg = TelemetryRegistry()
        reg.counter("neptune_b_total", None, "h")
        reg.counter("neptune_a_total", None, "h")
        names = [s.name for s in reg.collect()]
        assert names == sorted(names)


# ---------------------------------------------------------------------------
# Prometheus / JSON exposition
# ---------------------------------------------------------------------------

_SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? [^ ]+$"
)


class TestPrometheusExport:
    def _registry(self) -> TelemetryRegistry:
        reg = TelemetryRegistry()
        reg.counter("neptune_packets_total", {"operator": "relay"}, "Packets").inc(5)
        reg.gauge("neptune_depth", None, "Depth").set(1.5)
        h = reg.histogram("neptune_latency_seconds", None, "Latency")
        h.observe(0.002)
        return reg

    def test_every_line_well_formed(self):
        text = to_prometheus(self._registry())
        assert text.endswith("\n")
        for line in text.splitlines():
            if not line or line.startswith("#"):
                continue
            assert _SAMPLE_RE.match(line), line

    def test_help_and_type_once_per_name(self):
        reg = TelemetryRegistry()
        reg.counter("neptune_x_total", {"op": "a"}, "h").inc()
        reg.counter("neptune_x_total", {"op": "b"}, "h").inc()
        text = to_prometheus(reg)
        assert text.count("# TYPE neptune_x_total counter") == 1
        assert text.count("# HELP neptune_x_total") == 1

    def test_histogram_exposition(self):
        text = to_prometheus(self._registry())
        assert 'neptune_latency_seconds_bucket{le="+Inf"} 1' in text
        assert "neptune_latency_seconds_sum" in text
        assert "neptune_latency_seconds_count 1" in text

    def test_label_escaping(self):
        reg = TelemetryRegistry()
        reg.counter("neptune_x_total", {"p": 'a"b\\c\nd'}, "h").inc()
        text = to_prometheus(reg)
        assert r'p="a\"b\\c\nd"' in text


class TestJsonExport:
    def test_snapshot_roundtrips_through_json(self):
        obs = RuntimeObserver(sample_every=1)
        obs.registry.counter("neptune_x_total", None, "h").inc(3)
        obs.event("chaos", "node_killed", site="sim.node")
        data = json.loads(json.dumps(snapshot(obs), default=str))
        assert "neptune_x_total" in [s["name"] for s in data["series"]]
        assert data["events"][0]["category"] == "chaos"
        assert data["events"][0]["name"] == "node_killed"

    def test_snapshot_shape(self):
        obs = RuntimeObserver()
        snap = snapshot(obs)
        assert snap["schema"] == "neptune-telemetry/1"
        assert set(snap) >= {
            "worker", "incarnation", "seq", "ts", "reason", "series", "spans",
            "events", "monitors", "profile", "events_dropped", "spans_dropped",
        }


# ---------------------------------------------------------------------------
# Event timeline
# ---------------------------------------------------------------------------


class TestEventTimeline:
    def test_ring_eviction(self):
        tl = EventTimeline(capacity=4)
        for i in range(10):
            tl.record("runtime", "tick", i=i)
        assert len(tl) == 4
        assert tl.recorded == 10
        assert tl.evicted == 6
        assert [e.attrs["i"] for e in tl.snapshot()] == [6, 7, 8, 9]

    def test_snapshot_filters(self):
        tl = EventTimeline()
        tl.record("chaos", "node_killed", target="w0")
        tl.record("transport", "reconnect", endpoint="x")
        tl.record("chaos", "fault_injected", site="s")
        assert len(tl.snapshot(category="chaos")) == 2
        assert len(tl.snapshot(category="chaos", name="node_killed")) == 1

    def test_counts(self):
        tl = EventTimeline()
        tl.record("buffer", "timer_flush")
        tl.record("buffer", "timer_flush")
        assert tl.counts() == {"buffer.timer_flush": 2}

    def test_timestamps_monotone(self):
        tl = EventTimeline()
        tl.record("a", "x")
        tl.record("a", "y")
        ts = [e.ts for e in tl.snapshot()]
        assert ts == sorted(ts)


# ---------------------------------------------------------------------------
# S1: LatencyRecorder fixes
# ---------------------------------------------------------------------------


class TestLatencyRecorderPercentiles:
    def test_invalid_p_raises_even_with_no_samples(self):
        rec = LatencyRecorder()
        with pytest.raises(ValueError):
            rec.percentile(101)
        with pytest.raises(ValueError):
            rec.percentile(-0.1)

    def test_percentiles_batch_matches_individual(self):
        rec = LatencyRecorder()
        for i in range(100):
            rec.record(i / 1000.0)
        ps = [0.0, 25.0, 50.0, 95.0, 100.0]
        assert rec.percentiles(ps) == [rec.percentile(p) for p in ps]

    def test_percentiles_empty_returns_nans(self):
        out = LatencyRecorder().percentiles([50.0, 99.0])
        assert len(out) == 2 and all(math.isnan(v) for v in out)

    def test_percentiles_validates_all_before_answering(self):
        rec = LatencyRecorder()
        rec.record(1.0)
        with pytest.raises(ValueError):
            rec.percentiles([50.0, 200.0])

    def test_registry_operators_accessor(self):
        reg = MetricsRegistry()
        m = reg.for_operator("relay", 0)
        m.packets_in = 7
        ops = reg.operators()
        assert [(o.operator, o.instance) for o in ops] == [("relay", 0)]
        assert ops[0].packets_in == 7
