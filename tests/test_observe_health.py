"""Health engine: SLO state machines, value extraction, exports, and
the adaptive trace-sampling controller (including its determinism
guarantee)."""

import pytest

from repro.core.graph import StreamProcessingGraph
from repro.observe import (
    SLO,
    AdaptiveSampler,
    HealthEngine,
    RuntimeObserver,
    Tracer,
    default_slos,
    graph_regions,
)
from repro.observe import health
from repro.observe.export import to_prometheus
from repro.observe.health import SLO_KINDS
from repro.util.clock import ManualClock
from repro.workloads import CountingSource, RelayProcessor, VariableRateProcessor


def _observer(clock=None):
    return RuntimeObserver(clock=clock or ManualClock())


class TestSLOValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown SLO kind"):
            SLO("x", "p50_latency", 0.1, operator="a")

    def test_operator_required_except_e2e(self):
        with pytest.raises(ValueError, match="target operator"):
            SLO("x", "p99_latency", 0.1)
        assert SLO("x", "e2e_delay", 0.1).operator is None

    def test_thresholds_and_hysteresis_validated(self):
        with pytest.raises(ValueError):
            SLO("x", "p99_latency", 0.0, operator="a")

    def test_duplicate_names_rejected(self):
        obs = _observer()
        slos = [
            SLO("dup", "p99_latency", 0.1, operator="a"),
            SLO("dup", "p99_latency", 0.2, operator="b"),
        ]
        with pytest.raises(ValueError, match="duplicate"):
            HealthEngine(obs, slos)

    def test_default_slos_cover_operators(self):
        slos = default_slos(["snk", "src"], latency_budget=0.1, e2e_budget=1.0)
        names = [s.name for s in slos]
        assert names == ["snk.p99_latency", "src.p99_latency", "job.e2e_delay"]
        assert all(s.kind in SLO_KINDS for s in slos)


class TestBreachRecoverStateMachine:
    def _engine(self, clock, threshold=0.01):
        obs = _observer(clock)
        gauge = obs.registry.gauge(
            "neptune_operator_batch_latency_seconds",
            {"operator": "relay", "quantile": "p99"},
            "test",
        )
        slo = SLO("relay.p99", "p99_latency", threshold, operator="relay")
        return obs, gauge, HealthEngine(obs, [slo])

    def test_hysteresis_breach_then_recover(self):
        clock = ManualClock()
        obs, gauge, engine = self._engine(clock)
        gauge.set(0.5)  # way over the 10 ms budget
        assert engine.scan_once() == []  # scan 1: warmup
        clock.advance(1.0)
        assert engine.scan_once() == []  # scan 2: bad_scans=1 < FOR_SCANS
        clock.advance(1.0)
        assert engine.scan_once() == [("relay.p99", "breach")]
        assert engine.breached_monitors()[0].slo.name == "relay.p99"
        gauge.set(0.001)
        clock.advance(1.0)
        assert engine.scan_once() == []  # good_scans=1 < CLEAR_SCANS
        clock.advance(1.0)
        assert engine.scan_once() == [("relay.p99", "recover")]
        assert engine.breached_monitors() == []

    def test_transitions_land_on_timeline_with_engine_clock(self):
        clock = ManualClock(start=100.0)
        obs, gauge, engine = self._engine(clock)
        gauge.set(0.5)
        for _ in range(3):
            engine.scan_once()
            clock.advance(1.0)
        breach_events = obs.timeline.snapshot("health", "slo_breach")
        assert len(breach_events) == 1
        assert breach_events[0].ts == 102.0  # third scan's clock reading
        assert breach_events[0].attrs["slo"] == "relay.p99"
        assert breach_events[0].attrs["operator"] == "relay"
        gauge.set(0.001)
        for _ in range(2):
            engine.scan_once()
            clock.advance(1.0)
        recover = obs.timeline.snapshot("health", "slo_recover")
        assert len(recover) == 1
        assert recover[0].attrs["duration"] == pytest.approx(2.0)

    def test_flapping_value_never_breaches(self):
        clock = ManualClock()
        obs, gauge, engine = self._engine(clock)
        for i in range(10):  # alternates: bad_scans never reaches 2
            gauge.set(0.5 if i % 2 == 0 else 0.001)
            engine.scan_once()
            clock.advance(1.0)
        assert engine.breached_monitors() == []
        assert obs.timeline.snapshot("health", "slo_breach") == []

    def test_exports_slo_series(self):
        clock = ManualClock()
        obs, gauge, engine = self._engine(clock)
        gauge.set(0.5)
        for _ in range(3):
            engine.scan_once()
            clock.advance(1.0)
        text = to_prometheus(obs.registry)
        assert 'neptune_slo_breached{slo="relay.p99"} 1' in text
        assert 'neptune_slo_breaches_total{slo="relay.p99"} 1' in text
        assert "neptune_health_scans_total 3" in text
        assert 'neptune_slo_value{slo="relay.p99"}' in text


class TestThroughputFloor:
    def test_rate_is_a_clock_delta(self, monkeypatch):
        monkeypatch.setattr(health, "FOR_SCANS", 1)
        monkeypatch.setattr(health, "CLEAR_SCANS", 1)
        monkeypatch.setattr(health, "WARMUP_SCANS", 0)
        clock = ManualClock()
        obs = _observer(clock)
        counter = obs.registry.counter(
            "neptune_operator_packets_in_total", {"operator": "src"}, "test"
        )
        slo = SLO("src.rate", "throughput_floor", 100.0, operator="src")
        engine = HealthEngine(obs, [slo])
        counter.set_total(0)
        assert engine.scan_once() == []  # first sighting: no delta yet
        clock.advance(1.0)
        counter.set_total(200)  # 200 pkt/s >= 100 floor
        assert engine.scan_once() == []
        clock.advance(1.0)
        counter.set_total(210)  # 10 pkt/s < 100 floor
        assert engine.scan_once() == [("src.rate", "breach")]
        assert engine.monitors[0].last_value == pytest.approx(10.0)


class TestScanRobustness:
    def test_missing_metric_is_not_a_breach(self):
        obs = _observer()
        engine = HealthEngine(
            obs, [SLO("gone.p99", "p99_latency", 0.01, operator="gone")]
        )
        for _ in range(5):
            assert engine.scan_once() == []
        assert engine.breached_monitors() == []

    def test_background_loop_survives_dying_scrape(self):
        obs = RuntimeObserver()

        def explode():
            raise RuntimeError("job torn down")

        engine = HealthEngine(
            obs,
            [SLO("x.p99", "p99_latency", 0.01, operator="x")],
            scrape=explode,
            interval=0.005,
        )
        engine.start()
        engine.start()  # idempotent
        import time

        deadline = time.monotonic() + 2.0
        while engine.scan_errors < 2 and time.monotonic() < deadline:
            time.sleep(0.005)
        engine.stop()
        assert engine.scan_errors >= 2
        assert engine.scans == 0  # every scan died before counting


class TestAdaptiveSampler:
    def test_validation(self):
        with pytest.raises(ValueError, match="base sampling rate"):
            AdaptiveSampler(Tracer(sample_every=0))

    def test_raise_then_multiplicative_decay(self):
        tracer = Tracer(sample_every=8)
        sampler = AdaptiveSampler(tracer)
        sampler.observe(1, {"src"})
        assert sampler.rate_for("src") == 1
        assert tracer.rates() == {"src": 1}
        sampler.observe(2, set())  # healthy: 1 -> 4
        assert sampler.rate_for("src") == 4
        sampler.observe(3, set())  # 4*4=16 caps at base 8 -> override dropped
        assert sampler.rate_for("src") == 8
        assert tracer.rates() == {}
        assert [d for d in sampler.decisions] == [
            (1, "src", 1),
            (2, "src", 4),
            (3, "src", 8),
        ]

    def test_steady_state_emits_no_decisions(self):
        sampler = AdaptiveSampler(Tracer(sample_every=8))
        sampler.observe(1, {"src"})
        assert sampler.observe(2, {"src"}) == []  # already hot

    def test_decisions_recorded_on_timeline_and_registry(self):
        obs = _observer()
        sampler = AdaptiveSampler(Tracer(sample_every=8))
        sampler.observe(1, {"src"}, obs)
        sampler.observe(2, set(), obs)
        names = [e.name for e in obs.timeline.snapshot("health")]
        assert names == ["sampling_raised", "sampling_decayed"]
        text = to_prometheus(obs.registry)
        assert 'neptune_trace_sample_every{source="src"} 4' in text

    def test_overridden_source_does_not_perturb_global_sequence(self):
        tracer = Tracer(sample_every=2)
        baseline = [tracer.maybe_sample("other") is not None for _ in range(6)]
        tracer2 = Tracer(sample_every=2)
        tracer2.set_rate("hot", 1)
        pattern = []
        for _ in range(6):
            tracer2.maybe_sample("hot")
            pattern.append(tracer2.maybe_sample("other") is not None)
        assert pattern == baseline

    def test_engine_drives_sampler_from_breached_regions(self, monkeypatch):
        monkeypatch.setattr(health, "FOR_SCANS", 1)
        monkeypatch.setattr(health, "WARMUP_SCANS", 0)
        clock = ManualClock()
        obs = _observer(clock)
        tracer = Tracer(sample_every=8)
        gauge = obs.registry.gauge(
            "neptune_operator_batch_latency_seconds",
            {"operator": "sink", "quantile": "p99"},
            "test",
        )
        engine = HealthEngine(
            obs,
            [SLO("sink.p99", "p99_latency", 0.01, operator="sink")],
            sampler=AdaptiveSampler(tracer),
            regions={"sink": ["src"]},
        )
        gauge.set(0.5)
        engine.scan_once()
        assert tracer.rates() == {"src": 1}


class TestDeterminism:
    """Identical breach schedules must yield identical decisions."""

    SCHEDULE = [
        {"a"}, {"a", "b"}, {"b"}, set(), set(), {"a"}, set(), set(), set(), set()
    ]

    @pytest.fixture(autouse=True)
    def _hot_every_two(self, monkeypatch):
        monkeypatch.setattr(health, "HOT_EVERY", 2)

    def _run(self):
        tracer = Tracer(sample_every=16)
        sampler = AdaptiveSampler(tracer)
        rate_trail = []
        for scan, hot in enumerate(self.SCHEDULE, start=1):
            sampler.observe(scan, hot)
            rate_trail.append((sampler.rate_for("a"), sampler.rate_for("b")))
        return sampler.decisions, rate_trail, tracer.rates()

    def test_two_runs_identical(self):
        first = self._run()
        second = self._run()
        assert first == second
        assert first[0]  # schedule produced real decisions
        assert first[2] == {}  # everything decayed back to base


class TestGraphRegions:
    def test_transitive_sources(self):
        g = StreamProcessingGraph("regions")
        g.add_source("src", lambda: CountingSource(total=1))
        g.add_source("src2", lambda: CountingSource(total=1))
        g.add_processor("relay", RelayProcessor)
        g.add_processor("sink", lambda: VariableRateProcessor())
        g.link("src", "relay").link("src2", "relay").link("relay", "sink")
        regions = graph_regions(g)
        assert regions["sink"] == ["src", "src2"]
        assert regions["relay"] == ["src", "src2"]
        assert regions["src"] == ["src"]
