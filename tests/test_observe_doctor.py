"""`repro doctor` root-cause correlation: episode pairing, cascade
closure, cause ranking, the stalled-sink acceptance scenario, and the
chaos/SLO shared-clock regression (NEPTUNE §III-B4 backpressure made
diagnosable)."""

import json
import threading
import time

import pytest

from repro.chaos.plan import FaultAction
from repro.chaos.simfaults import SimFault, schedule_sim_faults
from repro.core import NeptuneConfig, NeptuneRuntime, StreamProcessingGraph
from repro.observe import (
    SLO,
    HealthEngine,
    RuntimeObserver,
    bridge,
    diagnose,
    diagnose_observer,
    render_report,
)
from envelopes import envelope as _snap
from envelopes import event as _event
from repro.observe import health
from repro.observe.collector import ClusterCollector
from repro.observe.doctor import DOCTOR_SCHEMA, _bare, _gate_cascades, _pair_episodes
from repro.observe.export import snapshot
from repro.observe.profiler import SamplingProfiler
from repro.sim import SimClock, Simulator
from repro.workloads import CountingSource, RelayProcessor, VariableRateProcessor


class TestHelpers:
    def test_bare_strips_instance_suffix(self):
        assert _bare("sink[0]") == "sink"
        assert _bare("sink[12]") == "sink"
        assert _bare("sink") == "sink"
        assert _bare("v2[beta]") == "v2[beta]"  # only numeric suffixes

    def test_pair_episodes_fifo_per_key(self):
        events = [
            _event(1.0, "flowcontrol", "gate_closed", operator="a"),
            _event(2.0, "flowcontrol", "gate_closed", operator="a"),
            _event(3.0, "flowcontrol", "gate_opened", operator="a", gated_seconds=2.0),
            _event(4.0, "flowcontrol", "gate_closed", operator="b"),
        ]
        eps = _pair_episodes(events, "gate_closed", "gate_opened", "operator")
        assert [(e.start, e.end) for e in eps] == [(1.0, 3.0), (2.0, None), (4.0, None)]
        # Closing attrs merge into the paired episode without clobbering.
        assert eps[0].attrs["gated_seconds"] == 2.0

    def test_gate_cascades_transitive_closure(self):
        events = [
            _event(1.0, "f", "gate_closed", operator="sink[0]", throttles=["relay"]),
            _event(1.5, "f", "gate_closed", operator="relay[0]", throttles=["src"]),
        ]
        eps = _pair_episodes(events, "gate_closed", "gate_opened", "operator")
        cascades = _gate_cascades(eps)
        assert cascades["sink"] == {"sink", "relay", "src"}
        assert cascades["relay"] == {"relay", "src"}


class TestDiagnoseSynthetic:
    def _breach_events(self):
        return [
            _event(
                6.0, "health", "slo_breach",
                slo="relay.p99", kind="p99_latency", operator="relay",
                value=0.5, threshold=0.01,
            ),
            _event(
                9.0, "health", "slo_recover",
                slo="relay.p99", kind="p99_latency", operator="relay",
                value=0.001, duration=3.0,
            ),
        ]

    def test_healthy_when_no_breaches(self):
        report = diagnose(_snap([_event(1.0, "runtime", "batch_executed")]))
        assert report["schema"] == DOCTOR_SCHEMA
        assert report["healthy"] is True
        assert report["breaches"] == []
        assert report["root_cause"] is None

    def test_cascade_outranks_fault_and_transport(self):
        events = self._breach_events() + [
            _event(5.0, "chaos", "node_killed", target="nodeB"),
            _event(
                5.5, "flowcontrol", "gate_closed",
                operator="sink[0]", throttles=["relay"], buffered_bytes=9000,
            ),
            _event(
                8.5, "flowcontrol", "gate_opened",
                operator="sink[0]", gated_seconds=3.0,
            ),
            _event(5.8, "transport", "send_stall", endpoint="127.0.0.1:7001"),
        ]
        report = diagnose(_snap(events))
        assert report["healthy"] is False
        (ep,) = report["breaches"]
        assert ep["slo"] == "relay.p99"
        assert ep["duration"] == pytest.approx(3.0)
        kinds = [c["type"] for c in ep["causes"]]
        # The gate covers the breach window: score 3.0 beats the
        # fault's 3.0/(1+1.0)=1.5 and the stall's 1.5/(1+0.2)=1.25.
        assert kinds[0] == "backpressure_cascade"
        assert ep["causes"][0]["operator"] == "sink"
        assert "throttled 'relay'" in ep["causes"][0]["detail"]
        assert [c["rank"] for c in ep["causes"]] == [1, 2, 3]
        assert report["root_cause"]["operator"] == "sink"
        assert report["gate_episodes"] == 1
        assert report["chaos_events"] == 1

    def test_most_downstream_gate_wins_the_cascade(self):
        # Sink gates -> relay blocks -> relay's own gate closes.  The
        # relay gate is a symptom; the sink must stay the root cause
        # even though 'relay' sorts before 'sink' alphabetically.
        events = self._breach_events() + [
            _event(
                5.5, "flowcontrol", "gate_closed",
                operator="sink[0]", throttles=["relay"],
            ),
            _event(
                5.6, "flowcontrol", "gate_closed",
                operator="relay[0]", throttles=["src"],
            ),
        ]
        (ep,) = diagnose(_snap(events))["breaches"]
        cascade = [c for c in ep["causes"] if c["type"] == "backpressure_cascade"]
        assert [c["operator"] for c in cascade] == ["sink", "relay"]
        assert "itself throttled downstream" in cascade[1]["detail"]

    def test_gate_on_unrelated_branch_is_not_blamed(self):
        events = self._breach_events() + [
            _event(
                5.5, "flowcontrol", "gate_closed",
                operator="other[0]", throttles=["elsewhere"],
            ),
        ]
        (ep,) = diagnose(_snap(events))["breaches"]
        # 'relay' is not in other's cascade -> no cascade candidate.
        assert all(c["type"] != "backpressure_cascade" for c in ep["causes"])

    def test_unrecovered_breach_runs_to_horizon(self):
        events = [
            self._breach_events()[0],
            _event(12.0, "runtime", "batch_executed"),
        ]
        (ep,) = diagnose(_snap(events))["breaches"]
        assert ep["end"] is None
        assert ep["duration"] is None

    def test_max_causes_truncates(self):
        events = self._breach_events() + [
            _event(5.0 + i * 0.1, "chaos", "node_killed", target=f"n{i}")
            for i in range(5)
        ]
        (ep,) = diagnose(_snap(events), max_causes=2)["breaches"]
        assert len(ep["causes"]) == 2

    def test_drop_warnings(self):
        report = diagnose(_snap([], events_dropped=7, spans_dropped=3))
        assert any("7 events" in w for w in report["warnings"])
        assert any("3 spans" in w for w in report["warnings"])

    def test_report_is_json_serializable_and_renders(self):
        events = self._breach_events() + [
            _event(5.0, "chaos", "node_killed", target="nodeB"),
        ]
        report = diagnose(_snap(events, events_dropped=2))
        json.dumps(report)  # CLI --json contract
        text = render_report(report)
        assert "1 SLO breach episode(s)" in text
        assert "injected_fault" in text
        assert "root cause:" in text
        assert "warning:" in text

    def test_render_healthy(self):
        assert "no SLO breach" in render_report(diagnose(_snap([])))


class TestStalledSinkAcceptance:
    """ISSUE acceptance: a chaos-stalled sink must be named root cause
    of the upstream SLO breaches in the doctor's JSON report."""

    def test_doctor_names_stalled_sink(self, monkeypatch):
        monkeypatch.setattr(health, "FOR_SCANS", 1)
        monkeypatch.setattr(health, "WARMUP_SCANS", 0)
        sleep_holder = [0.004]  # stalled sink: 4 ms/packet
        obs = RuntimeObserver(sample_every=8)
        g = StreamProcessingGraph(
            "stalled-sink",
            config=NeptuneConfig(
                buffer_capacity=2048,
                buffer_max_delay=0.002,
                inbound_high_watermark=8192,
            ),
        )
        g.add_source("src", lambda: CountingSource(total=600, payload_size=512))
        g.add_processor("relay", RelayProcessor)
        g.add_processor("sink", lambda: VariableRateProcessor(sleep_holder))
        # The sink sleeps: the textbook chain=False.  On a thread of its
        # own its backlog builds behind a gate, which is what is diagnosed.
        g.link("src", "relay", chain=False).link("relay", "sink", chain=False)
        slos = [
            SLO("relay.p99_latency", "p99_latency", 1e-6, operator="relay"),
            SLO("sink.backlog", "buffer_occupancy", 4096.0, operator="sink"),
        ]
        with NeptuneRuntime(observer=obs) as rt:
            handle = rt.submit(g)
            engine = HealthEngine(
                obs,
                slos,
                scrape=lambda: bridge.scrape_job(obs.registry, handle),
            )
            # A 20 Hz scan loop over the live job: each timed-out wait
            # leaves it running.
            deadline = time.monotonic() + 60.0
            while not handle.await_completion(timeout=0.05):
                assert time.monotonic() < deadline, "stalled-sink job did not drain"
                engine.scan_once()
            engine.scan_once()

        gates = obs.timeline.snapshot("flowcontrol", "gate_closed")
        assert gates, "sink inbound channel never crossed the high watermark"
        assert any(
            _bare(str(e.attrs["operator"])) == "sink"
            and "relay" in [_bare(str(t)) for t in e.attrs.get("throttles", [])]
            for e in gates
        )
        assert any(m.breaches > 0 for m in engine.monitors)

        report = diagnose_observer(obs)
        json.dumps(report, default=str)  # what `repro doctor --json` emits
        assert report["healthy"] is False
        cascade_causes = [
            c
            for ep in report["breaches"]
            for c in ep["causes"]
            if c["type"] == "backpressure_cascade"
        ]
        assert cascade_causes, "no backpressure cause correlated with the breaches"
        top_cascade = max(cascade_causes, key=lambda c: c["score"])
        assert top_cascade["operator"] == "sink"
        assert report["root_cause"]["type"] == "backpressure_cascade"
        assert report["root_cause"]["operator"] == "sink"

    def test_post_hoc_dump_diagnoses_identically(self):
        # What --dump writes, --from-dump replays through a fresh
        # collector: neither the JSON round-trip nor the merge may
        # change the verdict, and the same file's other view (`profile
        # --from-dump` of a `doctor --dump`) is the profile it was
        # written with.
        obs = RuntimeObserver()
        obs.profiler = SamplingProfiler()
        parked = threading.Event()  # a thread for the one sweep to see
        thread = threading.Thread(target=parked.wait, name="neptune-parked")
        thread.start()
        obs.profiler._sample_once(0.01)
        parked.set()
        thread.join()
        obs.event(
            "flowcontrol", "gate_closed", operator="sink[0]", throttles=["relay"]
        )
        obs.event(
            "health", "slo_breach",
            slo="relay.p99_latency", kind="p99_latency", operator="relay",
            value=0.5, threshold=0.01,
        )
        written = snapshot(obs)
        live = diagnose(written)
        replayed = ClusterCollector.replay(
            [json.loads(json.dumps(written, default=str))]
        ).snapshot()
        dumped = diagnose(replayed)
        assert dumped["root_cause"]["operator"] == "sink"
        assert dumped["root_cause"] == live["root_cause"]
        assert dumped["breaches"] == live["breaches"]
        assert written["profile"]["operators"], "the sweep saw no thread"
        for label, info in written["profile"]["operators"].items():
            merged = replayed["profile"]["operators"][label]
            assert {k: merged[k] for k in info} == info


class TestComputeBound:
    """The profiler-backed cause class: a breach with no overlapping
    gate episode and one operator dominating sampled CPU is diagnosed
    compute_bound, naming operator, worker, and hottest frame."""

    def _profile_series(self, rows, frames=()):
        series = [
            {
                "name": "neptune_profile_cpu_seconds_total",
                "kind": "counter",
                "help": "h",
                "labels": {"operator": op, "kind": "operator", "worker": worker},
                "value": cpu,
            }
            for worker, op, cpu in rows
        ]
        series += [
            {
                "name": "neptune_profile_top_frame_samples_total",
                "kind": "counter",
                "help": "h",
                "labels": {"operator": op, "frame": frame, "worker": worker},
                "value": count,
            }
            for worker, op, frame, count in frames
        ]
        return series

    def _breach_events(self, operator="spin"):
        return [
            _event(
                6.0, "health", "slo_breach",
                slo=f"{operator}.p99_latency", kind="p99_latency",
                operator=operator, value=0.04, threshold=0.01,
            ),
            _event(
                9.0, "health", "slo_recover",
                slo=f"{operator}.p99_latency", kind="p99_latency",
                operator=operator, value=0.001, duration=3.0,
            ),
        ]

    def test_hot_operator_without_gate_is_compute_bound(self):
        snap = _snap(
            self._breach_events(),
            series=self._profile_series(
                [("1", "spin", 5.0), ("0", "relay", 0.5)],
                frames=[("1", "spin", "operators.py:SpinProcessor._spin", 120)],
            ),
        )
        report = diagnose(snap)
        (ep,) = report["breaches"]
        (cause,) = [c for c in ep["causes"] if c["type"] == "compute_bound"]
        assert cause["operator"] == "spin"
        assert cause["worker"] == "1"
        assert "91% of sampled CPU" in cause["detail"]
        assert "top frame operators.py:SpinProcessor._spin" in cause["detail"]
        assert report["root_cause"]["type"] == "compute_bound"

    def test_overlapping_gate_suppresses_compute_bound(self):
        events = self._breach_events() + [
            _event(5.5, "flowcontrol", "gate_closed", operator="spin[0]",
                   throttles=["src"]),
            _event(8.5, "flowcontrol", "gate_opened", operator="spin[0]",
                   gated_seconds=3.0),
        ]
        snap = _snap(
            events, series=self._profile_series([("1", "spin", 5.0)])
        )
        (ep,) = diagnose(snap)["breaches"]
        assert all(c["type"] != "compute_bound" for c in ep["causes"])

    def test_share_below_threshold_is_not_compute_bound(self):
        snap = _snap(
            self._breach_events(),
            series=self._profile_series(
                [("1", "spin", 1.0), ("0", "relay", 1.0)]
            ),
        )
        (ep,) = diagnose(snap)["breaches"]
        assert all(c["type"] != "compute_bound" for c in ep["causes"])

    def test_non_execute_dominant_stage_suppresses(self):
        spans = [
            {"operator": "spin[0]", "stage": "flush", "start": 6.0, "end": 8.0},
            {"operator": "spin[0]", "stage": "execute", "start": 6.0, "end": 6.1},
        ]
        snap = _snap(
            self._breach_events(),
            series=self._profile_series([("1", "spin", 5.0)]),
            spans=spans,
        )
        (ep,) = diagnose(snap)["breaches"]
        assert all(c["type"] != "compute_bound" for c in ep["causes"])

    def test_runtime_kind_series_do_not_count(self):
        # Only kind="operator" CPU participates: a busy transport reader
        # must not be promoted to a compute-bound operator diagnosis.
        series = self._profile_series([("1", "spin", 0.1)])
        series.append(
            {
                "name": "neptune_profile_cpu_seconds_total",
                "kind": "counter",
                "help": "h",
                "labels": {
                    "operator": "neptune-tcp-reader",
                    "kind": "runtime",
                    "worker": "1",
                },
                "value": 50.0,
            }
        )
        (ep,) = diagnose(_snap(self._breach_events(), series=series))["breaches"]
        causes = [c for c in ep["causes"] if c["type"] == "compute_bound"]
        # spin holds 100% of *operator* CPU; the runtime series is inert.
        assert causes and causes[0]["operator"] == "spin"

    def test_render_names_compute_bound(self):
        snap = _snap(
            self._breach_events(),
            series=self._profile_series([("1", "spin", 5.0)]),
        )
        text = render_report(diagnose(snap))
        assert "compute_bound" in text


class TestChaosClockUnification:
    """Satellite 6: injected faults and SLO breaches share one clock."""

    def test_sim_fault_stamped_at_virtual_fire_time(self):
        sim = Simulator()
        obs = RuntimeObserver(clock=SimClock(sim))
        link_state = []
        schedule_sim_faults(
            sim,
            [SimFault(at=5.0, action=FaultAction.PARTITION, target="uplink")],
            links={"uplink": link_state.append},
            observer=obs,
        )
        sim.run(until=10.0)
        assert link_state == [True]
        (event,) = obs.timeline.snapshot("chaos")
        assert event.name == "link_partitioned"
        assert event.ts == 5.0  # virtual time, not wall time
        assert event.attrs["sim_time"] == 5.0

    def test_doctor_attributes_breach_to_sim_fault(self):
        sim = Simulator()
        obs = RuntimeObserver(clock=SimClock(sim))
        schedule_sim_faults(
            sim,
            [SimFault(at=5.0, action=FaultAction.PARTITION, target="uplink")],
            links={"uplink": lambda up: None},
            observer=obs,
        )
        # A breach the partition plausibly caused, 1s later on the SAME
        # virtual clock (a real-clock observer would stamp the fault
        # with wall seconds and the lookback window would never match).
        sim.call_at(
            6.0,
            lambda: obs.event(
                "health", "slo_breach",
                slo="relay.p99_latency", kind="p99_latency", operator="relay",
                value=0.5, threshold=0.01,
            ),
        )
        sim.run(until=10.0)
        report = diagnose_observer(obs)
        assert report["root_cause"]["type"] == "injected_fault"
        assert report["root_cause"]["operator"] == "uplink"
        assert "1.000s before breach" in report["root_cause"]["detail"]

    def test_simclock_refuses_to_sleep(self):
        clock = SimClock(Simulator())
        assert clock.now() == 0.0
        with pytest.raises(RuntimeError, match="yield the delay"):
            clock.sleep(1.0)
