"""The elasticity policy engine: doctor → policy handoff, the decision
table, cooldown/cap suppression, recovery reverts, and the byte-identical
action-log determinism contract."""

import json

import pytest

from repro.observe import (
    PolicyConfig,
    PolicyEngine,
    ReconfigAction,
    RuntimeObserver,
    action_to_changes,
    apply_action,
    diagnose,
)
from envelopes import envelope as _snap
from envelopes import event as _event
from repro.observe.export import snapshot


def stalled_sink_snapshot():
    """A seeded stalled-sink episode: the sink's inbound gate closes,
    throttles the relay, and the relay's p99 SLO breaches — the doctor
    must blame the sink's backpressure cascade."""
    return _snap(
        [
            _event(
                5.0, "flowcontrol", "gate_closed",
                operator="sink[0]", throttles=["relay"],
            ),
            _event(
                6.0, "health", "slo_breach",
                slo="relay.p99_latency", kind="p99_latency", operator="relay",
                value=0.5, threshold=0.01,
            ),
        ]
    )


def no_cause_snapshot():
    """A breach with nothing on the timeline to blame."""
    return _snap(
        [
            _event(
                6.0, "health", "slo_breach",
                slo="relay.p99_latency", kind="p99_latency", operator="relay",
                value=0.5, threshold=0.01,
            ),
        ]
    )


class TestDoctorHandoff:
    def test_stalled_sink_root_cause_drives_exactly_one_retune(self):
        report = diagnose(stalled_sink_snapshot())
        assert report["root_cause"]["type"] == "backpressure_cascade"
        assert report["root_cause"]["operator"] == "sink"
        engine = PolicyEngine()
        actions = engine.observe(10, [("relay.p99_latency", "breach")], report)
        assert len(actions) == 1
        action = actions[0]
        assert action.kind == "retune"
        assert action.operator == "sink"
        assert action.params["where"] == "into"
        assert action.params["max_delay"] == engine.config.retune_max_delay
        assert action.params["capacity"] == engine.config.retune_capacity
        # The same breach re-reported next scan is inside the cooldown:
        # exactly one retune total.
        again = engine.observe(11, [("relay.p99_latency", "breach")], report)
        assert again == []
        assert len(engine.decisions) == 1
        assert engine.suppressed == 1

    def test_breach_without_attributable_cause_takes_no_action(self):
        report = diagnose(no_cause_snapshot())
        assert report["root_cause"] is None
        observer = RuntimeObserver()
        engine = PolicyEngine()
        actions = engine.observe(
            10, [("relay.p99_latency", "breach")], report, observer
        )
        assert actions == []
        assert engine.decisions == []
        assert engine.no_cause == 1
        assert engine.warnings and "no attributable root cause" in engine.warnings[0]
        events = [
            e for e in snapshot(observer)["events"] if e["category"] == "policy"
        ]
        assert any(e["name"] == "no_action" for e in events)

    def test_policy_action_lands_on_the_timeline(self):
        observer = RuntimeObserver()
        engine = PolicyEngine()
        report = diagnose(stalled_sink_snapshot())
        engine.observe(10, [("relay.p99_latency", "breach")], report, observer)
        events = [
            e for e in snapshot(observer)["events"] if e["category"] == "policy"
        ]
        assert any(
            e["name"] == "action" and e["attrs"]["kind"] == "retune" for e in events
        )


class TestDecisionTable:
    def _report(self, cause_type, operator="sink", worker=None, stage=None):
        episode = {
            "slo": "s.p99_latency",
            "operator": operator,
            "causes": [
                {
                    "type": cause_type,
                    "operator": operator,
                    "worker": worker,
                    "score": 3.0,
                    "detail": "synthetic",
                    "rank": 1,
                }
            ],
            "dominant_stage": stage,
        }
        return {
            "healthy": False,
            "breaches": [episode],
            "root_cause": dict(episode["causes"][0]),
        }

    def test_execute_bound_breach_scales_then_reverts_on_recover(self):
        report = self._report(
            "backpressure_cascade",
            worker=1,
            stage={"stage": "execute", "seconds": 1.0, "fraction": 0.9},
        )
        engine = PolicyEngine()
        actions = engine.observe(5, [("s.p99_latency", "breach")], report)
        assert [a.kind for a in actions] == ["scale"]
        assert actions[0].params["workers_delta"] == engine.config.scale_step
        assert actions[0].worker == 1
        revert = engine.observe(40, [("s.p99_latency", "recover")], report)
        assert [a.kind for a in revert] == ["scale"]
        assert revert[0].params["workers_delta"] == -engine.config.scale_step
        assert revert[0].cause == "recovered"

    def test_buffer_bound_breach_retunes_not_scales(self):
        report = self._report(
            "backpressure_cascade",
            stage={"stage": "flush", "seconds": 1.0, "fraction": 0.9},
        )
        actions = PolicyEngine().observe(5, [("s.p99_latency", "breach")], report)
        assert [a.kind for a in actions] == ["retune"]

    def test_compute_bound_breach_scales_then_reverts_on_recover(self):
        # The profiler's attribution is direct evidence the operator is
        # burning CPU, so the policy scales without needing a dominant
        # execute stage from the traces.
        report = self._report("compute_bound", operator="spin", worker="1")
        engine = PolicyEngine()
        actions = engine.observe(5, [("s.p99_latency", "breach")], report)
        assert [a.kind for a in actions] == ["scale"]
        assert actions[0].operator == "spin"
        assert actions[0].worker == 1  # engine normalizes worker ids to int
        assert actions[0].params["workers_delta"] == engine.config.scale_step
        assert "dominates sampled CPU" in actions[0].reason
        revert = engine.observe(40, [("s.p99_latency", "recover")], report)
        assert [a.kind for a in revert] == ["scale"]
        assert revert[0].params["workers_delta"] == -engine.config.scale_step
        assert revert[0].cause == "recovered"

    def test_injected_fault_with_worker_migrates(self):
        report = self._report("injected_fault", worker="2")
        actions = PolicyEngine().observe(5, [("s.p99_latency", "breach")], report)
        assert [a.kind for a in actions] == ["migrate"]
        assert actions[0].params == {"operator": "sink", "from_worker": 2}

    def test_injected_fault_without_worker_warns(self):
        report = self._report("injected_fault", worker=None)
        engine = PolicyEngine()
        assert engine.observe(5, [("s.p99_latency", "breach")], report) == []
        assert engine.warnings and "cannot migrate" in engine.warnings[0]

    def test_transport_cause_is_not_actionable(self):
        report = self._report("transport")
        engine = PolicyEngine()
        assert engine.observe(5, [("s.p99_latency", "breach")], report) == []
        assert engine.warnings and "not actionable" in engine.warnings[0]

    def test_per_operator_cap_is_a_lifetime_brake(self):
        report = self._report("backpressure_cascade")
        engine = PolicyEngine(PolicyConfig(cooldown_scans=0, max_actions_per_operator=2))
        for scan in range(5):
            engine.observe(scan, [("s.p99_latency", "breach")], report)
        assert len(engine.decisions) == 2
        assert engine.suppressed == 3

    def test_status_summarizes(self):
        report = self._report("backpressure_cascade")
        engine = PolicyEngine()
        engine.observe(5, [("s.p99_latency", "breach")], report)
        status = engine.status()
        assert status["actions"] == 1
        assert status["actions_by_kind"] == {"retune": 1}
        assert status["last_actions"][0]["kind"] == "retune"
        assert status["scans"] == 1


class TestDeterminism:
    def _drive(self):
        """One synthetic breach/recover schedule over several scans."""
        engine = PolicyEngine(PolicyConfig(cooldown_scans=3))
        stalled = diagnose(stalled_sink_snapshot())
        empty = diagnose(no_cause_snapshot())
        schedule = [
            (1, [], stalled),
            (2, [("relay.p99_latency", "breach")], stalled),
            (3, [("relay.p99_latency", "breach")], stalled),
            (4, [], stalled),
            (5, [("other.p99_latency", "breach")], empty),
            (6, [("relay.p99_latency", "recover")], stalled),
            (9, [("relay.p99_latency", "breach")], stalled),
        ]
        for scan, transitions, report in schedule:
            engine.observe(scan, transitions, report)
        return engine

    def test_identical_runs_produce_byte_identical_action_logs(self):
        log_a = self._drive().action_log()
        log_b = self._drive().action_log()
        assert log_a == log_b
        assert "\n".join(log_a).encode() == "\n".join(log_b).encode()
        assert log_a  # the schedule does produce actions

    def test_action_line_is_canonical_json(self):
        action = ReconfigAction(
            scan=3,
            kind="retune",
            operator="sink",
            slo="s",
            cause="backpressure_cascade",
            reason="r",
            params={"b": 2, "a": 1},
        )
        line = action.as_line()
        assert json.loads(line)["params"] == {"a": 1, "b": 2}
        # Sorted keys, fixed separators: canonical bytes.
        assert line.index('"cause"') < line.index('"kind"') < line.index('"scan"')
        assert ", " not in line


class _FakeTarget:
    def __init__(self):
        self.calls = []

    def reconfigure(self, changes):
        self.calls.append(changes)
        return {"worker": 0, "applied": [{"kind": "noop"}]}


class TestApply:
    def test_action_to_changes_retune_and_scale(self):
        retune = ReconfigAction(
            scan=1, kind="retune", operator="sink", slo="s", cause="c", reason="r",
            params={"operator": "sink", "where": "into", "max_delay": 0.05,
                    "capacity": 1024},
        )
        assert action_to_changes(retune) == {
            "retune": {
                "operator": "sink",
                "where": "into",
                "max_delay": 0.05,
                "capacity": 1024,
            }
        }
        scale = ReconfigAction(
            scan=1, kind="scale", operator="sink", slo="s", cause="c", reason="r",
            params={"workers_delta": 2},
        )
        assert action_to_changes(scale) == {"scale": {"workers_delta": 2}}

    def test_migrate_is_not_worker_local(self):
        migrate = ReconfigAction(
            scan=1, kind="migrate", operator="sink", slo="s", cause="c", reason="r",
            params={"operator": "sink", "from_worker": 0},
        )
        with pytest.raises(ValueError, match="not a worker-local"):
            action_to_changes(migrate)

    def test_apply_action_calls_reconfigure(self):
        target = _FakeTarget()
        action = ReconfigAction(
            scan=1, kind="scale", operator="sink", slo="s", cause="c", reason="r",
            params={"workers_delta": 1},
        )
        report = apply_action(target, action)
        assert target.calls == [{"scale": {"workers_delta": 1}}]
        assert report["applied"] == [{"kind": "noop"}]


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"cooldown_scans": -1},
            {"max_actions_per_operator": 0},
            {"retune_max_delay": 0.0},
            {"retune_capacity": 0},
            {"scale_step": 0},
            {"execute_stage_fraction": 0.0},
            {"execute_stage_fraction": 1.5},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            PolicyConfig(**kwargs)
