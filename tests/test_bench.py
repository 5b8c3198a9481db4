"""Tests for `repro bench`: the overhead gate, where every row reaches
its verdict inside one run."""

import dataclasses
import multiprocessing.process
import subprocess

import pytest

from repro.bench import PROFILES, run_scenarios, scenarios
from repro.bench.harness import BenchResult, percentile
from repro.bench.scenarios import PLANES, ArmRun, Plane, run_plane
from repro.cli import main


class TestSmokeProfile:
    def test_runs_every_row_ungated_without_spawning(self, monkeypatch):
        # Tier-1 never spawns: the smoke tier must not even try.
        def no_spawn(*args, **kwargs):
            raise AssertionError("smoke tier tried to spawn a process")

        monkeypatch.setattr(subprocess, "Popen", no_spawn)
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", no_spawn)
        results = run_scenarios(PROFILES["smoke"])
        assert [r.failures for r in results] == [[]] * len(results)
        # Every in-process plane row ran, un-gated; the real-process
        # rows (collector_cluster, cluster_scaling) did not.
        assert [r.name for r in results] == [
            "observe", "health", "sanitizer", "collector", "profiler", "policy"
        ]
        for result in results:
            assert result.verdict.endswith("not gated on this tier")
            assert result.metrics["wall_sec_off"] > 0
            assert result.metrics["wall_sec_on"] > 0
        health = {r.name: r.metrics for r in results}["health"]
        assert health["packets_per_sec_off"] > 0
        assert health["ticks"] >= 0
        # Smoke runs are too short to bound the ratio, but it must at
        # least be a sane fraction.
        assert 0.0 <= health["duty_frac"] < 1.0


def _scripted(offs, ons):
    """An arm that replays ``offs``/``ons`` in order (the first of each
    is the warm-up) and logs the order it was called in."""
    runs = {False: list(offs), True: list(ons)}
    calls = []

    def arm(profile, on):
        calls.append(on)
        return runs[on].pop(0)

    arm.calls = calls
    return arm


def _row(arm, **columns):
    return Plane(
        "fake", arm, off="off", on="on", cost="cost", tick="ticks", **columns
    )


def _on(wall=1.0, duty=0.01, ticks=20, **extra):
    return ArmRun(wall, duty * wall, ticks, extra)


#: A gated tier with the smoke tier's sizes: nothing here runs a job.
GATED = dataclasses.replace(PROFILES["smoke"], name="gated", repeats=3)


class TestPlaneProtocol:
    """`run_plane` on scripted arms: every verdict, no job, no clock."""

    def test_warms_both_arms_then_interleaves_behind_a_collect(self, monkeypatch):
        collects = []
        monkeypatch.setattr(scenarios.gc, "collect", lambda: collects.append(1))
        arm = _scripted([ArmRun(1.0)] * 4, [_on()] * 4)
        result = run_plane(_row(arm), GATED)
        assert arm.calls == [False, True] * 4
        assert len(collects) == 8
        assert result.failures == []
        assert result.verdict.endswith(": OK")
        assert "(min of 3)" in result.verdict

    def test_min_of_n_wall_and_its_rates(self):
        arm = _scripted(
            [ArmRun(9.0), ArmRun(1.2), ArmRun(1.0), ArmRun(1.1)],
            [_on(9.0), _on(1.3), _on(1.4), _on(1.1)],
        )
        m = run_plane(_row(arm), GATED).metrics
        assert m["wall_sec_off"] == 1.0 and m["wall_sec_on"] == 1.1
        assert m["ab_overhead_frac"] == pytest.approx(0.10)
        assert m["packets_per_sec_off"] == GATED.relay_packets / 1.0

    def test_duty_over_budget_fails(self):
        arm = _scripted([ArmRun(1.0)] * 4, [_on(duty=0.031)] * 4)
        result = run_plane(_row(arm), GATED)
        assert len(result.failures) == 1
        assert "cost duty 3.10% worst-of-3" in result.failures[0]
        assert "budget < 3%" in result.failures[0]
        assert result.verdict.endswith(": FAIL")

    def test_statistic_is_the_rows(self):
        ons = [_on(), _on(duty=0.01), _on(duty=0.05), _on(duty=0.02)]
        worst = run_plane(_row(_scripted([ArmRun(1.0)] * 4, ons)), GATED)
        best = run_plane(
            _row(_scripted([ArmRun(1.0)] * 4, ons), statistic="min"), GATED
        )
        assert worst.metrics["duty_frac"] == pytest.approx(0.05)
        assert [f for f in worst.failures if "worst-of-3" in f]
        assert best.metrics["duty_frac"] == pytest.approx(0.01)
        assert best.failures == []

    def test_ab_over_its_backstop_fails(self):
        arm = _scripted([ArmRun(1.0)] * 4, [_on(1.26)] * 4)
        result = run_plane(_row(arm), GATED)
        assert result.failures == ["fake: A/B +26.0%; budget < 25%"]
        tight = run_plane(
            _row(
                _scripted([ArmRun(1.0)] * 4, [_on(1.04)] * 4),
                ab_budget=0.03,
                duty_budget=None,
                min_ticks=0,
            ),
            GATED,
        )
        assert tight.failures == ["fake: A/B +4.0%; budget < 3%"]
        assert "duty_frac" not in tight.metrics and "ticks" not in tight.metrics

    def test_heal_under_its_floor_fails(self):
        def row(on_wall):
            arm = _scripted([ArmRun(5.0)] * 4, [_on(on_wall)] * 4)
            return _row(arm, ab_budget=None, heal_floor=1.25, min_ticks=1)

        healed = run_plane(row(1.0), GATED)
        assert healed.failures == []
        assert healed.metrics["speedup"] == pytest.approx(5.0)
        flat = run_plane(row(4.5), GATED)
        assert flat.failures == ["fake: heal 1.11x; floor 1.25x"]

    def test_too_few_ticks_is_run_too_short(self):
        ons = [_on(), _on(ticks=30), _on(ticks=9), _on(ticks=30)]
        result = run_plane(_row(_scripted([ArmRun(1.0)] * 4, ons)), GATED)
        assert result.metrics["ticks"] == 9
        assert result.failures == [
            "fake: 9 ticks; needs >= 10, else run too short"
        ]

    def test_extras_report_the_worst_repeat_under_the_rows_names(self):
        ons = [_on(), _on(lag=1.0), _on(lag=3.0), _on(lag=2.0)]
        m = run_plane(_row(_scripted([ArmRun(1.0)] * 4, ons)), GATED).metrics
        assert m["lag"] == 3.0
        assert {"wall_sec_off", "wall_sec_on", "duty_frac", "ticks"} <= set(m)

    def test_smoke_tier_measures_but_does_not_gate(self):
        arm = _scripted([ArmRun(1.0)] * 2, [_on(2.0, duty=0.5, ticks=0)] * 2)
        result = run_plane(_row(arm), PROFILES["smoke"])
        assert result.failures == []
        assert result.metrics["duty_frac"] == pytest.approx(0.5)
        assert "not gated" in result.verdict

    def test_the_table_holds_the_budgets_each_plane_had(self):
        assert {
            p.name: (p.statistic, p.duty_budget, p.ab_budget, p.heal_floor, p.min_ticks)
            for p in PLANES
        } == {
            "observe": ("worst", None, 0.03, None, 0),
            "health": ("worst", 0.03, 0.25, None, 10),
            "sanitizer": ("worst", 0.03, 0.25, None, 10),
            "collector": ("worst", 0.03, 0.25, None, 10),
            "collector_cluster": ("min", 0.03, 0.25, None, 10),
            "profiler": ("min", 0.03, 0.25, None, 10),
            "policy": ("worst", 0.03, None, 1.25, 1),
        }
        assert [p.name for p in PLANES if p.spawns] == ["collector_cluster"]
        # Every in-process arm is the chained relay, the profiler's too.
        assert {p.name: p.packets for p in PLANES} == {
            "observe": "relay_packets",
            "health": "relay_packets",
            "sanitizer": "relay_packets",
            "collector": "buffered_packets",
            "collector_cluster": "buffered_packets",
            "profiler": "relay_packets",
            "policy": "policy_packets",
        }


class TestEveryVerdictIsReported:
    def test_one_red_scenario_does_not_hide_the_next(self, monkeypatch):
        def lost(profile, on):
            raise RuntimeError("relay lost packets: 1/2")

        hot = _row(_scripted([ArmRun(1.0)] * 4, [_on(duty=0.04)] * 4))
        slow = _row(_scripted([ArmRun(1.0)] * 4, [_on(1.5)] * 4))
        rows = (
            dataclasses.replace(hot, name="lost", arm=lost),
            dataclasses.replace(hot, name="hot"),
            dataclasses.replace(slow, name="slow"),
        )
        monkeypatch.setattr(scenarios, "PLANES", rows)
        results = run_scenarios(GATED)
        assert [r.name for r in results] == ["lost", "hot", "slow"]
        assert [line for r in results for line in r.failures] == [
            "lost: relay lost packets: 1/2",
            "hot: cost duty 4.00% worst-of-3; budget < 3%",
            "slow: A/B +50.0%; budget < 25%",
        ]

    @pytest.mark.parametrize("rates", [{1: 100.0, 4: 300.0}, {1: 100.0, 4: 200.0}])
    def test_every_row_of_a_gated_tier_reaches_a_verdict(self, monkeypatch, rates):
        # Every real row, its arms scripted, on a tier that spawns: each
        # result judges itself in this run - a verdict, or a failure.
        rows = tuple(
            dataclasses.replace(
                p, arm=_scripted([ArmRun(1.0)] * 4, [_on(0.5, ticks=20)] * 4)
            )
            for p in PLANES
        )
        monkeypatch.setattr(scenarios, "PLANES", rows)
        monkeypatch.setattr(scenarios, "_cluster_rate", lambda p, n: rates[n])
        tier = dataclasses.replace(GATED, cluster_worker_counts=(1, 4))
        results = run_scenarios(tier)
        assert [r.name for r in results] == [p.name for p in PLANES] + [
            "cluster_scaling"
        ]
        for result in results:
            assert result.verdict.endswith((": OK", ": FAIL")) or result.failures
        scaling = results[-1]
        assert scaling.metrics["scaleup_w4"] == rates[4] / rates[1]
        if rates[4] / rates[1] >= scenarios.SCALEUP_FLOOR:
            assert scaling.failures == [] and scaling.verdict.endswith(": OK")
        else:
            assert scaling.failures == [
                "cluster_scaling: 100 pkts/s at 1 workers -> 200 at 4; "
                "scale-up 2.00x (floor 2.5x)"
            ]

    def test_cli_prints_every_verdict_then_every_gate_failure(
        self, monkeypatch, capsys
    ):
        results = [
            BenchResult("calm", {"wall_sec_off": 1.0}, [], "calm verdict: OK"),
            BenchResult("hot", {"duty_frac": 0.04}, ["hot: over"], "hot verdict: FAIL"),
            BenchResult("slow", {}, ["slow: over"], "slow verdict: FAIL"),
        ]
        monkeypatch.setattr("repro.bench.run_scenarios", lambda profile: results)
        rc = main(["bench", "--profile", "smoke"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "calm verdict: OK" in out
        assert out.index("slow verdict: FAIL") < out.index("GATE FAILURES")
        assert "  hot: over" in out and "  slow: over" in out
        monkeypatch.setattr("repro.bench.run_scenarios", lambda profile: results[:1])
        assert main(["bench", "--profile", "smoke"]) == 0


class TestPercentile:
    def test_empty_is_zero(self):
        assert percentile([], 0.99) == 0.0

    def test_bounds(self):
        samples = [float(i) for i in range(100)]
        assert percentile(samples, 0.0) == 0.0
        assert percentile(samples, 1.0) == 99.0
        assert percentile(samples, 0.5) == pytest.approx(50.0, abs=1.0)


class TestCli:
    def test_bench_smoke_runs_every_row(self, capsys):
        assert main(["bench", "--profile", "smoke"]) == 0
        out = capsys.readouterr().out
        assert out.count("not gated on this tier") == 6
        assert "GATE FAILURES" not in out

    @pytest.mark.parametrize(
        "option", [["--out", "b.json"], ["--check", "b.json"], ["--tolerance", "0.1"]]
    )
    def test_bench_takes_no_baseline(self, option):
        # Only --profile: nothing is written, nothing is compared.
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--profile", "smoke", *option])
        assert exc.value.code == 2
