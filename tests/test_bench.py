"""Tests for the `repro bench` harness and its regression guardrail."""

import dataclasses
import json
import multiprocessing.process
import subprocess
from pathlib import Path

import pytest

from repro.bench import scenarios
from repro.bench import (
    BENCH_SCHEMA,
    PROFILES,
    build_report,
    calibration_score,
    check_regression,
    run_scenarios,
    write_report,
)
from repro.bench.harness import BenchResult, percentile
from repro.bench.report import load_report
from repro.bench.scenarios import PLANES, ArmRun, Plane, run_plane
from repro.cli import main

BASELINE = Path(__file__).resolve().parents[1] / "BENCH_hotpath.json"


def _report(calibration, encode=1000.0, speedup=3.0, relay=500.0, appends=800.0):
    return {
        "schema": BENCH_SCHEMA,
        "profile": "quick",
        "calibration_score": calibration,
        "scenarios": {
            "codec": {
                "encode_compiled_msgs_per_sec": encode,
                "decode_compiled_msgs_per_sec": encode * 2,
                "encode_speedup": speedup,
                "decode_speedup": speedup,
            },
            "buffer": {"appends_per_sec": appends},
            "relay": {"packets_per_sec": relay},
        },
    }


class TestSmokeProfile:
    def test_runs_and_writes_valid_report(self, tmp_path, monkeypatch):
        # Tier-1 never spawns: the smoke tier must not even try.
        def no_spawn(*args, **kwargs):
            raise AssertionError("smoke tier tried to spawn a process")

        monkeypatch.setattr(subprocess, "Popen", no_spawn)
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", no_spawn)
        results = run_scenarios(PROFILES["smoke"])
        assert [r.failures for r in results] == [[]] * len(results)
        report = build_report(results, "smoke", calibration_score())
        path = tmp_path / "bench.json"
        write_report(report, path)
        data = load_report(path)
        assert data["schema"] == BENCH_SCHEMA
        assert data["profile"] == "smoke"
        assert data["calibration_score"] > 0
        codec = data["scenarios"]["codec"]
        for key in (
            "encode_compiled_msgs_per_sec",
            "decode_compiled_msgs_per_sec",
            "encode_legacy_msgs_per_sec",
            "decode_legacy_msgs_per_sec",
        ):
            assert codec[key] > 0
        # The point of the compiled codec: meaningfully faster than the
        # per-field reference on a fixed-width-dominated schema.
        assert codec["encode_speedup"] > 1.2
        assert codec["decode_speedup"] > 1.2
        # The keyed, compressed link's kernels are measured too.
        for key in (
            "encode_var_msgs_per_sec",
            "decode_var_msgs_per_sec",
            "lz4_compress_mb_per_sec",
            "lz4_decompress_mb_per_sec",
        ):
            assert codec[key] > 0
        assert 0.0 < codec["lz4_ratio"] < 0.5  # a low-entropy batch
        relay = data["scenarios"]["relay"]
        assert relay["packets_per_sec"] > 0
        assert relay["p99_latency_sec"] >= relay["p50_latency_sec"] > 0
        buffer = data["scenarios"]["buffer"]
        assert buffer["appends_per_sec"] > 0
        assert buffer["spare_allocs"] <= 2  # double-buffer pool held
        health = data["scenarios"]["health"]
        assert health["packets_per_sec_monitors_off"] > 0
        assert health["packets_per_sec_monitors_on"] > 0
        assert health["health_scans"] >= 0
        # Smoke runs are too short to bound the ratio, but it must at
        # least be a sane fraction (the in-scenario <3% assert guards
        # the quick/full tiers).
        assert 0.0 <= health["overhead_frac"] < 1.0
        # Every plane row ran (un-gated), the real-process pair did
        # not, and the three sections the checked-in baseline carries
        # still have every key it has.
        planes = [p.name for p in PLANES if not p.spawns]
        assert planes == [
            "observe", "health", "sanitizer", "collector", "profiler", "policy"
        ]
        baseline = load_report(BASELINE)["scenarios"]
        for name in planes:
            section = data["scenarios"][name]
            assert all(section[key] > 0 for key in section if "_sec_" in key)
            assert set(baseline.get(name, {})) <= set(section)
        assert "collector_cluster" not in data["scenarios"]
        assert "cluster_scaling" not in data["scenarios"]
        # A report never regresses against itself.
        assert check_regression(data, data) == []


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
        row = _row(
            _scripted([ArmRun(1.0)] * 4, ons),
            keys={"duty_frac": "overhead_frac", "ticks": "scans"},
        )
        m = run_plane(row, GATED).metrics
        assert m["lag"] == 3.0
        assert "overhead_frac" in m and "scans" in m
        assert "duty_frac" not in m and "ticks" not in m

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


class TestEveryVerdictIsReported:
    def test_one_red_scenario_does_not_hide_the_next(self, monkeypatch):
        def lost(profile):
            raise RuntimeError("relay lost packets: 1/2")

        hot = _row(_scripted([ArmRun(1.0)] * 4, [_on(duty=0.04)] * 4))
        slow = _row(_scripted([ArmRun(1.0)] * 4, [_on(1.5)] * 4))
        rows = (
            dataclasses.replace(hot, name="hot"),
            dataclasses.replace(slow, name="slow"),
        )
        monkeypatch.setattr(scenarios, "PLANES", rows)
        for name in ("codec", "buffer"):
            empty = BenchResult(name)
            monkeypatch.setattr(scenarios, f"scenario_{name}", lambda p, r=empty: r)
        monkeypatch.setattr(scenarios, "scenario_relay", lost)
        results = run_scenarios(GATED)
        names = [r.name for r in results]
        assert names == ["codec", "buffer", "relay", "hot", "slow"]
        assert [line for r in results for line in r.failures] == [
            "relay: relay lost packets: 1/2",
            "hot: cost duty 4.00% worst-of-3; budget < 3%",
            "slow: A/B +50.0%; budget < 25%",
        ]

    def test_cli_prints_gates_and_regressions_together(
        self, tmp_path, monkeypatch, capsys
    ):
        baseline = tmp_path / "baseline.json"
        write_report(_report(1.0, relay=500.0), baseline)
        results = [
            BenchResult("relay", {"packets_per_sec": 100.0}),
            BenchResult("hot", {"duty_frac": 0.04}, ["hot: over"], "hot verdict: FAIL"),
            BenchResult("slow", {}, ["slow: over"], "slow verdict: FAIL"),
        ]
        monkeypatch.setattr("repro.bench.run_scenarios", lambda profile: results)
        monkeypatch.setattr("repro.bench.calibration_score", lambda: 1.0)
        rc = main(
            ["bench", "--profile", "smoke", "--out", "", "--check", str(baseline)]
        )
        out = capsys.readouterr().out
        assert rc == 1
        assert "hot verdict: FAIL" in out and "slow verdict: FAIL" in out
        assert out.index("GATE FAILURES") < out.index("REGRESSION")
        assert "  hot: over" in out and "  slow: over" in out
        assert "relay.packets_per_sec" in out
        # Gates alone fail the run too, with no baseline to check.
        assert main(["bench", "--profile", "smoke", "--out", ""]) == 1


class TestRegressionCheck:
    def test_within_tolerance_passes(self):
        baseline = _report(1.0, encode=1000.0)
        current = _report(1.0, encode=950.0)
        assert check_regression(current, baseline, tolerance=0.10) == []

    def test_throughput_drop_fails(self):
        baseline = _report(1.0, encode=1000.0)
        current = _report(1.0, encode=800.0)
        failures = check_regression(current, baseline, tolerance=0.10)
        assert any("encode_compiled_msgs_per_sec" in f for f in failures)

    def test_speedup_ratio_drop_fails(self):
        baseline = _report(1.0, speedup=3.0)
        current = _report(1.0, speedup=1.1)
        failures = check_regression(current, baseline, tolerance=0.10)
        assert any("encode_speedup" in f for f in failures)

    def test_lower_is_better_ratio_fails_when_it_rises(self):
        baseline = _report(1.0)
        baseline["scenarios"]["codec"]["lz4_ratio"] = 0.25
        current = _report(1.0)
        current["scenarios"]["codec"]["lz4_ratio"] = 0.20  # better: passes
        assert check_regression(current, baseline, tolerance=0.10) == []
        current["scenarios"]["codec"]["lz4_ratio"] = 0.30
        failures = check_regression(current, baseline, tolerance=0.10)
        assert any("lz4_ratio" in f and "above baseline" in f for f in failures)
        del current["scenarios"]["codec"]["lz4_ratio"]
        failures = check_regression(current, baseline, tolerance=0.10)
        assert any("lz4_ratio: missing" in f for f in failures)

    def test_calibration_normalization_absorbs_machine_speed(self):
        # Same code on a machine half as fast: raw throughput halves,
        # but so does the calibration score — no false regression.
        baseline = _report(2.0, encode=2000.0, relay=1000.0, appends=1600.0)
        current = _report(1.0, encode=1000.0, relay=500.0, appends=800.0)
        assert check_regression(current, baseline, tolerance=0.10) == []

    def test_missing_guarded_metric_fails(self):
        baseline = _report(1.0)
        current = _report(1.0)
        del current["scenarios"]["relay"]["packets_per_sec"]
        failures = check_regression(current, baseline)
        assert any("relay.packets_per_sec" in f for f in failures)

    def test_metric_new_in_current_is_ignored(self):
        baseline = _report(1.0)
        del baseline["scenarios"]["buffer"]["appends_per_sec"]
        current = _report(1.0)
        assert check_regression(current, baseline) == []

    def test_load_report_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"hello": "world"}))
        with pytest.raises(ValueError, match="neptune-bench"):
            load_report(path)


class TestPercentile:
    def test_empty_is_zero(self):
        assert percentile([], 0.99) == 0.0

    def test_bounds(self):
        samples = [float(i) for i in range(100)]
        assert percentile(samples, 0.0) == 0.0
        assert percentile(samples, 1.0) == 99.0
        assert percentile(samples, 0.5) == pytest.approx(50.0, abs=1.0)


class TestCli:
    def test_bench_writes_and_checks(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        assert main(["bench", "--profile", "smoke", "--out", str(out)]) == 0
        assert out.exists()
        # Checking a fresh run against itself with a generous tolerance
        # must pass (wide tolerance keeps this robust to CI jitter).
        rc = main(
            [
                "bench",
                "--profile",
                "smoke",
                "--out",
                "",
                "--check",
                str(out),
                "--tolerance",
                "0.9",
            ]
        )
        assert rc == 0
        assert "no regression" in capsys.readouterr().out

    def test_bench_check_flags_inflated_baseline(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        assert main(["bench", "--profile", "smoke", "--out", str(out)]) == 0
        inflated = load_report(out)
        for metrics in inflated["scenarios"].values():
            for key in list(metrics):
                metrics[key] = metrics[key] * 100.0
        baseline = tmp_path / "inflated.json"
        write_report(inflated, baseline)
        rc = main(
            ["bench", "--profile", "smoke", "--out", "", "--check", str(baseline)]
        )
        assert rc == 1
        assert "REGRESSION" in capsys.readouterr().out
