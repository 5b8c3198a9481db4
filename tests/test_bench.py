"""Tests for the `repro bench` harness and its regression guardrail."""

import json

import pytest

from repro.bench import (
    BENCH_SCHEMA,
    PROFILES,
    build_report,
    calibration_score,
    check_regression,
    run_scenarios,
    write_report,
)
from repro.bench.harness import percentile
from repro.bench.report import load_report
from repro.cli import main


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
    def test_runs_and_writes_valid_report(self, tmp_path):
        results = run_scenarios(PROFILES["smoke"])
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
        # A report never regresses against itself.
        assert check_regression(data, data) == []


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
