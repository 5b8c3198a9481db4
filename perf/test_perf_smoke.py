"""Smoke tests of the benchmark itself (``pytest perf/``; not tier-1).

The auditor must count planted faults, and a seconds-long pass over the
whole matrix must emit every workload and metric that BENCHMARK.json
names, with its unit and direction, and reconcile its ledger exactly.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from perf.audit import audit, summaries_equal

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_audit_counts_a_dropped_a_duplicated_and_a_swapped_packet():
    offered = {0: [float(i) for i in range(10)]}
    clean = [(0, i, float(i)) for i in range(10)]
    assert audit(offered, clean).failed == 0

    dropped = audit(offered, clean[:4] + clean[5:])
    assert (dropped.lost, dropped.failed, dropped.delivered) == (1, 1, 9)

    duplicated = audit(offered, clean[:5] + [clean[4]] + clean[5:])
    assert (duplicated.duplicated, duplicated.failed) == (1, 1)

    swapped = audit(offered, clean[:3] + [clean[4], clean[3]] + clean[5:])
    assert (swapped.reordered, swapped.failed) == (1, 1)

    corrupted = audit(offered, clean[:9] + [(0, 9, -1.0)])
    assert (corrupted.corrupted, corrupted.failed) == (1, 1)


def test_audit_weighs_summaries_by_window_and_compares_means_relatively():
    offered = {"sensor-00": [(16, 40.0), (16, 40.125)], "sensor-01": [(16, 20.5)]}
    arrivals = [
        ("sensor-00", 0, (16, 40.0 * (1 + 1e-12))),
        ("sensor-01", 0, (16, 20.5)),
        ("sensor-00", 1, (16, 40.126)),
    ]
    result = audit(offered, arrivals, weight=16, equal=summaries_equal)
    assert (result.attempted, result.delivered, result.corrupted) == (48, 48, 16)


@pytest.fixture(scope="module")
def smoke_output() -> str:
    done = subprocess.run(
        [sys.executable, "-m", "perf.run", "--smoke", "--ledger"],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout[-2000:]
    return done.stdout


def test_smoke_emits_every_workload_and_metric_of_benchmark_json(smoke_output):
    lines = smoke_output.splitlines()
    results = [json.loads(line) for line in lines if line.startswith("{")]
    workloads = [w["name"] for w in SPEC["workloads"]]
    # Per workload: the timed pass's result, then the traced pass's.
    assert len(results) == 2 * len(workloads)
    for name in workloads:
        assert NAME.fullmatch(name)
        assert any(line.startswith(f"{name}:") for line in lines)
        assert any(line.startswith(f"{name} traced pass:") for line in lines)
    for i, result in enumerate(results):
        metrics = SPEC["end_to_end"] if i % 2 == 0 else SPEC["per_layer"]
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == {m["name"] for m in metrics}
        for metric in metrics:
            assert NAME.fullmatch(metric["name"])
            assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        shown = [
            line
            for line in lines
            if line.split()[:1] == [metric["name"]] and "is better" in line
        ]
        assert len(shown) == len(workloads), metric["name"]
        for line in shown:
            assert f" {metric['unit']} " in line
            assert f"({metric['better']} is better" in line


def test_ledger_rows_and_unattributed_sum_to_cpu_per_packet(smoke_output):
    for workload in SPEC["workloads"]:
        path = ROOT / "perf" / "out" / f"ledger-{workload['name']}.json"
        ledger = json.loads(path.read_text())
        rows = sum(row["ns_per_packet"] for row in ledger["rows"])
        unattributed = ledger["metrics"]["runtime.unattributed_ns_per_packet"]
        assert rows + unattributed == pytest.approx(
            ledger["cpu_us_per_packet"] * 1e3, rel=1e-12
        )
        trace = ROOT / "perf" / "out" / f"trace-{workload['name']}.jsonl"
        spans = [json.loads(line) for line in trace.read_text().splitlines()]
        assert spans and all({"name", "start", "end", "parent"} <= set(s) for s in spans)
