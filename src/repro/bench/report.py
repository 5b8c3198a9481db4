"""The ``neptune-bench/1`` JSON report and its regression checker.

Report shape (see DESIGN.md §10)::

    {
      "schema": "neptune-bench/1",
      "profile": "quick",
      "calibration_score": 2.4e7,        # reference-loop iters/sec
      "scenarios": {
        "codec":  {"encode_compiled_msgs_per_sec": ..., ...},
        "buffer": {"appends_per_sec": ..., ...},
        "relay":  {"packets_per_sec": ..., "p99_latency_sec": ..., ...}
      }
    }

``check_regression`` compares calibration-normalized throughputs (so a
baseline produced on a fast laptop is still meaningful on a slow CI
runner) and raw speedup ratios, failing any metric that dropped more
than ``tolerance`` below the baseline.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.bench.harness import BenchResult

BENCH_SCHEMA = "neptune-bench/1"

#: Throughput metrics under the CI guardrail, compared after dividing
#: by the report's calibration score (machine-speed normalization).
GUARDED_THROUGHPUT: tuple[tuple[str, str], ...] = (
    ("codec", "encode_compiled_msgs_per_sec"),
    ("codec", "decode_compiled_msgs_per_sec"),
    ("codec", "encode_var_msgs_per_sec"),
    ("codec", "decode_var_msgs_per_sec"),
    ("codec", "lz4_compress_mb_per_sec"),
    ("codec", "lz4_decompress_mb_per_sec"),
    ("buffer", "appends_per_sec"),
    ("relay", "packets_per_sec"),
)

#: Dimensionless ratios under the guardrail, compared directly.
GUARDED_RATIOS: tuple[tuple[str, str], ...] = (
    ("codec", "encode_speedup"),
    ("codec", "decode_speedup"),
    ("cluster_scaling", "scaleup_w4"),
    ("policy", "heal_speedup"),
)

#: Dimensionless ratios where lower is better: a regression is a rise.
GUARDED_CEILINGS: tuple[tuple[str, str], ...] = (("codec", "lz4_ratio"),)


def build_report(
    results: list[BenchResult], profile: str, calibration: float
) -> dict[str, Any]:
    """Assemble the ``neptune-bench/1`` report dict."""
    return {
        "schema": BENCH_SCHEMA,
        "profile": profile,
        "calibration_score": calibration,
        "scenarios": {r.name: dict(sorted(r.metrics.items())) for r in results},
    }


def write_report(report: dict[str, Any], path: str | Path) -> None:
    """Write ``report`` as stable, diff-friendly JSON."""
    Path(path).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")


def load_report(path: str | Path) -> dict[str, Any]:
    """Load and minimally validate a benchmark report."""
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict) or data.get("schema") != BENCH_SCHEMA:
        raise ValueError(f"{path}: not a {BENCH_SCHEMA} report")
    return data


def _metric(report: dict[str, Any], scenario: str, metric: str) -> float | None:
    scenarios = report.get("scenarios")
    if not isinstance(scenarios, dict):
        return None
    value = scenarios.get(scenario, {}).get(metric)
    return float(value) if isinstance(value, (int, float)) else None


def check_regression(
    current: dict[str, Any], baseline: dict[str, Any], tolerance: float = 0.10
) -> list[str]:
    """Return one failure line per guarded metric that regressed.

    A throughput metric regresses when its calibration-normalized value
    falls more than ``tolerance`` below the baseline's; a ratio metric
    when its raw value does (or, for ``GUARDED_CEILINGS``, rises more
    than ``tolerance`` above it).  A guarded metric missing from
    ``current`` is itself a failure (a scenario silently vanishing
    must not pass).
    """
    failures: list[str] = []
    cur_cal = float(current.get("calibration_score", 0.0)) or 1.0
    base_cal = float(baseline.get("calibration_score", 0.0)) or 1.0
    checks: list[tuple[str, str, float, float]] = []
    for scenario, metric in GUARDED_THROUGHPUT:
        base = _metric(baseline, scenario, metric)
        cur = _metric(current, scenario, metric)
        if base is None:
            continue  # baseline predates the metric: nothing to hold
        if cur is None:
            failures.append(f"{scenario}.{metric}: missing from current run")
            continue
        checks.append((scenario, metric, cur / cur_cal, base / base_cal))
    for scenario, metric in GUARDED_RATIOS + GUARDED_CEILINGS:
        base = _metric(baseline, scenario, metric)
        cur = _metric(current, scenario, metric)
        if base is None:
            continue
        if cur is None:
            failures.append(f"{scenario}.{metric}: missing from current run")
            continue
        checks.append((scenario, metric, cur, base))
    for scenario, metric, cur_norm, base_norm in checks:
        if (scenario, metric) in GUARDED_CEILINGS:
            ceiling = base_norm * (1.0 + tolerance)
            if cur_norm > ceiling:
                rise = 100.0 * (cur_norm / base_norm - 1.0) if base_norm else 0.0
                failures.append(
                    f"{scenario}.{metric}: {rise:.1f}% above baseline "
                    f"({cur_norm:.4g} > ceiling {ceiling:.4g})"
                )
            continue
        floor = base_norm * (1.0 - tolerance)
        if cur_norm < floor:
            drop = 100.0 * (1.0 - cur_norm / base_norm) if base_norm else 0.0
            failures.append(
                f"{scenario}.{metric}: {drop:.1f}% below baseline "
                f"(normalized {cur_norm:.4g} < floor {floor:.4g})"
            )
    return failures
