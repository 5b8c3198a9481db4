"""Hot-path benchmark harness behind ``repro bench``.

The paper's headline claims are throughput numbers (§III-B: buffering,
batched scheduling, object reuse exist to make the small-packet path
fast), so the repo measures itself continuously: pinned scenarios over
the serialize → buffer → flush → dispatch path produce a
machine-readable ``BENCH_hotpath.json`` that CI diffs against a
checked-in baseline with a ±10% guardrail.

Layout
------
- :mod:`repro.bench.harness` — profiles, timing loops, and the
  machine-speed calibration score that makes cross-machine regression
  checks meaningful.
- :mod:`repro.bench.scenarios` — the pinned scenarios (codec
  encode/decode throughput, buffer flush rate, end-to-end relay
  packets/sec with p50/p99 latency vs the ``max_delay`` bound) and the
  overhead gate: one table of observability/analysis planes as
  plane-off/plane-on arms, and the one A/B protocol that holds each to
  its duty, A/B and heal budgets.
- :mod:`repro.bench.report` — the ``neptune-bench/1`` JSON schema,
  writer, and the regression checker CI runs.
"""

from repro.bench.harness import (
    PROFILES,
    BenchProfile,
    BenchResult,
    calibration_score,
)
from repro.bench.report import (
    BENCH_SCHEMA,
    build_report,
    check_regression,
    write_report,
)
from repro.bench.scenarios import run_scenarios

__all__ = [
    "BENCH_SCHEMA",
    "PROFILES",
    "BenchProfile",
    "BenchResult",
    "build_report",
    "calibration_score",
    "check_regression",
    "run_scenarios",
    "write_report",
]
