"""The overhead gate behind ``repro bench``.

Every row reaches its verdict inside one run: the observability and
analysis planes as plane-off/plane-on arms held to their duty, A/B and
heal budgets, and ``cluster_scaling`` held to its scale-up floor.
Nothing is compared against a stored baseline; end-to-end throughput,
latency and bandwidth are measured by ``perf/`` (``BENCHMARK.json``).

Layout
------
- :mod:`repro.bench.harness` — profiles and the result record.
- :mod:`repro.bench.scenarios` — the plane table, the one A/B protocol
  that judges it, and ``cluster_scaling``.
"""

from __future__ import annotations

from typing import Any

from repro.util.lazy import lazy_export

# Imported on first use: ``perf``'s operators take ``harness.percentile``
# and nothing of the scenarios.
_EXPORTS = {
    "PROFILES": "repro.bench.harness",
    "BenchProfile": "repro.bench.harness",
    "BenchResult": "repro.bench.harness",
    "run_scenarios": "repro.bench.scenarios",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> Any:
    return lazy_export(__name__, _EXPORTS, name)
