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

from repro.bench.harness import PROFILES, BenchProfile, BenchResult
from repro.bench.scenarios import run_scenarios

__all__ = [
    "PROFILES",
    "BenchProfile",
    "BenchResult",
    "run_scenarios",
]
