"""Guardrail: observability with tracing disabled must be (nearly) free.

Runs the in-process relay pipeline A/B — no observer at all vs an
attached :class:`RuntimeObserver` with ``sample_every=0`` (tracing off,
timeline on) — interleaved over several trials, and compares the
minimum wall time of each arm.  Min-of-N is the standard noise filter
for wall-clock micro-comparisons: the minimum is the run least
disturbed by the machine, so the delta isolates the code under test.

Exit code 0 iff the observed arm regresses by less than
``OBSERVE_GUARDRAIL_PCT`` percent (default 3, the PR's acceptance
budget).  Tunables via environment:

- ``OBSERVE_GUARDRAIL_PACKETS`` (default 30000)
- ``OBSERVE_GUARDRAIL_TRIALS``  (default 5)
- ``OBSERVE_GUARDRAIL_PCT``     (default 3.0)
"""

from __future__ import annotations

import os
import sys
import time

from repro.core import NeptuneConfig, NeptuneRuntime, StreamProcessingGraph
from repro.observe import RuntimeObserver
from repro.workloads import CollectingSink, CountingSource, RelayProcessor

PACKETS = int(os.environ.get("OBSERVE_GUARDRAIL_PACKETS", "30000"))
TRIALS = int(os.environ.get("OBSERVE_GUARDRAIL_TRIALS", "5"))
MAX_REGRESSION_PCT = float(os.environ.get("OBSERVE_GUARDRAIL_PCT", "3.0"))


def run_once(observer: RuntimeObserver | None) -> float:
    """One full pipeline run; returns wall seconds."""
    store: list = []
    g = StreamProcessingGraph(
        "observe-guardrail",
        config=NeptuneConfig(buffer_capacity=64 * 1024, buffer_max_delay=0.005),
    )
    g.add_source("src", lambda: CountingSource(total=PACKETS))
    g.add_processor("relay", RelayProcessor)
    g.add_processor("sink", lambda: CollectingSink(store))
    g.link("src", "relay").link("relay", "sink")
    t0 = time.perf_counter()
    with NeptuneRuntime(observer=observer) as rt:
        handle = rt.submit(g)
        if not handle.await_completion(timeout=120):
            raise RuntimeError("guardrail pipeline did not drain")
    elapsed = time.perf_counter() - t0
    if len(store) != PACKETS:
        raise RuntimeError(f"expected {PACKETS} packets, got {len(store)}")
    return elapsed


def main() -> int:
    # Warm both arms so imports/JIT-ish first-run costs hit neither.
    run_once(None)
    run_once(RuntimeObserver(sample_every=0))

    baseline: list[float] = []
    observed: list[float] = []
    for trial in range(TRIALS):
        # Interleave so slow machine drift penalizes both arms equally.
        baseline.append(run_once(None))
        observed.append(run_once(RuntimeObserver(sample_every=0)))
        print(
            f"trial {trial + 1}/{TRIALS}: "
            f"baseline={baseline[-1]:.3f}s observed={observed[-1]:.3f}s",
            flush=True,
        )

    best_base = min(baseline)
    best_obs = min(observed)
    pct = (best_obs - best_base) / best_base * 100.0
    print(
        f"min-of-{TRIALS}: baseline={best_base:.3f}s "
        f"observer(sampling=0)={best_obs:.3f}s regression={pct:+.2f}% "
        f"(budget {MAX_REGRESSION_PCT:.1f}%)"
    )
    if pct > MAX_REGRESSION_PCT:
        print("FAIL: tracing-disabled overhead exceeds budget", file=sys.stderr)
        return 1
    print("OK: tracing-disabled overhead within budget")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
