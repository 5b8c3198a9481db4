"""Guardrail: a scanning health engine must cost < 3% of a job's time.

Runs the in-process relay pipeline A/B — observer attached but no
health engine vs the same observer with a background
:class:`HealthEngine` scanning SLO monitors at 10 Hz — interleaved
over several trials.  The SLO budgets are deliberately generous so no
monitor ever breaches: the guardrail bounds the cost of *watching*,
not of reacting.

Two verdicts, because they answer different questions:

- **Duty cycle** (asserted at ``HEALTH_GUARDRAIL_PCT``, default 3%):
  CPU seconds of the scanning thread inside ``scan_once``
  (``scan_cpu_seconds``) over the monitored run's wall time.  The
  engine does nothing between scans, so this is its entire cost,
  measured causally — stable even on noisy shared runners.  The wall
  seconds inside ``scan_once`` are printed beside it: they add the
  scan thread's waits for the GIL behind the busy workers, one switch
  interval of which is half a percent of a one-second run.
- **A/B wall clock** (asserted at ``HEALTH_GUARDRAIL_AB_PCT``, default
  25%): min-of-N monitored vs bare wall time.  Its noise floor on CI
  hardware (±10%) sits an order of magnitude above the duty-cycle
  budget, so it only backstops catastrophic regressions — e.g. scan
  work accidentally moving onto the hot path, which the duty cycle
  alone would not see.

Tunables via environment:

- ``HEALTH_GUARDRAIL_PACKETS``  (default 200000: a trial has to last
  ten scan intervals at the engine's speed)
- ``HEALTH_GUARDRAIL_TRIALS``   (default 5)
- ``HEALTH_GUARDRAIL_PCT``      (default 3.0)
- ``HEALTH_GUARDRAIL_AB_PCT``   (default 25.0)
- ``HEALTH_GUARDRAIL_INTERVAL`` (default 0.1 seconds)
"""

from __future__ import annotations

import gc
import os
import sys
import time

from repro.core import NeptuneConfig, NeptuneRuntime, StreamProcessingGraph
from repro.observe import HealthEngine, RuntimeObserver, bridge, default_slos
from repro.workloads import CollectingSink, CountingSource, RelayProcessor

PACKETS = int(os.environ.get("HEALTH_GUARDRAIL_PACKETS", "200000"))
TRIALS = int(os.environ.get("HEALTH_GUARDRAIL_TRIALS", "5"))
MAX_DUTY_PCT = float(os.environ.get("HEALTH_GUARDRAIL_PCT", "3.0"))
MAX_AB_PCT = float(os.environ.get("HEALTH_GUARDRAIL_AB_PCT", "25.0"))
SCAN_INTERVAL = float(os.environ.get("HEALTH_GUARDRAIL_INTERVAL", "0.1"))


def run_once(monitored: bool) -> tuple[float, float, float, int]:
    """One pipeline run; returns (wall seconds, scan wall seconds,
    scan CPU seconds, scans)."""
    # The previous run's job is cyclic garbage: freed in here, the
    # gen-2 pass (~70 ms) can land on the scan thread.
    gc.collect()
    store: list = []
    g = StreamProcessingGraph(
        "health-guardrail",
        config=NeptuneConfig(buffer_capacity=64 * 1024, buffer_max_delay=0.005),
    )
    g.add_source("src", lambda: CountingSource(total=PACKETS))
    g.add_processor("relay", RelayProcessor)
    g.add_processor("sink", lambda: CollectingSink(store))
    g.link("src", "relay").link("relay", "sink")
    observer = RuntimeObserver(sample_every=0)
    engine: HealthEngine | None = None
    t0 = time.perf_counter()
    with NeptuneRuntime(observer=observer) as rt:
        handle = rt.submit(g)
        if monitored:
            registry = observer.registry
            slos = default_slos(
                ["src", "relay", "sink"], latency_budget=60.0, e2e_budget=None
            )
            engine = HealthEngine(
                observer,
                slos,
                scrape=lambda: bridge.scrape_job(registry, handle),
                interval=SCAN_INTERVAL,
            )
            engine.start()
        ok = handle.await_completion(timeout=120)
        if engine is not None:
            engine.stop()
        if not ok:
            raise RuntimeError("guardrail pipeline did not drain")
    elapsed = time.perf_counter() - t0
    if len(store) != PACKETS:
        raise RuntimeError(f"expected {PACKETS} packets, got {len(store)}")
    if engine is None:
        return elapsed, 0.0, 0.0, 0
    if engine.scans == 0:
        raise RuntimeError("health engine never scanned: run too short to compare")
    return elapsed, engine.scan_seconds, engine.scan_cpu_seconds, engine.scans


def main() -> int:
    # Warm both arms so imports/first-run costs hit neither.
    run_once(False)
    run_once(True)

    baseline: list[float] = []
    monitored: list[float] = []
    worst_duty = 0.0
    total_scans = 0
    for trial in range(TRIALS):
        # Interleave so slow machine drift penalizes both arms equally.
        base_wall = run_once(False)[0]
        mon_wall, scan_secs, scan_cpu, scans = run_once(True)
        baseline.append(base_wall)
        monitored.append(mon_wall)
        duty = scan_cpu / mon_wall
        worst_duty = max(worst_duty, duty)
        total_scans += scans
        print(
            f"trial {trial + 1}/{TRIALS}: baseline={base_wall:.3f}s "
            f"monitored={mon_wall:.3f}s scans={scans} duty={duty * 100:.2f}% "
            f"(wall in scans {scan_secs / mon_wall * 100:.2f}%)",
            flush=True,
        )

    best_base = min(baseline)
    best_mon = min(monitored)
    ab_pct = (best_mon - best_base) / best_base * 100.0
    print(
        f"min-of-{TRIALS}: baseline={best_base:.3f}s "
        f"health-engine={best_mon:.3f}s A/B={ab_pct:+.2f}% "
        f"(backstop {MAX_AB_PCT:.0f}%) worst CPU duty cycle={worst_duty * 100:.2f}% "
        f"(budget {MAX_DUTY_PCT:.1f}%) over {total_scans} scans"
    )
    if worst_duty * 100.0 > MAX_DUTY_PCT:
        print("FAIL: health-engine scan duty cycle exceeds budget", file=sys.stderr)
        return 1
    if ab_pct > MAX_AB_PCT:
        print(
            "FAIL: monitored wall time collapsed — scan work is leaking "
            "onto the hot path",
            file=sys.stderr,
        )
        return 1
    print("OK: health-engine overhead within budget")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
