"""Benchmark profiles, timing loops, and machine calibration.

Raw throughput numbers are only comparable on the machine that produced
them, so every report carries a :func:`calibration_score`: the speed of
a fixed pure-Python reference loop on the same interpreter, measured in
the same run.  The regression checker compares *calibration-normalized*
throughputs, which absorbs machine-speed differences between the
developer laptop that produced the checked-in baseline and the CI
runner that validates against it.  Algorithmic speedup ratios
(compiled vs per-field codec) need no normalization and are compared
directly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Sequence


@dataclass(frozen=True)
class BenchProfile:
    """Pinned workload sizes for one benchmark tier.

    ``smoke`` exists for tests (seconds end to end), ``quick`` is the
    CI tier, ``full`` is for deliberate local measurement sessions.
    """

    name: str
    #: Messages per codec timing repetition.
    codec_messages: int
    #: Timing repetitions: best-of for the kernel loops, interleaved
    #: off/on pairs for the plane gates.
    repeats: int
    #: Appends driven through the StreamBuffer flush scenario.
    buffer_appends: int
    #: Packets pushed through the end-to-end relay pipeline in process
    #: (both links chained: one thread, no buffer).
    relay_packets: int
    #: StreamBuffer.max_delay bound used (and checked) by the relay.
    relay_max_delay: float
    #: Packets pushed through each multi-process cluster run; 0 (the
    #: smoke tier) skips the scenario — process spawning is banned from
    #: tier-1 test runs.
    cluster_packets: int = 0
    #: Per-packet exclusive service time modelling GIL-bound work (see
    #: ``ExclusiveServiceProcessor``).
    cluster_service_time: float = 0.001
    #: Worker-process counts to measure; the scale-up ratio is taken
    #: between the largest and smallest entry.
    cluster_worker_counts: tuple[int, ...] = ()
    #: Packets pushed through the ``policy`` self-healing scenario's
    #: stalled pipeline (kept small: every pre-heal frame pays the
    #: sink's fixed batch overhead, so this bounds the control arm).
    policy_packets: int = 600
    #: Packets pushed through the relay by the planes whose links stay
    #: buffered - the two ``collector`` planes (the links cross
    #: workers) and ``profiler`` (``chain=False``): about half the
    #: chained relay's rate, or less.
    buffered_packets: int = 2_000


PROFILES: dict[str, BenchProfile] = {
    "smoke": BenchProfile("smoke", 2_000, 1, 4_000, 2_000, 0.005),
    # relay_packets and buffered_packets keep one relay run at two to
    # three seconds (~300k packets/s chained in process, ~140k over two
    # workers): every plane gate divides by that window, and it has to
    # hold ten of the collector's 0.25 s polls and of the health
    # engine's 0.1 s scans with room to spare.
    "quick": BenchProfile(
        "quick", 20_000, 3, 100_000, 720_000, 0.005, 2_400, 0.002, (1, 4), 6_000, 360_000
    ),
    "full": BenchProfile(
        "full", 100_000, 5, 400_000, 900_000, 0.005, 6_000, 0.002, (1, 2, 4), 12_000, 450_000
    ),
}


@dataclass
class BenchResult:
    """One scenario's named metrics (flat ``str -> float`` map).

    ``failures`` holds one line per gate the scenario read over budget
    (empty on the un-gated smoke tier); ``verdict`` is a plane's
    one-line summary of what it measured against which budget.
    """

    name: str
    metrics: dict[str, float] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)
    verdict: str = ""


def best_rate(fn: Callable[[], int], repeats: int) -> float:
    """Best items-per-second over ``repeats`` runs of ``fn``.

    ``fn`` returns the number of items it processed.  Best-of measures
    the code, not the scheduler noise around it.
    """
    best = 0.0
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        n = fn()
        dt = time.perf_counter() - t0
        if dt > 0 and n / dt > best:
            best = n / dt
    return best


def calibration_score(loops: int = 200_000) -> float:
    """Iterations/sec of a fixed pure-Python reference loop.

    The loop is frozen: changing it invalidates every checked-in
    baseline, so treat it like a wire format.
    """
    acc = 0
    t0 = time.perf_counter()
    for i in range(loops):
        acc += (i ^ (i >> 3)) & 0xFF
    dt = time.perf_counter() - t0
    if acc < 0:  # pragma: no cover — keeps the loop observable
        raise AssertionError("unreachable")
    return loops / dt if dt > 0 else float("inf")


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0..1) of ``samples`` by nearest-rank."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    idx = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[idx]
