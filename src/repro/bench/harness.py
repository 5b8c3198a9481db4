"""Benchmark profiles and results of the overhead gate.

A profile is the only size there is: every row of ``repro bench``
reaches its verdict inside one run of one profile, so nothing here is
compared against a stored file or normalised by machine speed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence


@dataclass(frozen=True)
class BenchProfile:
    """Pinned workload sizes for one benchmark tier.

    ``smoke`` exists for tests (seconds end to end), ``quick`` is the
    CI tier, ``full`` is for deliberate local measurement sessions.
    """

    name: str
    #: Interleaved off/on pairs per plane gate.
    repeats: int
    #: Packets pushed through the relay pipeline in process (both links
    #: chained: one thread, no buffer).
    relay_packets: int
    #: The relay's ``buffer_max_delay``.
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
    #: Packets pushed through the relay by the two ``collector`` planes,
    #: whose links cross workers and so keep their buffers: about half
    #: the chained relay's rate, or less.
    buffered_packets: int = 2_000


PROFILES: dict[str, BenchProfile] = {
    "smoke": BenchProfile("smoke", 1, 2_000, 0.005),
    # relay_packets and buffered_packets keep one relay run at two to
    # three seconds (~300k packets/s chained in process, ~140k over two
    # workers): every plane gate divides by that window, and it has to
    # hold ten of the collector's 0.25 s polls and of the health
    # engine's 0.1 s scans with room to spare.
    "quick": BenchProfile(
        "quick", 3, 720_000, 0.005, 2_400, 0.002, (1, 4), 6_000, 360_000
    ),
    "full": BenchProfile(
        "full", 5, 900_000, 0.005, 6_000, 0.002, (1, 2, 4), 12_000, 450_000
    ),
}


@dataclass
class BenchResult:
    """One row's named metrics (flat ``str -> float`` map).

    ``failures`` holds one line per gate the row read over budget
    (empty on the un-gated smoke tier); ``verdict`` is the row's
    one-line summary of what it measured against which budget.
    """

    name: str
    metrics: dict[str, float] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)
    verdict: str = ""


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0..1) of ``samples`` by nearest-rank."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    idx = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[idx]
