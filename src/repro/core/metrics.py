"""Runtime metrics: throughput, latency, bandwidth (the paper's three
evaluation metrics, §IV) plus operator-level counters.

Counters are lock-free from the owning thread's perspective: each
operator instance executes serialized, so its counter instance has a
single writer; readers take snapshots that may be one packet stale —
fine for monitoring.  The output-side counters are not written per
packet at all: a ``refresh`` hook derives them from what the
instance's stream buffers already count per batch, whenever the
registry is read.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Callable


class LatencyRecorder:
    """Reservoir of latency samples with percentile queries.

    Keeps up to ``max_samples`` via reservoir sampling so long runs
    don't grow memory while percentiles stay representative.
    """

    def __init__(self, max_samples: int = 8192, seed: int = 17) -> None:
        import random

        self._max = max_samples
        self._samples: list[float] = []
        self._seen = 0
        self._rng = random.Random(seed)
        self._lock = threading.Lock()

    def record(self, seconds: float) -> None:
        """Record one observation."""
        with self._lock:
            self._seen += 1
            if len(self._samples) < self._max:
                self._samples.append(seconds)
            else:
                j = self._rng.randrange(self._seen)
                if j < self._max:
                    self._samples[j] = seconds

    def percentile(self, p: float) -> float:
        """p in [0, 100]; returns NaN with no samples."""
        return self.percentiles([p])[0]

    def percentiles(self, ps: list[float]) -> list[float]:
        """Batch percentile query: validates all ``ps``, snapshots and
        sorts the reservoir once, and answers every query against that
        one sorted copy.  Returns NaN per query with no samples."""
        for p in ps:
            if not 0 <= p <= 100:
                raise ValueError(f"percentile out of range: {p}")
        with self._lock:
            data = sorted(self._samples)
        if not data:
            return [math.nan] * len(ps)
        out: list[float] = []
        for p in ps:
            k = (len(data) - 1) * p / 100.0
            lo = math.floor(k)
            hi = math.ceil(k)
            if lo == hi:
                out.append(data[lo])
            else:
                out.append(data[lo] + (data[hi] - data[lo]) * (k - lo))
        return out

    @property
    def count(self) -> int:
        """Number of observations recorded."""
        with self._lock:
            return self._seen

    def mean(self) -> float:
        """Arithmetic mean of the recorded samples."""
        with self._lock:
            if not self._samples:
                return math.nan
            return sum(self._samples) / len(self._samples)


@dataclass
class OperatorMetrics:
    """Per-operator-instance counters."""

    operator: str = ""
    instance: int = 0
    packets_in: int = 0
    packets_out: int = 0
    bytes_in: int = 0
    bytes_out: int = 0
    batches_in: int = 0
    executions: int = 0
    emit_block_seconds: float = 0.0
    latency: LatencyRecorder = field(default_factory=LatencyRecorder)
    #: Brings derived counters up to date; the registry calls it before
    #: every read (``operators``/``snapshot``).
    refresh: Callable[[], None] | None = field(default=None, repr=False, compare=False)


class MetricsRegistry:
    """All metrics for one runtime; snapshot-able for monitoring."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._operators: dict[tuple[str, int], OperatorMetrics] = {}

    def for_operator(self, operator: str, instance: int) -> OperatorMetrics:
        """The (created-on-demand) counters for one operator instance."""
        with self._lock:
            key = (operator, instance)
            if key not in self._operators:
                self._operators[key] = OperatorMetrics(operator=operator, instance=instance)
            return self._operators[key]

    def operators(self) -> list[OperatorMetrics]:
        """Snapshot of all per-instance metric objects (for exporters)."""
        with self._lock:
            entries = list(self._operators.values())
        for m in entries:
            if m.refresh is not None:
                m.refresh()
        return entries

    def snapshot(self) -> dict[str, dict]:
        """Aggregated per-operator totals (summed over instances)."""
        entries = self.operators()
        agg: dict[str, dict] = {}
        for m in entries:
            a = agg.setdefault(
                m.operator,
                {
                    "instances": 0,
                    "packets_in": 0,
                    "packets_out": 0,
                    "bytes_in": 0,
                    "bytes_out": 0,
                    "batches_in": 0,
                    "executions": 0,
                    "emit_block_seconds": 0.0,
                },
            )
            a["instances"] += 1
            a["packets_in"] += m.packets_in
            a["packets_out"] += m.packets_out
            a["bytes_in"] += m.bytes_in
            a["bytes_out"] += m.bytes_out
            a["batches_in"] += m.batches_in
            a["executions"] += m.executions
            a["emit_block_seconds"] += m.emit_block_seconds
        return agg
