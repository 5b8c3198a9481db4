"""Online SLO monitors and adaptive trace sampling (the health engine).

PR 3 made the runtime's mechanisms *visible* (registry, timeline,
traces); this module makes them *judged*.  A :class:`HealthEngine`
evaluates declarative :class:`SLO` objectives against the telemetry
registry on a scan loop, runs a breach/recover state machine per
objective (with consecutive-scan hysteresis, like the watermark gap in
§III-B4 prevents oscillation), lands every transition on the event
timeline as ``health.slo_breach`` / ``health.slo_recover``, and
exports ``neptune_slo_*`` series.

Supported objective kinds:

==================  ====================================================
kind                breach condition (evaluated per scan)
==================  ====================================================
``p99_latency``     p99 batch latency of the operator > threshold (s)
``e2e_delay``       p99 traced end-to-end latency > threshold (s)
``throughput_floor``  packets_in rate of the operator < threshold (/s)
``buffer_occupancy``  inbound channel bytes of the operator > threshold
==================  ====================================================

An attached :class:`AdaptiveSampler` closes the feedback loop the
paper leaves open: while a region is in breach, the sources feeding it
are sampled at :data:`HOT_EVERY` (dense per-hop spans exactly where
diagnosis needs them); once healthy, rates decay multiplicatively back
to the base rate.  The controller is deterministic — counters, not
randomness — so identical scan sequences produce identical sampling
decisions (regression-tested).

Everything here is scan-time work: the runtime's hot paths are never
touched.  A scan is O(instruments) via the same pull-based bridge
scrape ``repro metrics`` uses.
"""

from __future__ import annotations

import threading
import time
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.observe.instruments import TelemetryRegistry
from repro.observe.observer import RuntimeObserver

__all__ = [
    "SLO",
    "SLO_KINDS",
    "AdaptiveSampler",
    "HealthEngine",
    "MonitorState",
    "default_slos",
    "graph_regions",
]

#: The objective kinds :class:`HealthEngine` can evaluate.
SLO_KINDS: Tuple[str, ...] = (
    "p99_latency",
    "e2e_delay",
    "throughput_floor",
    "buffer_occupancy",
)

#: Hysteresis: consecutive breaching scans before a breach fires, and
#: consecutive healthy scans before it clears.
FOR_SCANS = 2
CLEAR_SCANS = 2
#: Scans skipped before an objective is evaluated (rates need a delta,
#: and a job's first packets always look slow).
WARMUP_SCANS = 1
#: The sampling rate a source feeding a breached region is pinned to,
#: and the factor it decays by per healthy scan back to the base rate.
HOT_EVERY = 1
DECAY = 4


class SLO:
    """One declarative service-level objective.

    Parameters
    ----------
    name:
        Unique monitor name (the ``slo`` label on exported series).
    kind:
        One of :data:`SLO_KINDS`.
    threshold:
        Breach threshold — seconds for the latency kinds, packets/sec
        for ``throughput_floor``, bytes for ``buffer_occupancy``.
    operator:
        Target operator (bare graph name).  ``e2e_delay`` is job-wide
        and ignores it.

    Every objective shares the hysteresis :data:`FOR_SCANS` /
    :data:`CLEAR_SCANS` and the :data:`WARMUP_SCANS` skip.
    """

    __slots__ = ("name", "kind", "threshold", "operator")

    def __init__(
        self,
        name: str,
        kind: str,
        threshold: float,
        operator: Optional[str] = None,
    ) -> None:
        if kind not in SLO_KINDS:
            raise ValueError(f"unknown SLO kind {kind!r}; expected one of {SLO_KINDS}")
        if threshold <= 0:
            raise ValueError(f"threshold must be positive: {threshold}")
        if kind != "e2e_delay" and operator is None:
            raise ValueError(f"SLO kind {kind!r} needs a target operator")
        self.name = name
        self.kind = kind
        self.threshold = threshold
        self.operator = operator


class MonitorState:
    """Breach/recover state machine for one :class:`SLO`."""

    __slots__ = (
        "slo",
        "status",
        "bad_scans",
        "good_scans",
        "scans",
        "breaches",
        "breached_at",
        "last_value",
        "_last_total",
        "_last_ts",
    )

    def __init__(self, slo: SLO) -> None:
        self.slo = slo
        self.status = "ok"
        self.bad_scans = 0
        self.good_scans = 0
        self.scans = 0
        self.breaches = 0
        self.breached_at: Optional[float] = None
        self.last_value: Optional[float] = None
        self._last_total: Optional[float] = None  # throughput delta base
        self._last_ts: Optional[float] = None

    @property
    def breached(self) -> bool:
        """Whether the monitor is currently in breach."""
        return self.status == "breach"

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly form for `repro doctor` / the CLI."""
        return {
            "slo": self.slo.name,
            "kind": self.slo.kind,
            "operator": self.slo.operator,
            "threshold": self.slo.threshold,
            "status": self.status,
            "value": self.last_value,
            "breaches": self.breaches,
            "scans": self.scans,
        }


#: ``(scan_index, source, new_rate)`` — one sampling decision.
SamplingDecision = Tuple[int, str, int]


class AdaptiveSampler:
    """Deterministic feedback controller over a tracer's sampling rates.

    While a source feeds a breaching region its rate is pinned to
    :data:`HOT_EVERY`; once the region is healthy the rate decays by
    :data:`DECAY`× per scan until it reaches the base rate (the tracer's own
    ``sample_every``) again, at which point the override is dropped.  No
    randomness anywhere: the same breach schedule yields the same
    decision sequence.

    Note the tracer must be *enabled* (``sample_every >= 1``) when the
    job is submitted — instances cache the on/off bit at construction,
    so the controller modulates density, it cannot resurrect a tracer
    that started dark.
    """

    def __init__(self, tracer: Any) -> None:
        base = int(tracer.sample_every)
        if base < 1:
            raise ValueError(
                f"base sampling rate must be >= 1 for adaptive sampling: {base}"
            )
        self.tracer = tracer
        self.base_every = base
        self.decisions: List[SamplingDecision] = []
        self._current: Dict[str, int] = {}

    def rate_for(self, source: str) -> int:
        """The effective sampling rate for ``source`` right now."""
        return self._current.get(source, self.base_every)

    def observe(
        self,
        scan: int,
        hot_sources: Iterable[str],
        observer: Optional[RuntimeObserver] = None,
    ) -> List[SamplingDecision]:
        """Apply one scan's verdict; returns the decisions it produced."""
        hot = set(hot_sources)
        changed: List[SamplingDecision] = []
        for source in sorted(hot | set(self._current)):
            old = self._current.get(source, self.base_every)
            if source in hot:
                new = HOT_EVERY
            else:
                new = min(self.base_every, old * DECAY)
            if new == old:
                continue
            if new >= self.base_every:
                self.tracer.clear_rate(source)
                self._current.pop(source, None)
                new = self.base_every
            else:
                self.tracer.set_rate(source, new)
                self._current[source] = new
            decision = (scan, source, new)
            changed.append(decision)
            self.decisions.append(decision)
            if observer is not None:
                observer.event(
                    "health",
                    "sampling_raised" if new < old else "sampling_decayed",
                    source=source,
                    sample_every=new,
                )
                observer.registry.gauge(
                    "neptune_trace_sample_every",
                    {"source": source},
                    "Effective trace sampling interval per source",
                ).set(float(new))
        return changed


_SampleIndex = Dict[str, List[Tuple[Dict[str, str], float]]]


class HealthEngine:
    """Scans telemetry, drives the SLO state machines, exports verdicts.

    Parameters
    ----------
    observer:
        The runtime's :class:`RuntimeObserver` — registry read and
        written, timeline written, clock used for every timestamp (so
        breach events share a clock with chaos injections; see the
        chaos-attribution regression test).
    slos:
        The objectives to monitor.
    scrape:
        Optional zero-arg callable refreshing the registry from live
        runtime state before each evaluation (usually a closure over
        :func:`repro.observe.bridge.scrape_job`).  Post-hoc engines
        (evaluating an already-populated registry) pass None.
    sampler / regions:
        Optional adaptive-sampling controller plus the operator →
        feeding-sources map (see :func:`graph_regions`) that scopes it.
    interval:
        Background scan period for :meth:`start` (seconds).
    """

    def __init__(
        self,
        observer: RuntimeObserver,
        slos: Sequence[SLO],
        scrape: Optional[Callable[[], None]] = None,
        sampler: Optional[AdaptiveSampler] = None,
        regions: Optional[Mapping[str, Sequence[str]]] = None,
        interval: float = 0.05,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive: {interval}")
        names = [s.name for s in slos]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate SLO names: {sorted(names)}")
        self.observer = observer
        self.monitors: List[MonitorState] = [MonitorState(s) for s in slos]
        self.scrape = scrape
        self.sampler = sampler
        self.regions: Dict[str, List[str]] = {
            op: list(srcs) for op, srcs in (regions or {}).items()
        }
        self.interval = interval
        self.scans = 0
        self.scan_errors = 0
        #: Wall seconds spent inside :meth:`scan_once` — the engine's
        #: entire cost (it does nothing between scans), so
        #: ``scan_seconds / job wall time`` is its measured duty cycle.
        self.scan_seconds = 0.0
        #: CPU seconds of the scanning thread (``time.thread_time``).
        #: ``scan_seconds`` also counts waiting for the GIL behind the
        #: busy worker threads — a cost of the load, not of the engine;
        #: this is what the engine itself burns.
        self.scan_cpu_seconds = 0.0
        # Guards the scan counters: scan_once runs on the background
        # thread while status()/benchmarks read from the caller's.
        self._stats_lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # -- evaluation --------------------------------------------------------
    def scan_once(self) -> List[Tuple[str, str]]:
        """One synchronous scan; returns ``(slo, transition)`` pairs.

        Transitions are ``"breach"`` / ``"recover"``; a steady-state
        scan returns an empty list.  Deterministic given the registry
        and collector contents — the unit tests and the adaptive-
        sampling determinism suite drive this directly.
        """
        t0 = time.perf_counter()
        c0 = time.thread_time()
        now = self.observer.clock.now()
        if self.scrape is not None:
            self.scrape()
        index = self._index_registry()
        transitions: List[Tuple[str, str]] = []
        for monitor in self.monitors:
            transition = self._evaluate(monitor, index, now)
            if transition is not None:
                transitions.append((monitor.slo.name, transition))
        with self._stats_lock:
            self.scans += 1
        self._export()
        if self.sampler is not None:
            hot: set[str] = set()
            for monitor in self.monitors:
                if not monitor.breached:
                    continue
                op = monitor.slo.operator
                if op is None:
                    for sources in self.regions.values():
                        hot.update(sources)
                else:
                    hot.update(self.regions.get(op, ()))
            self.sampler.observe(self.scans, hot, self.observer)
        with self._stats_lock:
            self.scan_seconds += time.perf_counter() - t0
            self.scan_cpu_seconds += time.thread_time() - c0
        return transitions

    def _index_registry(self) -> _SampleIndex:
        index: _SampleIndex = {}
        for sample in self.observer.registry.collect():
            index.setdefault(sample.name, []).append(
                (dict(sample.labels), sample.value)
            )
        return index

    def _evaluate(
        self, monitor: MonitorState, index: _SampleIndex, now: float
    ) -> Optional[str]:
        slo = monitor.slo
        monitor.scans += 1
        value = self._value_for(monitor, index, now)
        if value is None or monitor.scans <= WARMUP_SCANS:
            return None
        monitor.last_value = value
        if slo.kind == "throughput_floor":
            breaching = value < slo.threshold
        else:
            breaching = value > slo.threshold
        if breaching:
            monitor.bad_scans += 1
            monitor.good_scans = 0
            if monitor.status == "ok" and monitor.bad_scans >= FOR_SCANS:
                monitor.status = "breach"
                monitor.breaches += 1
                monitor.breached_at = now
                self.observer.event(
                    "health",
                    "slo_breach",
                    slo=slo.name,
                    kind=slo.kind,
                    operator=slo.operator,
                    value=value,
                    threshold=slo.threshold,
                )
                return "breach"
        else:
            monitor.good_scans += 1
            monitor.bad_scans = 0
            if monitor.status == "breach" and monitor.good_scans >= CLEAR_SCANS:
                monitor.status = "ok"
                duration = (
                    now - monitor.breached_at
                    if monitor.breached_at is not None
                    else 0.0
                )
                monitor.breached_at = None
                self.observer.event(
                    "health",
                    "slo_recover",
                    slo=slo.name,
                    kind=slo.kind,
                    operator=slo.operator,
                    value=value,
                    duration=duration,
                )
                return "recover"
        return None

    def _value_for(
        self, monitor: MonitorState, index: _SampleIndex, now: float
    ) -> Optional[float]:
        slo = monitor.slo
        if slo.kind == "p99_latency":
            return _max_matching(
                index.get("neptune_operator_batch_latency_seconds", []),
                {"operator": slo.operator or "", "quantile": "p99"},
            )
        if slo.kind == "buffer_occupancy":
            return _max_matching(
                index.get("neptune_flowcontrol_buffered_bytes", []),
                {"operator": slo.operator or ""},
            )
        if slo.kind == "throughput_floor":
            total = _sum_matching(
                index.get("neptune_operator_packets_in_total", []),
                {"operator": slo.operator or ""},
            )
            if total is None:
                return None
            last_total, last_ts = monitor._last_total, monitor._last_ts
            monitor._last_total, monitor._last_ts = total, now
            if last_total is None or last_ts is None or now <= last_ts:
                return None  # first sighting: no delta yet
            return (total - last_total) / (now - last_ts)
        # e2e_delay: p99 of traced end-to-end latencies (job-wide).
        durations: List[float] = []
        for spans in self.observer.collector.traces().values():
            if not spans:
                continue
            start = min(s.start for s in spans)
            end = max(s.end for s in spans)
            durations.append(max(0.0, end - start))
        if not durations:
            return None
        ordered = sorted(durations)
        idx = min(len(ordered) - 1, round(0.99 * (len(ordered) - 1)))
        return ordered[idx]

    def _export(self) -> None:
        registry: TelemetryRegistry = self.observer.registry
        registry.counter(
            "neptune_health_scans_total", None, "Health-engine scans performed"
        ).set_total(float(self.scans))
        for monitor in self.monitors:
            labels = {"slo": monitor.slo.name}
            registry.gauge(
                "neptune_slo_breached", labels, "1 while the objective is in breach"
            ).set(1.0 if monitor.breached else 0.0)
            registry.counter(
                "neptune_slo_breaches_total", labels, "Breach episodes entered"
            ).set_total(float(monitor.breaches))
            if monitor.last_value is not None:
                registry.gauge(
                    "neptune_slo_value", labels, "Last evaluated objective value"
                ).set(monitor.last_value)

    # -- reporting ---------------------------------------------------------
    def breached_monitors(self) -> List[MonitorState]:
        """Monitors currently in breach."""
        return [m for m in self.monitors if m.breached]

    def status(self) -> Dict[str, object]:
        """JSON-friendly engine summary (the CLI's ``health`` block)."""
        return {
            "scans": self.scans,
            "scan_errors": self.scan_errors,
            "scan_seconds": self.scan_seconds,
            "scan_cpu_seconds": self.scan_cpu_seconds,
            "monitors": [m.as_dict() for m in self.monitors],
        }

    # -- background loop ---------------------------------------------------
    def start(self) -> None:
        """Launch the background scan loop. Idempotent."""
        if self._thread is not None and self._thread.is_alive():
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="neptune-health", daemon=True
        )
        self._thread.start()

    def stop(self, timeout: float = 5.0) -> None:
        """Stop the scan loop (one final scan has already happened or
        will simply be skipped — scans are idempotent)."""
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout)
        self._thread = None

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.scan_once()
            except Exception:
                # A dying scan must never kill the monitor thread: the
                # registry may be mid-mutation during job teardown.
                with self._stats_lock:
                    self.scan_errors += 1


def _matches(labels: Dict[str, str], want: Dict[str, str]) -> bool:
    return all(labels.get(k) == v for k, v in want.items())


def _max_matching(
    samples: List[Tuple[Dict[str, str], float]], want: Dict[str, str]
) -> Optional[float]:
    values = [v for labels, v in samples if _matches(labels, want)]
    return max(values) if values else None


def _sum_matching(
    samples: List[Tuple[Dict[str, str], float]], want: Dict[str, str]
) -> Optional[float]:
    values = [v for labels, v in samples if _matches(labels, want)]
    return sum(values) if values else None


def graph_regions(graph: Any) -> Dict[str, List[str]]:
    """Operator → sorted source operators that (transitively) feed it.

    Duck-typed over a :class:`~repro.core.graph.StreamProcessingGraph`
    (``.links`` with ``from_op`` / ``to_op``, ``.operators`` mapping
    names to specs with ``is_source``); the observe package keeps its
    no-runtime-imports rule.  A source maps to itself, so raising the
    rate "for the region in breach" works whether the breaching
    operator is the source or the sink.
    """
    upstream: Dict[str, List[str]] = {}
    for link in graph.links:
        ops = upstream.setdefault(link.to_op, [])
        if link.from_op not in ops:
            ops.append(link.from_op)
    sources = {
        name for name, spec in graph.operators.items() if getattr(spec, "is_source", False)
    }
    regions: Dict[str, List[str]] = {}
    for name in graph.operators:
        seen: set[str] = set()
        frontier = [name]
        while frontier:
            op = frontier.pop()
            if op in seen:
                continue
            seen.add(op)
            frontier.extend(upstream.get(op, ()))
        regions[name] = sorted(seen & sources)
    return regions


def default_slos(
    operators: Iterable[str],
    latency_budget: float = 0.05,
    e2e_budget: Optional[float] = 0.25,
) -> List[SLO]:
    """A sensible default objective set for ``repro doctor``: one p99
    stage-latency budget per operator plus (optionally) one job-wide
    end-to-end delay bound."""
    slos = [
        SLO(f"{op}.p99_latency", "p99_latency", latency_budget, operator=op)
        for op in sorted(operators)
    ]
    if e2e_budget is not None:
        slos.append(SLO("job.e2e_delay", "e2e_delay", e2e_budget))
    return slos
