"""Cluster-wide telemetry collection over the control channel.

PR 6 sharded the data plane across worker processes but left every
observability facility (registry, traces, timeline, SLO monitors)
trapped inside the process that produced it.  This module builds the
cluster observability plane on top of the *existing* control channel —
no new sockets:

- :class:`DeltaSource` lives in each worker process.  Every time the
  coordinator asks (the ``collect`` control command), it builds one
  bounded delta: absolute worker-labeled series (never-backwards on
  the receiving side), the trace spans and timeline events added since
  the previous collect (cursor-based, loss/duplication-free), and the
  worker's local SLO monitor states.  Deltas carry a monotonic ``seq``
  so re-delivery is detectable.
- :class:`ClusterCollector` lives in the coordinator.  It polls every
  worker's DeltaSource, merges series via
  :func:`~repro.observe.bridge.absorb_series` (counters/histograms
  never move backwards — absorbing the same delta twice is a no-op),
  dedups re-shipped spans (worker restart + ack-replay re-executes
  hops), stitches cross-worker spans into end-to-end traces, and runs
  a cluster-scope :class:`~repro.observe.health.HealthEngine` over the
  merged registry so a breach on one worker is judged against gates
  and stalls on another.
- :func:`stitch` groups the merged spans into :class:`StitchedTrace`
  objects — single causal traces whose stages tile end-to-end across
  process boundaries (``CLOCK_MONOTONIC`` is machine-wide, and the
  runtime closes a hop's ``execute`` stage at the exact timestamp the
  derived packet's ``serialize`` stage opens).

Everything here is scan-time work on control threads: the data plane's
hot paths are never touched, which is what the collector-overhead
guardrail bench asserts.

All runtime objects (workers, proxies) are duck-typed ``Any``: the
observe package never imports ``repro.core``/``repro.cluster``.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.observe.bridge import (
    absorb_series,
    registry_series,
    scrape_observer,
    worker_series,
)
from repro.observe.health import SLO, HealthEngine
from repro.observe.observer import RuntimeObserver
from repro.observe.tracing import STAGES, SpanRecord, TraceCollector

__all__ = [
    "COLLECT_SCHEMA",
    "ClusterCollector",
    "DeltaSource",
    "StitchedTrace",
    "stitch",
    "stitch_spans",
]

#: Schema tag on every delta a worker ships (versioned for rolling
#: upgrades: a coordinator ignores deltas it does not understand).
COLLECT_SCHEMA = "neptune-collect/1"

_STAGE_ORDER: Dict[str, int] = {stage: i for i, stage in enumerate(STAGES)}

#: Dedup key of one shipped span: a worker restart re-executes hops and
#: ack-replay re-delivers frames, so the same logical span can be built
#: twice — but never with a different (trace, hop, stage, operator).
_SpanKey = Tuple[int, int, str, str]


class DeltaSource:
    """Worker-side builder of bounded telemetry deltas.

    One per worker process, attached as ``worker.delta_source`` so the
    control plane's ``collect`` command can find it.  ``collect()`` is
    called on a control-server thread — never the data plane — and its
    cost is accounted in ``build_seconds`` so the guardrail bench can
    bound the duty cycle.
    """

    def __init__(
        self,
        observer: RuntimeObserver,
        worker_id: int,
        worker: Any = None,
        health: Optional[HealthEngine] = None,
        incarnation: int = 0,
    ) -> None:
        self.observer = observer
        self.worker_id = int(worker_id)
        self.worker = worker
        self.health = health
        #: Process (re)spawn count of this shard; stamped on every
        #: delta so the coordinator can fence a dead incarnation's
        #: in-flight telemetry after a restart.
        self.incarnation = int(incarnation)
        self.collects = 0
        self.build_seconds = 0.0
        #: CPU seconds of the building thread (``time.thread_time``).
        #: In a busy worker ``build_seconds`` is inflated by GIL waits
        #: — time the data plane was *running*, not paying — so this is
        #: the number the overhead guardrail charges the plane with.
        self.build_cpu_seconds = 0.0
        self.spans_shipped = 0
        self.events_shipped = 0
        self._seq = 0
        self._span_cursor: Dict[int, int] = {}
        self._event_cursor = 0
        self._last_ts: Optional[float] = None
        self._stage_hist: Dict[str, Any] = {}
        self._lock = threading.Lock()

    def collect(self) -> Dict[str, Any]:
        """Build one delta: absolute series + span/event deltas."""
        t0 = time.perf_counter()
        c0 = time.thread_time()
        wid = str(self.worker_id)
        spans = self.observer.collector.spans_since(self._span_cursor)
        # Feed shipped span durations into per-stage histograms: this
        # is the cluster's p99-per-stage source (`repro top`) and real
        # histogram traffic for the absorb path — scan-time work only.
        for span in spans:
            hist = self._stage_hist.get(span.stage)
            if hist is None:
                hist = self.observer.registry.histogram(
                    "neptune_trace_stage_seconds",
                    {"stage": span.stage},
                    "Closed trace span durations per stage",
                )
                self._stage_hist[span.stage] = hist
            hist.observe(span.duration)
        events, self._event_cursor = self.observer.timeline.events_since(
            self._event_cursor
        )
        scrape_observer(self.observer)
        series: List[Dict[str, Any]] = []
        if self.worker is not None:
            series.extend(worker_series(self.worker))
        series.extend(registry_series(self.observer.registry, {"worker": wid}))
        monitors: List[Dict[str, Any]] = []
        if self.health is not None:
            monitors = [dict(m.as_dict()) for m in self.health.monitors]
        span_dicts: List[Dict[str, Any]] = []
        for span in spans:
            d = dict(span.as_dict())
            d["worker"] = wid
            span_dicts.append(d)
        with self._lock:
            self._seq += 1
            seq = self._seq
            self.collects += 1
            self.spans_shipped += len(spans)
            self.events_shipped += len(events)
            self.build_seconds += time.perf_counter() - t0
            self.build_cpu_seconds += time.thread_time() - c0
            self._last_ts = self.observer.clock.now()
        return {
            "schema": COLLECT_SCHEMA,
            "worker": self.worker_id,
            "seq": seq,
            "incarnation": self.incarnation,
            "series": series,
            "spans": span_dicts,
            "events": [dict(e.as_dict()) for e in events],
            "monitors": monitors,
        }

    def info(self) -> Dict[str, Any]:
        """Cheap status summary (``repro cluster status``)."""
        profiler = getattr(self.observer, "profiler", None)
        with self._lock:
            last_age: Optional[float] = None
            if self._last_ts is not None:
                last_age = max(0.0, self.observer.clock.now() - self._last_ts)
            return {
                "worker": self.worker_id,
                "seq": self._seq,
                "incarnation": self.incarnation,
                "collects": self.collects,
                "build_seconds": self.build_seconds,
                "build_cpu_seconds": self.build_cpu_seconds,
                "spans_shipped": self.spans_shipped,
                "events_shipped": self.events_shipped,
                "last_collect_age": last_age,
                "profiler": None if profiler is None else profiler.info(),
            }


class ClusterCollector:
    """Coordinator-side merge point for every worker's deltas.

    Owns a cluster :class:`RuntimeObserver` whose registry holds the
    worker-labeled union of every shard's series, whose collector holds
    the stitched cross-worker spans, and whose timeline holds every
    worker's events (original timestamps preserved).  An optional
    cluster-scope :class:`HealthEngine` evaluates SLOs against that
    merged view after each poll, so ``repro doctor --workers N`` can
    attribute a breach observed on one worker to a gate on another.
    """

    def __init__(
        self,
        observer: Optional[RuntimeObserver] = None,
        slos: Sequence[SLO] = (),
        interval: float = 0.25,
        max_span_keys: int = 65536,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive: {interval}")
        self.observer = observer if observer is not None else RuntimeObserver()
        self.health: Optional[HealthEngine] = None
        if slos:
            self.health = HealthEngine(self.observer, list(slos), scrape=None)
        self.interval = interval
        self.polls = 0
        self.absorbed = 0
        self.stale = 0
        self.fetch_errors = 0
        #: Wall seconds spent inside :meth:`poll_once` — the entire
        #: coordinator-side cost of the plane (nothing runs between
        #: polls), for the guardrail bench's duty-cycle bound.
        self.poll_seconds = 0.0
        #: The portion of ``poll_seconds`` spent blocked in fetchers.
        #: Against remote workers that is mostly RPC wait (the worker's
        #: control thread competing with its data plane for the GIL),
        #: not coordinator compute: the causally-attributable merge
        #: cost is ``poll_seconds - fetch_seconds`` plus the workers'
        #: own ``build_seconds``.
        self.fetch_seconds = 0.0
        #: CPU seconds of the polling thread (``time.thread_time``).
        #: Fetch waits consume no CPU, so this is the merge cost alone,
        #: unpolluted by scheduler noise — what the overhead guardrail
        #: charges the coordinator side of the plane with.
        self.poll_cpu_seconds = 0.0
        self._max_span_keys = max_span_keys
        self._fetch: Dict[int, Callable[[], Optional[Mapping[str, Any]]]] = {}
        self._last_seq: Dict[int, int] = {}
        # Expected incarnation per worker.  Absent → learn from the
        # first delta seen (in-process harnesses never restart); set by
        # reset_worker so a dead incarnation's in-flight delta cannot
        # be absorbed under the fresh worker's label.
        self._incarnation: Dict[int, int] = {}
        self.fenced = 0
        self._last_at: Dict[int, float] = {}
        self._seen_spans: Set[_SpanKey] = set()
        self._monitors: Dict[Tuple[int, str], Dict[str, Any]] = {}
        # Guards the cursors/stats above.  Never held while touching
        # the observer (registry/timeline take their own locks).
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        #: Optional hook called after each health scan with
        #: ``(scan_index, transitions)`` — the policy engine's tap.  Runs
        #: on the poll thread; exceptions are swallowed into
        #: ``fetch_errors`` (observability must never kill the poll
        #: loop, and neither may policy).
        self.on_scan: Optional[Callable[[int, List[Tuple[str, str]]], None]] = None

    # -- wiring ------------------------------------------------------------
    def attach(
        self, worker_id: int, fetch: Callable[[], Optional[Mapping[str, Any]]]
    ) -> None:
        """Register a worker's delta fetcher (a control-proxy closure).

        The closure is re-resolved every poll, so a coordinator that
        splices in a fresh proxy after a restart keeps working without
        re-attaching.
        """
        with self._lock:
            self._fetch[int(worker_id)] = fetch

    def detach(self, worker_id: int) -> None:
        """Stop polling a worker (it keeps its merged history)."""
        with self._lock:
            self._fetch.pop(int(worker_id), None)

    def reset_worker(self, worker_id: int, incarnation: Optional[int] = None) -> None:
        """Forget a worker's delta sequence cursor.

        Call after restarting a worker process: the fresh process
        restarts its ``seq`` at 1, which would otherwise look like a
        stale re-delivery and be dropped forever.  Span dedup (by span
        identity) still protects against the restart re-shipping hops
        the dead incarnation already shipped.

        ``incarnation`` (the new process's spawn count) arms the fence:
        a delta still in flight from the *old* incarnation — fetched
        before the kill, absorbed after this reset — would otherwise
        land under the new worker label with a high ``seq``, silently
        burying the new incarnation's restarted sequence.  With the
        fence armed, any delta whose incarnation differs from the
        expected one is dropped (counted in ``fenced``).  Call this
        *before* splicing in the fresh control proxy so no window
        exists in which an old delta can slip through.
        """
        with self._lock:
            self._last_seq.pop(int(worker_id), None)
            if incarnation is None:
                self._incarnation.pop(int(worker_id), None)
            else:
                self._incarnation[int(worker_id)] = int(incarnation)

    # -- merging -----------------------------------------------------------
    def absorb(self, delta: Mapping[str, Any]) -> bool:
        """Merge one worker delta; returns False if it was stale.

        Stale means a ``seq`` at or below the last absorbed one for
        that worker — exactly what re-delivery of the same delta looks
        like.  Dropping it keeps the merge idempotent: span/event
        payloads are *deltas* and would double-count if replayed
        (series would not — they are absorbed never-backwards — but
        the check makes the whole message idempotent, not just part).

        A delta whose ``incarnation`` does not match the expected one
        for that worker (armed by :meth:`reset_worker` after a
        restart) is fenced: it was built by a process that no longer
        exists, and absorbing it would poison the fresh incarnation's
        sequence cursor.
        """
        worker = int(delta.get("worker", -1))
        seq = int(delta.get("seq", 0))
        incarnation = int(delta.get("incarnation", 0))
        with self._lock:
            expected = self._incarnation.get(worker)
            if expected is None:
                self._incarnation[worker] = incarnation
            elif incarnation != expected:
                self.fenced += 1
                return False
            if seq <= self._last_seq.get(worker, 0):
                self.stale += 1
                return False
            self._last_seq[worker] = seq
        absorb_series(self.observer.registry, delta.get("series") or [])
        by_tid: Dict[int, List[SpanRecord]] = {}
        for raw in delta.get("spans") or []:
            try:
                key: _SpanKey = (
                    int(raw["trace_id"]),
                    int(raw["hop"]),
                    str(raw["stage"]),
                    str(raw["operator"]),
                )
                span = SpanRecord(
                    key[0],
                    key[1],
                    key[2],
                    float(raw["start"]),
                    float(raw["end"]),
                    key[3],
                    worker=str(raw.get("worker", worker)),
                )
            except (KeyError, TypeError, ValueError):
                continue
            with self._lock:
                if key in self._seen_spans:
                    continue
                if len(self._seen_spans) < self._max_span_keys:
                    self._seen_spans.add(key)
            by_tid.setdefault(key[0], []).append(span)
        for spans in by_tid.values():
            self.observer.collector.add(spans)
        for raw in delta.get("events") or []:
            attrs = dict(raw.get("attrs") or {})
            attrs.setdefault("worker", str(worker))
            self.observer.timeline.record_at(
                float(raw.get("ts", 0.0)),
                str(raw.get("category", "")),
                str(raw.get("name", "")),
                attrs,
            )
        now = self.observer.clock.now()
        with self._lock:
            for mon in delta.get("monitors") or []:
                self._monitors[(worker, str(mon.get("slo", "")))] = dict(mon)
            self._last_at[worker] = now
            self.absorbed += 1
        return True

    def poll_once(self) -> int:
        """Fetch + absorb from every attached worker, then scan SLOs.

        A worker whose fetch fails (severed control socket, mid-kill)
        is skipped and counted; the poll never raises on behalf of
        observability.  Returns the number of deltas absorbed.
        """
        t0 = time.perf_counter()
        c0 = time.thread_time()
        with self._lock:
            fetchers = list(self._fetch.items())
        absorbed = 0
        fetch_secs = 0.0
        for _worker_id, fetch in fetchers:
            f0 = time.perf_counter()
            try:
                delta = fetch()
            except Exception:
                with self._lock:
                    self.fetch_errors += 1
                continue
            finally:
                fetch_secs += time.perf_counter() - f0
            if delta is not None and self.absorb(delta):
                absorbed += 1
        if self.health is not None:
            try:
                transitions = self.health.scan_once()
            except Exception:
                with self._lock:
                    self.fetch_errors += 1
            else:
                hook = self.on_scan
                if hook is not None:
                    try:
                        hook(self.health.scans, transitions)
                    except Exception:
                        with self._lock:
                            self.fetch_errors += 1
        with self._lock:
            self.polls += 1
            self.poll_seconds += time.perf_counter() - t0
            self.fetch_seconds += fetch_secs
            self.poll_cpu_seconds += time.thread_time() - c0
        return absorbed

    # -- reporting ---------------------------------------------------------
    def ages(self) -> Dict[int, Optional[float]]:
        """Worker id → seconds since its last absorbed delta (None if
        never collected)."""
        now = self.observer.clock.now()
        with self._lock:
            return {
                wid: (
                    max(0.0, now - self._last_at[wid])
                    if wid in self._last_at
                    else None
                )
                for wid in self._fetch
            }

    def worker_monitors(self) -> List[Dict[str, Any]]:
        """Latest reported worker-local SLO monitor states."""
        with self._lock:
            return [
                {**state, "worker": wid}
                for (wid, _slo), state in sorted(self._monitors.items())
            ]

    def status(self) -> Dict[str, Any]:
        """JSON-friendly collector summary."""
        with self._lock:
            stats = {
                "polls": self.polls,
                "absorbed": self.absorbed,
                "stale": self.stale,
                "fenced": self.fenced,
                "fetch_errors": self.fetch_errors,
                "poll_seconds": self.poll_seconds,
                "fetch_seconds": self.fetch_seconds,
                "poll_cpu_seconds": self.poll_cpu_seconds,
                "last_seq": dict(self._last_seq),
            }
        out: Dict[str, Any] = dict(stats)
        out["ages"] = {str(k): v for k, v in self.ages().items()}
        out["worker_monitors"] = self.worker_monitors()
        if self.health is not None:
            out["health"] = self.health.status()
        return out

    def stitched(self) -> List[StitchedTrace]:
        """The merged spans as stitched end-to-end traces."""
        return stitch(self.observer.collector)

    # -- background loop ---------------------------------------------------
    def start(self) -> None:
        """Launch the background poll loop. Idempotent."""
        if self._thread is not None and self._thread.is_alive():
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="neptune-collector", daemon=True
        )
        self._thread.start()

    def stop(self, timeout: float = 5.0) -> None:
        """Stop the poll loop (polls are idempotent; a final explicit
        ``poll_once`` before worker shutdown captures the tail)."""
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout)
        self._thread = None

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.poll_once()
            except Exception:
                with self._lock:
                    self.fetch_errors += 1


class StitchedTrace:
    """One end-to-end causal trace assembled from multi-worker spans.

    ``complete`` means the hop numbers are contiguous from 0 and every
    hop carries all six stages — the invariant under which the stage
    spans *tile* the trace exactly: by construction the runtime closes
    each stage at the timestamp the next one opens (a non-terminal
    hop's ``execute`` ends at the derived packet's ``serialize``
    start), so a complete trace has zero gap and zero overlap even
    when adjacent spans were closed in different processes.
    """

    __slots__ = (
        "trace_id",
        "spans",
        "workers",
        "hops",
        "start",
        "end",
        "gap_seconds",
        "overlap_seconds",
        "complete",
    )

    def __init__(self, trace_id: int, spans: Sequence[SpanRecord]) -> None:
        ordered = sorted(
            spans, key=lambda s: (s.hop, _STAGE_ORDER.get(s.stage, 99))
        )
        self.trace_id = trace_id
        self.spans: List[SpanRecord] = ordered
        self.workers: List[str] = sorted(
            {s.worker for s in ordered if s.worker is not None}
        )
        hops = sorted({s.hop for s in ordered})
        self.hops = len(hops)
        self.start = min((s.start for s in ordered), default=0.0)
        self.end = max((s.end for s in ordered), default=0.0)
        gap = 0.0
        overlap = 0.0
        for prev, nxt in zip(ordered, ordered[1:]):
            delta = nxt.start - prev.end
            if delta > 0:
                gap += delta
            else:
                overlap += -delta
        self.gap_seconds = gap
        self.overlap_seconds = overlap
        stages_by_hop: Dict[int, Set[str]] = {}
        for s in ordered:
            stages_by_hop.setdefault(s.hop, set()).add(s.stage)
        self.complete = bool(ordered) and hops == list(range(len(hops))) and all(
            stages_by_hop[h] == set(STAGES) for h in hops
        )

    @property
    def duration(self) -> float:
        """End-to-end seconds, first stage open to last stage close."""
        return max(0.0, self.end - self.start)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-friendly form."""
        return {
            "trace_id": self.trace_id,
            "workers": list(self.workers),
            "hops": self.hops,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "gap_seconds": self.gap_seconds,
            "overlap_seconds": self.overlap_seconds,
            "complete": self.complete,
            "spans": [s.as_dict() for s in self.spans],
        }

    def __repr__(self) -> str:
        return (
            f"StitchedTrace(trace={self.trace_id} hops={self.hops} "
            f"workers={self.workers} {self.duration * 1e3:.3f}ms "
            f"complete={self.complete})"
        )


def stitch_spans(trace_id: int, spans: Sequence[SpanRecord]) -> StitchedTrace:
    """Stitch one trace's spans (from any number of workers)."""
    return StitchedTrace(trace_id, spans)


def stitch(collector: TraceCollector) -> List[StitchedTrace]:
    """Stitch every trace in ``collector``, ordered by trace id."""
    return [
        StitchedTrace(tid, spans)
        for tid, spans in sorted(collector.traces().items())
    ]
