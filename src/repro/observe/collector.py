"""The telemetry envelope: one builder on the worker, one merge.

What a worker saw — its instrument series, the trace spans it closed,
its timeline events, its SLO monitor states, its profile — travels as
one JSON envelope (``neptune-telemetry/1``; DESIGN.md §14 has the
field table) whoever asks and wherever it goes: the cluster collector
polling over the control channel, the flight recorder persisting a
black box, ``repro doctor --dump`` writing a file.

- :class:`DeltaSource` is the only builder.  ``collect()`` is the
  cursor-advancing view the one collector polls: absolute series plus
  the spans and events added since the previous collect.
  ``snapshot()`` is the non-advancing view: the same envelope over a
  bounded tail of everything retained, plus the profile.  Both stamp a
  per-source monotonic ``seq``.
- :class:`ClusterCollector` is the only merge.  Series are absorbed
  never-backwards from the newest envelope of a worker
  (:func:`~repro.observe.bridge.absorb_series`), spans are a set keyed
  by identity (a restart and ack-replay re-execute hops), events are
  taken once by their ordinal, and a cluster-scope
  :class:`~repro.observe.health.HealthEngine` scans the merged
  registry, so a breach on one worker is judged against gates and
  stalls on another.  :meth:`ClusterCollector.replay` feeds envelopes
  read back from disk through the same ``absorb``: a post-mortem *is*
  the live merge, not a copy of it.
- :func:`stitch` groups the merged spans into :class:`StitchedTrace`
  objects — single causal traces whose stages tile end-to-end across
  process boundaries (``CLOCK_MONOTONIC`` is machine-wide, and the
  runtime closes a hop's ``execute`` stage at the exact timestamp the
  derived packet's ``serialize`` stage opens).

Everything here is scan-time work on control threads: the data plane's
hot paths are never touched, which is what the collector rows of the
overhead gate assert.

All runtime objects (workers, proxies) are duck-typed ``Any``: the
observe package never imports ``repro.core``/``repro.cluster``.
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
    Set,
    Tuple,
)

from repro.observe.bridge import (
    absorb_series,
    registry_series,
    scrape_observer,
    scrape_worker,
)
from repro.observe.health import SLO, HealthEngine
from repro.observe.instruments import TelemetryRegistry
from repro.observe.observer import RuntimeObserver
from repro.observe.profiler import merge_profile_snapshots
from repro.observe.tracing import STAGES, SpanRecord, TraceCollector

__all__ = [
    "TELEMETRY_SCHEMA",
    "ClusterCollector",
    "DeltaSource",
    "StitchedTrace",
    "stitch",
    "stitch_spans",
]

#: Schema tag on every envelope (a reader refuses what it does not
#: understand, by name: there is no converter).
TELEMETRY_SCHEMA = "neptune-telemetry/1"

_STAGE_ORDER: Dict[str, int] = {stage: i for i, stage in enumerate(STAGES)}

#: Identity of one span: a worker restart re-executes hops and
#: ack-replay re-delivers frames, so the same logical span can be built
#: twice — but never with a different (trace, hop, stage, operator).
_SpanKey = Tuple[int, int, str, str]

#: Span identities a :class:`ClusterCollector` remembers for dedup; past
#: this many, new spans are merged without being remembered.
MAX_SPAN_KEYS = 65536

_DROPPED = ("events_dropped", "spans_dropped")

#: ``neptune_internal_errors_total`` sites :attr:`fetch_errors` sums.
_POLL_SITES = ("collector.fetch", "collector.scan", "collector.hook", "collector.poll")

def _identity(envelope: Mapping[str, Any]) -> Tuple[int, int, int]:
    """(worker, incarnation, seq) of an envelope; worker -1 stands for
    None: an observer that is nobody's shard (one process's runtime, a
    collector's merged view), whose telemetry gets no worker label."""
    worker = envelope.get("worker")
    return (
        -1 if worker is None else int(worker),
        int(envelope.get("incarnation", 0)),
        int(envelope.get("seq", 0)),
    )


class DeltaSource:
    """The builder of an observer's telemetry envelope.

    One per worker process, the ``delta_source`` behind a
    :class:`~repro.core.distributed.DistributedWorker`'s ``collect`` /
    ``snapshot`` and its flight recorder; one made on the spot for an observer that is nobody's
    shard (:func:`repro.observe.export.snapshot`).  Envelopes are built
    on control threads — never the data plane — and the polled view's
    cost is accounted in ``build_seconds`` so the overhead gate can
    bound its duty cycle.
    """

    def __init__(
        self,
        observer: RuntimeObserver,
        worker_id: Optional[int] = None,
        worker: Any = None,
        health: Optional[HealthEngine] = None,
        incarnation: int = 0,
    ) -> None:
        self.observer = observer
        self.worker_id = None if worker_id is None else int(worker_id)
        self.worker = worker
        self.health = health
        #: Process (re)spawn count of this shard; stamped on every
        #: envelope so the coordinator can fence a dead incarnation's
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
        """The polled view: absolute series plus the spans and events
        added since the previous collect (cursor-based: each ships
        once).  No profile — its totals ride the series, and stacks
        are too heavy per poll."""
        t0 = time.perf_counter()
        c0 = time.thread_time()
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
        envelope = self._envelope("collect", spans, self._event_cursor)
        events = envelope["events"]
        with self._lock:
            if events:
                self._event_cursor = events[-1]["n"]
            self.collects += 1
            self.spans_shipped += len(spans)
            self.events_shipped += len(events)
            self.build_seconds += time.perf_counter() - t0
            self.build_cpu_seconds += time.thread_time() - c0
            self._last_ts = self.observer.clock.now()
        return envelope

    def snapshot(
        self,
        max_events: Optional[int] = None,
        max_spans: Optional[int] = None,
        reason: str = "snapshot",
        stacks: bool = True,
    ) -> Dict[str, Any]:
        """The standing view: the same envelope over the newest
        ``max_events`` events and ``max_spans`` most recently closed
        spans retained (None: all), plus the profile (collapsed stacks
        unless ``stacks`` is off).  Moves no cursor: whatever it shows,
        the next :meth:`collect` still ships."""
        spans = self.observer.collector.all_spans()
        if max_spans is not None:
            spans.sort(key=lambda s: (s.end, s.trace_id))
            spans = spans[max(0, len(spans) - max_spans) :]
        profiler = self.observer.profiler
        profile = None if profiler is None else profiler.snapshot(stacks)
        return self._envelope(reason, spans, 0, max_events, profile)

    def _envelope(
        self,
        reason: str,
        spans: List[SpanRecord],
        seen_events: int,
        max_events: Optional[int] = None,
        profile: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        labels = None if self.worker_id is None else {"worker": str(self.worker_id)}
        # Series first: what scraping them swallows is on the timeline
        # before the events are read, so this very envelope carries it.
        scrape_observer(self.observer)
        series: List[Dict[str, Any]] = []
        if self.worker is not None:
            try:
                hosted = TelemetryRegistry()
                scrape_worker(hosted, self.worker)  # labels worker=N itself
                series.extend(registry_series(hosted))
            except Exception as exc:  # a runtime torn down mid-scrape
                self.observer.internal_error("source.scrape_worker", exc)
        series.extend(registry_series(self.observer.registry, labels))
        events, recorded = self.observer.timeline.events_since(seen_events)
        if max_events is not None:
            events = events[max(0, len(events) - max_events) :]
        # The ordinal (``events`` end at the ``recorded``-th) lets the
        # merge take each event once out of overlapping tails.
        first = recorded - len(events) + 1
        with self._lock:
            self._seq += 1
            seq = self._seq
        return {
            "schema": TELEMETRY_SCHEMA,
            "worker": self.worker_id,
            "incarnation": self.incarnation,
            "seq": seq,
            "ts": self.observer.clock.now(),
            "reason": reason,
            "series": series,
            "spans": [{**s.as_dict(), **(labels or {})} for s in spans],
            "events": [{**e.as_dict(), "n": first + i} for i, e in enumerate(events)],
            "monitors": [dict(m.as_dict()) for m in getattr(self.health, "monitors", ())],
            "profile": profile,
            "events_dropped": self.observer.timeline.dropped,
            "spans_dropped": self.observer.collector.dropped,
        }

    def info(self) -> Dict[str, Any]:
        """Cheap status summary (``repro cluster status``)."""
        profiler = self.observer.profiler
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
    """The merge point for every worker's envelopes.

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
        self._fetch: Dict[int, Callable[[], Optional[Mapping[str, Any]]]] = {}
        self._last_seq: Dict[int, int] = {}
        # Expected incarnation per worker.  Absent → learn from the
        # first envelope seen (in-process harnesses never restart); set
        # by reset_worker so a dead incarnation's in-flight delta
        # cannot be absorbed under the fresh worker's label.
        self._incarnation: Dict[int, int] = {}
        self.fenced = 0
        self._last_at: Dict[int, float] = {}
        self._seen_spans: Set[_SpanKey] = set()
        # Per (worker, incarnation): the highest event ordinal taken,
        # and what its newest envelope said about itself, its monitors
        # and its profile (last writer wins; spans/events accumulate).
        self._event_hwm: Dict[Tuple[int, int], int] = {}
        self._sources: Dict[Tuple[int, int], Dict[str, Any]] = {}
        self._profiles: Dict[Tuple[int, int], Dict[str, Any]] = {}
        self._monitors: Dict[Tuple[int, str], Dict[str, Any]] = {}
        # Guards the cursors/stats above.  Never held while touching
        # the observer (registry/timeline take their own locks).
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        #: Optional hook called after each health scan with
        #: ``(scan_index, transitions)`` — the policy engine's tap.  Runs
        #: on the poll thread; an exception is counted and put on the
        #: timeline (observability must never kill the poll loop, and
        #: neither may policy).
        self.on_scan: Optional[Callable[[int, List[Tuple[str, str]]], None]] = None

    @classmethod
    def replay(cls, envelopes: Iterable[Mapping[str, Any]]) -> "ClusterCollector":
        """A fresh collector that has absorbed ``envelopes`` (read back
        by :func:`repro.observe.export.load_snapshots`) in the order a
        live one would have met them: per worker, by incarnation, by
        ``seq``.  Where the incarnation changes it does what the
        coordinator does on a restart — :meth:`reset_worker` — so the
        dead incarnation's spans and events stay merged (they are the
        post-mortem) while the fence moves on to its successor."""
        collector = cls()
        for envelope in sorted(envelopes, key=_identity):
            worker, incarnation, _seq = _identity(envelope)
            if collector._incarnation.get(worker, incarnation) != incarnation:
                collector.reset_worker(worker, incarnation)
            collector.absorb(envelope)
        return collector

    @property
    def fetch_errors(self) -> int:
        """Exceptions the poll loop swallowed (fetch, scan, hook): the
        ``neptune_internal_errors_total`` counter, summed over them."""
        return self.observer.internal_errors(*_POLL_SITES)

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

    def reset_worker(self, worker_id: int, incarnation: Optional[int] = None) -> None:
        """Forget a worker's envelope sequence cursor.

        Call after restarting a worker process: the fresh process
        restarts its ``seq`` at 1, which would otherwise look like a
        stale re-delivery forever.  Span dedup (by span identity) still
        protects against the restart re-shipping hops the dead
        incarnation already shipped.

        ``incarnation`` (the new process's spawn count) arms the fence:
        a delta still in flight from the *old* incarnation — fetched
        before the kill, absorbed after this reset — would otherwise
        land under the new worker label with a high ``seq``, silently
        burying the new incarnation's restarted sequence.  With the
        fence armed, any envelope whose incarnation differs from the
        expected one is dropped (counted in ``fenced``).  Call this
        *before* splicing in the fresh control proxy so no window
        exists in which an old delta can slip through.
        """
        with self._lock:
            self._last_seq.pop(worker_id, None)
            if incarnation is None:
                self._incarnation.pop(worker_id, None)
            else:
                self._incarnation[worker_id] = int(incarnation)

    # -- merging -----------------------------------------------------------
    def absorb(self, delta: Mapping[str, Any]) -> bool:
        """Merge one envelope; False if it was stale or fenced.

        Stale means a ``seq`` at or below the last absorbed one for
        that worker — what re-delivery looks like.  A stale envelope
        moves nothing that is last-writer-wins (series, monitors,
        profile), and nothing else either when it really is a
        re-delivery: spans merge by identity and events by ordinal, so
        the whole message is idempotent, in any order.

        An envelope whose ``incarnation`` does not match the expected
        one for that worker (armed by :meth:`reset_worker` after a
        restart) is fenced whole: it was built by a process that no
        longer exists, and absorbing it would poison the fresh
        incarnation's sequence cursor.
        """
        worker, incarnation, seq = _identity(delta)
        label = None if worker < 0 else str(worker)
        source = (worker, incarnation)
        with self._lock:
            expected = self._incarnation.get(worker)
            if expected is None:
                self._incarnation[worker] = incarnation
            elif incarnation != expected:
                self.fenced += 1
                return False
            fresh = seq > self._last_seq.get(worker, 0)
            if fresh:
                self._last_seq[worker] = seq
            else:
                self.stale += 1
            taken = self._event_hwm.get(source, 0)
        if fresh:
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
                    worker=raw.get("worker", label),
                )
            except (KeyError, TypeError, ValueError):
                continue
            with self._lock:
                if key in self._seen_spans:
                    continue
                if len(self._seen_spans) < MAX_SPAN_KEYS:
                    self._seen_spans.add(key)
            by_tid.setdefault(key[0], []).append(span)
        for spans in by_tid.values():
            self.observer.collector.add(spans)
        newest = taken
        for raw in delta.get("events") or []:
            ordinal = int(raw.get("n", 0))  # 0: hand-built, no ordinal
            if 0 < ordinal <= taken:
                continue
            newest = max(newest, ordinal)
            attrs = dict(raw.get("attrs") or {})
            if label is not None:
                attrs.setdefault("worker", label)
            self.observer.timeline.record_at(
                float(raw.get("ts", 0.0)),
                str(raw.get("category", "")),
                str(raw.get("name", "")),
                attrs,
            )
        now = self.observer.clock.now()
        profile = delta.get("profile")
        with self._lock:
            self._event_hwm[source] = max(self._event_hwm.get(source, 0), newest)
            if not fresh:
                return False
            for mon in delta.get("monitors") or []:
                wid = mon.get("worker")  # a merged envelope's say whose
                key = (worker if wid is None else int(wid), str(mon.get("slo", "")))
                self._monitors[key] = dict(mon)
            if isinstance(profile, Mapping):
                self._profiles[source] = dict(profile)
            self._sources[source] = {
                k: delta.get(k)
                for k in ("worker", "incarnation", "seq", "ts", "reason", *_DROPPED)
            }
            self._last_at[worker] = now
            self.absorbed += 1
        return True

    def poll_once(self) -> int:
        """Fetch + absorb from every attached worker, then scan SLOs.

        A worker whose fetch fails (severed control socket, mid-kill)
        is skipped: the poll never raises on behalf of observability,
        and never fails silently (every exception is counted, the first
        per site per poll also lands on the timeline).  Returns the
        number of envelopes absorbed.
        """
        t0 = time.perf_counter()
        c0 = time.thread_time()
        with self._lock:
            fetchers = list(self._fetch.items())
        absorbed = 0
        fetch_secs = 0.0
        failed = False
        for _worker_id, fetch in fetchers:
            f0 = time.perf_counter()
            try:
                delta = fetch()
            except Exception as exc:
                self.observer.internal_error("collector.fetch", exc, event=not failed)
                failed = True
                continue
            finally:
                fetch_secs += time.perf_counter() - f0
            if delta is not None and self.absorb(delta):
                absorbed += 1
        if self.health is not None:
            try:
                transitions = self.health.scan_once()
            except Exception as exc:
                self.observer.internal_error("collector.scan", exc)
            else:
                hook = self.on_scan
                if hook is not None:
                    try:
                        hook(self.health.scans, transitions)
                    except Exception as exc:
                        self.observer.internal_error("collector.hook", exc)
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
            monitors = sorted(self._monitors.items())
        return [
            {**state, "worker": None if wid < 0 else wid}
            for (wid, _slo), state in monitors
        ]

    def profile(self) -> Optional[Dict[str, Any]]:
        """Every absorbed profile section merged into one (each
        incarnation of a restarted worker counts: both burnt the CPU);
        None when no envelope carried one."""
        with self._lock:
            sections = {
                ("local" if w < 0 else str(w)) + (f"/i{i}" if i else ""): section
                for (w, i), section in self._profiles.items()
            }
        return merge_profile_snapshots(sections) if sections else None

    def snapshot(self) -> Dict[str, Any]:
        """The merged view as one envelope: what ``repro doctor`` reads
        and ``--dump`` writes, of a running cluster and of a replayed
        one.  ``sources`` says what it was merged from (per worker
        incarnation, its newest envelope's header), and the drop
        counters include what the sources had themselves lost."""
        envelope = DeltaSource(self.observer).snapshot()
        with self._lock:
            sources = [dict(self._sources[key]) for key in sorted(self._sources)]
        for counter in _DROPPED:
            envelope[counter] += sum(int(s[counter] or 0) for s in sources)
        envelope["monitors"] = self.worker_monitors()
        envelope["profile"] = self.profile()
        envelope["sources"] = sources
        return envelope

    def status(self) -> Dict[str, Any]:
        """JSON-friendly collector summary."""
        with self._lock:
            stats = {
                "polls": self.polls,
                "absorbed": self.absorbed,
                "stale": self.stale,
                "fenced": self.fenced,
                "poll_seconds": self.poll_seconds,
                "fetch_seconds": self.fetch_seconds,
                "poll_cpu_seconds": self.poll_cpu_seconds,
                "last_seq": dict(self._last_seq),
            }
        out: Dict[str, Any] = dict(stats)
        out["fetch_errors"] = self.fetch_errors
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
            except Exception as exc:
                self.observer.internal_error("collector.poll", exc)


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
