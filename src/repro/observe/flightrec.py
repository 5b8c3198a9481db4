"""Black-box flight recorder: post-mortems for killed worker processes.

A SIGKILLed worker gets no chance to say goodbye — the chaos suite
proves the *data plane* survives (ack-replay, exactly-once), but until
now the kill left no observability record at all.  The
:class:`FlightRecorder` fixes that the way aircraft do: continuously
persist a bounded window of recent state, atomically, so whatever
killed the process finds the last periodic dump on disk.

Covered exits:

==============  =====================================================
exit path       mechanism
==============  =====================================================
SIGKILL / OOM   last *periodic* dump (written every ``every`` seconds
                via atomic ``os.replace``, so a kill mid-write leaves
                the previous complete dump, never a torn file)
SIGTERM         signal handler dumps ``reason="sigterm"`` then exits
normal exit     ``atexit`` hook dumps ``reason="atexit"``
hard crash      ``faulthandler`` traceback into ``<path>.crash``
coordinator     ``flight_dump`` control command (``kill_worker``
                requests one before delivering the signal)
==============  =====================================================

Dumps are JSON (``neptune-flight/1``): the worker's recent timeline
events, recent trace spans, instrument snapshot, and SLO monitor
states.  :func:`merge_flight_dumps` folds any number of per-worker
dumps into the exact snapshot shape ``repro doctor --from-dump``
already consumes, so post-hoc multi-worker diagnosis works from the
black boxes alone.
"""

from __future__ import annotations

import atexit
import faulthandler
import json
import os
import signal
import threading
from typing import Any, Callable, Dict, IO, List, Mapping, Optional, Tuple

from repro.observe.bridge import registry_series, scrape_observer
from repro.observe.observer import RuntimeObserver
from repro.observe.tracing import STAGES

__all__ = [
    "FLIGHT_SCHEMA",
    "FlightRecorder",
    "load_flight_dir",
    "load_flight_dump",
    "merge_flight_dumps",
]

#: Schema tag on every dump file.
FLIGHT_SCHEMA = "neptune-flight/1"

_STAGE_ORDER: Dict[str, int] = {stage: i for i, stage in enumerate(STAGES)}


class FlightRecorder:
    """Bounded, continuously-persisted observability ring for one worker.

    ``install()`` hooks SIGTERM/atexit/faulthandler (call it from the
    process main thread — signal handlers cannot be installed
    elsewhere, in which case the SIGTERM hook is skipped and the
    periodic dump still covers the exit).  ``start()`` launches the
    periodic dump thread.  ``dump(reason)`` is safe from any thread
    and never raises on behalf of observability.
    """

    def __init__(
        self,
        observer: RuntimeObserver,
        path: str,
        worker_id: int = 0,
        max_events: int = 512,
        max_spans: int = 1024,
        every: float = 1.0,
        series_fn: Optional[Callable[[], List[Dict[str, Any]]]] = None,
        monitors_fn: Optional[Callable[[], List[Dict[str, Any]]]] = None,
    ) -> None:
        if every <= 0:
            raise ValueError(f"every must be positive: {every}")
        self.observer = observer
        self.path = path
        self.worker_id = int(worker_id)
        self.max_events = max_events
        self.max_spans = max_spans
        self.every = every
        self.series_fn = series_fn
        self.monitors_fn = monitors_fn
        self.dumps = 0
        self.dump_errors = 0
        self.last_reason: Optional[str] = None
        self._crash_file: Optional[IO[str]] = None
        self._prev_sigterm: Any = None
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # -- dumping -----------------------------------------------------------
    def dump(self, reason: str) -> Optional[str]:
        """Write one atomic dump; returns the path, or None on failure.

        The payload is built outside the lock (registry/timeline take
        their own locks, and ``series_fn`` may call back into runtime
        objects); only the file write is serialized — the periodic
        thread, a SIGTERM handler, and a coordinator request may race —
        and it goes to a temp file first so a kill mid-write can never
        tear the last good dump.
        """
        try:
            payload = self._payload(reason)
        except Exception:
            with self._lock:
                self.dump_errors += 1
            return None
        with self._lock:
            try:
                payload["dumps"] = self.dumps + 1
                tmp = self.path + ".tmp"
                with open(tmp, "w", encoding="utf-8") as fh:
                    json.dump(payload, fh, default=str)
                os.replace(tmp, self.path)
                self.dumps += 1
                self.last_reason = reason
                return self.path
            except Exception:
                self.dump_errors += 1
                return None

    def _payload(self, reason: str) -> Dict[str, Any]:
        wid = str(self.worker_id)
        events = self.observer.timeline.snapshot()[-self.max_events :]
        spans = self.observer.collector.all_spans()
        spans.sort(key=lambda s: (s.end, s.trace_id))
        spans = spans[-self.max_spans :]
        scrape_observer(self.observer)
        if self.series_fn is not None:
            try:
                instruments = list(self.series_fn())
            except Exception:
                instruments = registry_series(
                    self.observer.registry, {"worker": wid}
                )
        else:
            instruments = registry_series(self.observer.registry, {"worker": wid})
        monitors: List[Dict[str, Any]] = []
        if self.monitors_fn is not None:
            try:
                monitors = list(self.monitors_fn())
            except Exception:
                monitors = []
        span_dicts: List[Dict[str, Any]] = []
        for span in spans:
            d = dict(span.as_dict())
            d.setdefault("worker", wid)
            span_dicts.append(d)
        event_dicts: List[Dict[str, Any]] = []
        for event in events:
            d = dict(event.as_dict())
            attrs = dict(d.get("attrs") or {})  # type: ignore[arg-type]
            attrs.setdefault("worker", wid)
            d["attrs"] = attrs
            event_dicts.append(d)
        profile: Optional[Dict[str, Any]] = None
        profiler = getattr(self.observer, "profiler", None)
        if profiler is not None:
            try:
                profile = profiler.flight_section()
            except Exception:
                profile = None
        return {
            "schema": FLIGHT_SCHEMA,
            "worker": self.worker_id,
            "ts": self.observer.clock.now(),
            "reason": reason,
            "dumps": 0,  # stamped under the lock in dump()
            "events": event_dicts,
            "spans": span_dicts,
            "instruments": instruments,
            "monitors": monitors,
            "profile": profile,
            "timeline_dropped": self.observer.timeline.dropped,
        }

    # -- exit hooks --------------------------------------------------------
    def install(self) -> None:
        """Hook SIGTERM, atexit, and faulthandler.

        SIGTERM: dump then re-deliver default behaviour via
        ``SystemExit(143)`` so the worker's ``finally`` blocks still
        run.  faulthandler writes the crashing thread's traceback to
        ``<path>.crash`` (the periodic dump holds the telemetry side
        of the post-mortem).
        """
        atexit.register(self._on_atexit)
        try:
            self._prev_sigterm = signal.signal(signal.SIGTERM, self._on_sigterm)
        except ValueError:
            self._prev_sigterm = None  # not the main thread: skip
        try:
            self._crash_file = open(self.path + ".crash", "w", encoding="utf-8")
            faulthandler.enable(self._crash_file)
        except Exception:
            self._crash_file = None

    def _on_sigterm(self, signum: int, frame: Any) -> None:
        self.dump("sigterm")
        raise SystemExit(143)

    def _on_atexit(self) -> None:
        self.dump("atexit")

    # -- periodic loop -----------------------------------------------------
    def start(self) -> None:
        """Launch the periodic dump thread. Idempotent."""
        if self._thread is not None and self._thread.is_alive():
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="neptune-flightrec", daemon=True
        )
        self._thread.start()

    def stop(self, timeout: float = 5.0) -> None:
        """Stop the periodic thread (the atexit dump still fires)."""
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout)
        self._thread = None

    def _run(self) -> None:
        while not self._stop.wait(self.every):
            self.dump("periodic")


def load_flight_dump(path: str) -> Dict[str, Any]:
    """Read one dump file (raises on unreadable/invalid JSON)."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"flight dump {path!r} is not a JSON object")
    return data


def load_flight_dir(path: str) -> List[Dict[str, Any]]:
    """Every flight dump among the ``*.json`` files of a directory, in
    name order.  Files that are unreadable, not JSON, or some other
    schema are skipped: a ``--flight-dir`` also holds half-written
    dumps of workers that died mid-write."""
    dumps: List[Dict[str, Any]] = []
    for name in sorted(os.listdir(path)):
        if not name.endswith(".json"):
            continue
        try:
            dump = load_flight_dump(os.path.join(path, name))
        except (OSError, ValueError):
            continue
        if dump.get("schema") == FLIGHT_SCHEMA:
            dumps.append(dump)
    return dumps


def merge_flight_dumps(dumps: List[Mapping[str, Any]]) -> Dict[str, Any]:
    """Fold per-worker flight dumps into one doctor-consumable snapshot.

    The output matches :func:`repro.observe.export.snapshot`'s shape
    (``instruments`` / ``timeline`` / ``traces``), so
    ``diagnose(merge_flight_dumps(...))`` works unchanged.  Spans are
    deduplicated by identity (overlapping dump windows from a worker
    that dumped both periodically and on request), events are merged
    in timestamp order, and a ``flight`` block records which workers
    and dump reasons contributed.
    """
    timeline: List[Dict[str, Any]] = []
    traces: Dict[str, List[Dict[str, Any]]] = {}
    instruments: List[Dict[str, Any]] = []
    seen_spans: set[Tuple[Any, Any, Any, Any]] = set()
    workers: List[int] = []
    reasons: Dict[str, str] = {}
    profiles: Dict[str, Dict[str, Any]] = {}
    dropped = 0
    for dump in dumps:
        if dump.get("schema") != FLIGHT_SCHEMA:
            continue
        wid = int(dump.get("worker", -1))
        workers.append(wid)
        reasons[str(wid)] = str(dump.get("reason", ""))
        profile = dump.get("profile")
        if isinstance(profile, Mapping):
            profiles[str(wid)] = dict(profile)
        dropped += int(dump.get("timeline_dropped", 0) or 0)
        for raw in dump.get("events") or []:
            timeline.append(dict(raw))
        for raw in dump.get("spans") or []:
            key = (
                raw.get("trace_id"),
                raw.get("hop"),
                raw.get("stage"),
                raw.get("operator"),
            )
            if key in seen_spans:
                continue
            seen_spans.add(key)
            traces.setdefault(str(raw.get("trace_id")), []).append(dict(raw))
        instruments.extend(dict(raw) for raw in dump.get("instruments") or [])
    timeline.sort(key=lambda e: float(e.get("ts") or 0.0))
    for spans in traces.values():
        spans.sort(
            key=lambda s: (
                int(s.get("hop") or 0),
                _STAGE_ORDER.get(str(s.get("stage")), 99),
            )
        )
    return {
        "instruments": instruments,
        "timeline": timeline,
        "timeline_evicted": 0,
        "timeline_dropped": dropped,
        "traces": traces,
        "traces_dropped_spans": 0,
        "flight": {"workers": sorted(workers), "reasons": reasons},
        "profiles": profiles,
    }
