"""Black-box flight recorder: post-mortems for killed worker processes.

A SIGKILLed worker gets no chance to say goodbye — the chaos suite
proves the *data plane* survives (ack-replay, exactly-once), but the
kill would leave no observability record at all.  The
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

A dump is the worker's telemetry envelope
(:meth:`~repro.observe.collector.DeltaSource.snapshot` — what the
``snapshot`` control command returns) written to disk: the same file
format as ``repro doctor --dump``, read back by
:func:`repro.observe.export.load_snapshots` and merged by the same
:class:`~repro.observe.collector.ClusterCollector` that merges a live
cluster, so ``repro doctor --from-dump DIR`` diagnoses from the black
boxes alone.
"""

from __future__ import annotations

import atexit
import faulthandler
import json
import os
import signal
import threading
from typing import IO, Any, Optional

from repro.observe.collector import DeltaSource

__all__ = ["FlightRecorder"]

#: ``neptune_internal_errors_total`` sites :attr:`dump_errors` sums.
_DUMP_SITES = ("flightrec.build", "flightrec.write")


class FlightRecorder:
    """Bounded, continuously-persisted telemetry of one worker.

    ``source`` builds what is persisted; the recorder owns when, where
    and how safely.  ``install()`` hooks SIGTERM/atexit/faulthandler
    (call it from the process main thread — signal handlers cannot be
    installed elsewhere, in which case the SIGTERM hook is skipped and
    the periodic dump still covers the exit).  ``start()`` launches the
    periodic dump thread.  ``dump(reason)`` is safe from any thread
    and never raises on behalf of observability.
    """

    def __init__(
        self,
        source: DeltaSource,
        path: str,
        every: float = 1.0,
        max_events: int = 512,
        max_spans: int = 1024,
    ) -> None:
        if every <= 0:
            raise ValueError(f"every must be positive: {every}")
        self.source = source
        self.path = path
        self.every = every
        self.max_events = max_events
        self.max_spans = max_spans
        self.dumps = 0
        self.last_reason: Optional[str] = None
        self._crash_file: Optional[IO[str]] = None
        self._prev_sigterm: Any = None
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    @property
    def dump_errors(self) -> int:
        """Dumps that failed (building or writing): the
        ``neptune_internal_errors_total`` counter, summed over both."""
        return self.source.observer.internal_errors(*_DUMP_SITES)

    # -- dumping -----------------------------------------------------------
    def dump(self, reason: str) -> Optional[str]:
        """Write one atomic dump; returns the path, or None on failure.

        The envelope is built outside the lock (registry/timeline take
        their own locks, and the source calls back into runtime
        objects) and without collapsed stacks (this runs every
        ``every`` seconds); only the file write is serialized — the
        periodic thread, a SIGTERM handler, and a coordinator request
        may race — and it goes to a temp file first so a kill mid-write
        can never tear the last good dump.  A failure is counted and
        put on the timeline, so the next dump that succeeds carries it.
        """
        observer = self.source.observer
        try:
            envelope = self.source.snapshot(
                self.max_events, self.max_spans, reason, stacks=False
            )
        except Exception as exc:
            observer.internal_error("flightrec.build", exc)
            return None
        with self._lock:
            try:
                tmp = self.path + ".tmp"
                with open(tmp, "w", encoding="utf-8") as fh:
                    json.dump(envelope, fh, default=str)
                os.replace(tmp, self.path)
            except Exception as exc:
                observer.internal_error("flightrec.write", exc)
                return None
            self.dumps += 1
            self.last_reason = reason
            return self.path

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
        except OSError as exc:
            self.source.observer.internal_error("flightrec.crash_file", exc)

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
