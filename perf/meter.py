"""Per-process measurement: the in-run speed probe and the job's CPU window.

This box's speed moves by tens of percent within seconds, CPU time
included, so a calibration before or after a trial says little about
the trial.  :class:`SpeedProbe` instead runs a frozen loop *during* the
job, on a thread of every process that hosts benchmark operators, and
times it with ``thread_time`` so waiting for the GIL or the CPU is
excluded.  It fires on a fixed period, so its cost is a constant share
of the trial (``PROBE_LOOPS`` every ``PROBE_PERIOD`` is about 4 %)
however fast the code under test becomes; that share is subtracted from
the job's CPU.

:class:`ProcessMeter` brackets the job inside one process: it opens at
the first operator ``setup`` and closes at the first ``teardown`` (the
job has quiesced by then), and writes what it saw when the last
operator of the process has torn down.
"""

from __future__ import annotations

import json
import os
import resource
import threading
import time

#: Iterations of one probe.  With the loop body this is frozen like a
#: wire format: it is ``repro.bench.harness.calibration_score``'s loop,
#: and changing either invalidates every recorded number.
PROBE_LOOPS = 4_000
PROBE_PERIOD = 0.01
#: Every speed-dependent metric is reported as if the probe ran at this
#: many million iterations per second.
REF_MLOOPS = 10.0
#: When the machine is disturbed the program slows down more than the
#: probe's L1-resident loop does: over 40 runs, rates of CPU work went
#: with speed**1.4 to speed**2.1 (README.md, "Speed normalisation").
RATE_SENSITIVITY = 1.5


def at_reference(cpu_cost: float, speed_mloops: float) -> float:
    """A CPU cost (seconds per something) measured while the probe ran
    at ``speed_mloops``, as it would read at ``REF_MLOOPS``."""
    return cpu_cost * (speed_mloops / REF_MLOOPS) ** RATE_SENSITIVITY


def probe_once() -> float:
    """CPU-seconds this thread needs for the frozen loop."""
    acc = 0
    t0 = time.thread_time()
    for i in range(PROBE_LOOPS):
        acc += (i ^ (i >> 3)) & 0xFF
    return time.thread_time() - t0


class SpeedProbe:
    """Runs :func:`probe_once` every ``PROBE_PERIOD`` until stopped."""

    def __init__(self) -> None:
        self.cpu_seconds = 0.0
        self.count = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="perf-speed-probe", daemon=True
        )

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        while not self._stop.wait(PROBE_PERIOD):
            self.cpu_seconds += probe_once()
            self.count += 1


def _stamp() -> dict:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {
        "wall": time.monotonic(),
        "cpu": time.process_time(),
        "nvcsw": usage.ru_nvcsw,
        "nivcsw": usage.ru_nivcsw,
    }


class ProcessMeter:
    """CPU, context switches, peak RSS and probe totals of one process
    between its first operator ``setup`` and first ``teardown``."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._open = 0
        self._start: dict | None = None
        self._end: dict | None = None
        self._probe: SpeedProbe | None = None

    def enter(self) -> None:
        """An operator of this process is being set up."""
        with self._lock:
            self._open += 1
            if self._start is None:
                self._probe = SpeedProbe()
                self._probe.start()
                self._start = _stamp()

    def leave(self, out_dir: str) -> None:
        """An operator of this process is being torn down; the last one
        writes ``proc-<pid>.json`` into ``out_dir``."""
        with self._lock:
            assert self._start is not None and self._probe is not None
            if self._end is None:
                self._end = _stamp()
                self._probe.stop()
            self._open -= 1
            if self._open > 0:
                return
            start, end, probe = self._start, self._end, self._probe
        report = {key: end[key] - start[key] for key in start}
        report.update(
            pid=os.getpid(),
            probe_cpu=probe.cpu_seconds,
            probe_loops=probe.count * PROBE_LOOPS,
            # ru_maxrss is KiB on Linux.
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
        with open(os.path.join(out_dir, f"proc-{os.getpid()}.json"), "w") as fh:
            json.dump(report, fh)


#: One meter per process: it is the process that is being measured.
PROCESS_METER = ProcessMeter()
