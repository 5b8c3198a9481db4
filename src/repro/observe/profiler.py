"""Continuous sampling profiler: per-operator CPU attribution.

The queueing planes (tracing, health, collector) explain *where packets
wait*; this module explains *where cycles go*.  A background sampler
thread walks :func:`sys._current_frames` at a configurable rate
(default ~50 Hz) and classifies every thread it sees:

- **operator** threads — a worker thread currently inside
  ``_InstanceRuntime.execute`` announces itself through the
  thread-ownership registry (:func:`set_thread_owner` /
  :func:`clear_thread_owner`), so its samples are attributed to the
  operator it is running, not to the pool thread's name;
- **runtime** threads — everything else (flush timers, transport
  readers, control servers …) is attributed to its thread name with
  trailing ``-<digits>`` segments stripped, so labels are byte-stable
  across runs and ports.

Per-thread **on-CPU vs off-CPU** accounting comes from
``/proc/self/task/<native_id>/stat`` utime+stime deltas on Linux (keyed
by :func:`threading.get_native_id`).  Where ``/proc`` is missing — or a
per-thread read fails mid-run — the sampler degrades to *wall-only*
mode: the full sample period is attributed as on-CPU so per-operator
**shares** stay unskewed; only the on/off split is lost (and
``cpu_mode`` says so).

Overhead discipline follows the lock-order sanitizer: the ownership
hooks are gated on a module-level ``_ACTIVE`` flag (a dormant profiler
costs one attribute test per execute), all registry mutation is
GIL-atomic so the hot path takes no lock, and the sampler stretches its
own interval whenever a sweep's CPU cost (its thread's
``time.thread_time``) would push its duty cycle past ``max_duty`` (3%
by default).

Aggregates are bounded everywhere: at most ``max_operators`` labels
(new labels past the cap fold into ``(overflow)``), ``max_stacks``
collapsed stacks per label (overflow folds into ``(other)``), and
``max_frames`` leaf frames per label.  Export paths:

- :meth:`SamplingProfiler.export` publishes ``neptune_profile_*``
  series into a :class:`TelemetryRegistry` (ridden by every telemetry
  envelope with worker labels);
- :meth:`SamplingProfiler.snapshot` is the envelope's ``profile``
  section: the JSON-able per-operator profile ``repro profile`` renders
  (collapsed stacks or speedscope JSON via :func:`speedscope`), with
  the stacks left out where they would be too heavy (every flight
  dump).
"""

from __future__ import annotations

import os
import re
import sys
import threading
import time
from types import FrameType
from typing import Any, Callable, Dict, List, Mapping, Optional, Set, Tuple

from repro.observe.instruments import TelemetryRegistry

__all__ = [
    "SamplingProfiler",
    "set_thread_owner",
    "clear_thread_owner",
    "collapsed",
    "speedscope",
    "merge_profile_snapshots",
]

#: Reserved label for operators past the ``max_operators`` bound.
OVERFLOW_LABEL = "(overflow)"
#: Reserved collapsed-stack key for stacks past the ``max_stacks`` bound.
OTHER_STACK = "(other)"
#: Frames a collapsed stack keeps, counted from the leaf.
STACK_DEPTH = 24

_TRAILING_NUM = re.compile(r"(-\d+)+\Z")
_INSTANCE_SUFFIX = re.compile(r"\[\d+\]\Z")

try:  # pragma: no cover - platform constant
    _CLK_TCK = float(os.sysconf("SC_CLK_TCK"))
except (AttributeError, ValueError, OSError):  # pragma: no cover
    _CLK_TCK = 100.0


# ---------------------------------------------------------------------------
# Thread-ownership registry (hot path)
# ---------------------------------------------------------------------------


class _Owner:
    """Per-thread ownership slot: current operator label + native tid.

    The native id is cached on first registration so the steady-state
    hot path never repeats the ``gettid`` syscall.
    """

    __slots__ = ("label", "native_id")

    def __init__(self, label: Optional[str], native_id: Optional[int]) -> None:
        self.label = label
        self.native_id = native_id


#: True while at least one profiler is sampling.  The runtime tests this
#: before calling the ownership hooks, so a dormant profiler costs one
#: attribute lookup per execute.
_ACTIVE: bool = False
_ACTIVE_COUNT = 0
#: ident -> _Owner.  Mutated GIL-atomically (dict get/set on the owning
#: thread, list() iteration on the sampler) — no lock on the hot path.
_OWNERS: Dict[int, _Owner] = {}


def set_thread_owner(label: str) -> None:
    """Attribute the calling thread's samples to operator ``label``."""
    ident = threading.get_ident()
    owner = _OWNERS.get(ident)
    if owner is None:
        _OWNERS[ident] = _Owner(label, threading.get_native_id())
    else:
        owner.label = label


def clear_thread_owner() -> None:
    """The calling thread left operator code (back to runtime work)."""
    owner = _OWNERS.get(threading.get_ident())
    if owner is not None:
        owner.label = None


def _activate() -> None:
    global _ACTIVE, _ACTIVE_COUNT
    _ACTIVE_COUNT += 1
    _ACTIVE = True


def _deactivate() -> None:
    global _ACTIVE, _ACTIVE_COUNT
    _ACTIVE_COUNT = max(0, _ACTIVE_COUNT - 1)
    if _ACTIVE_COUNT == 0:
        _ACTIVE = False
        _OWNERS.clear()


# ---------------------------------------------------------------------------
# CPU accounting
# ---------------------------------------------------------------------------


def read_task_cpu(native_id: int) -> float:
    """On-CPU seconds (utime+stime) of one thread from ``/proc``.

    Parses after the *last* ``)`` because the comm field may itself
    contain parentheses or spaces.
    """
    with open(f"/proc/self/task/{native_id}/stat", "rb") as fh:
        data = fh.read()
    rest = data[data.rindex(b")") + 1 :].split()
    return (int(rest[11]) + int(rest[12])) / _CLK_TCK


#: Injectable reader, faultable in tests (non-Linux fallback coverage).
StatReader = Callable[[int], float]

#: How a task-stat read fails: no ``/proc``, a thread that just exited,
#: a stat line of another shape.
_STAT_ERRORS = (OSError, ValueError, IndexError)


def _bare_operator(label: str) -> str:
    """``relay[3]`` -> ``relay`` — byte-stable across instance counts."""
    return _INSTANCE_SUFFIX.sub("", label)


def _generic_label(name: str) -> str:
    """``neptune-ctl-52341`` -> ``neptune-ctl`` — byte-stable across ports."""
    return _TRAILING_NUM.sub("", name) or name


def _collapse(frame: Optional[FrameType]) -> Tuple[str, str]:
    """Collapsed root->leaf stack plus the leaf frame label."""
    parts: List[str] = []
    f = frame
    while f is not None and len(parts) < STACK_DEPTH:
        code = f.f_code
        qualname = getattr(code, "co_qualname", code.co_name)
        parts.append(f"{os.path.basename(code.co_filename)}:{qualname}")
        f = f.f_back
    if not parts:
        return "(idle)", "(idle)"
    leaf = parts[0]
    parts.reverse()
    return ";".join(parts), leaf


class _OperatorProfile:
    """Bounded per-label aggregate the sampler feeds."""

    __slots__ = ("kind", "samples", "cpu_seconds", "wall_seconds", "stacks", "top_frames")

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.samples = 0
        self.cpu_seconds = 0.0
        self.wall_seconds = 0.0
        self.stacks: Dict[str, int] = {}
        self.top_frames: Dict[str, int] = {}

    def note(self, stack: str, leaf: str, max_stacks: int, max_frames: int) -> None:
        stacks = self.stacks
        if stack in stacks or len(stacks) < max_stacks:
            stacks[stack] = stacks.get(stack, 0) + 1
        else:
            stacks[OTHER_STACK] = stacks.get(OTHER_STACK, 0) + 1
        frames = self.top_frames
        if leaf in frames or len(frames) < max_frames:
            frames[leaf] = frames.get(leaf, 0) + 1


class SamplingProfiler:
    """Always-available, duty-cycled ``sys._current_frames`` sampler.

    Parameters
    ----------
    hz:
        Target sampling rate while the duty budget allows it.
    max_duty:
        Ceiling on the sampler's own compute as a fraction of wall
        time; sample cost above it stretches the next interval.
    statfn:
        Per-thread CPU reader, injectable for fault tests.  ``None``
        probes :func:`read_task_cpu` at :meth:`start` and falls back to
        wall-only attribution when ``/proc`` is unavailable.
    """

    def __init__(
        self,
        hz: float = 50.0,
        *,
        max_operators: int = 48,
        max_stacks: int = 256,
        max_frames: int = 24,
        max_duty: float = 0.03,
        window_seconds: float = 5.0,
        statfn: Optional[StatReader] = None,
    ) -> None:
        if hz <= 0:
            raise ValueError(f"hz must be positive: {hz}")
        self.hz = float(hz)
        self.max_operators = max_operators
        self.max_stacks = max_stacks
        self.max_frames = max_frames
        self.max_duty = max_duty
        self.window_seconds = window_seconds
        self._statfn = statfn
        self.cpu_mode = "wall"
        self.samples = 0
        self.errors = 0
        self._error: Optional[str] = None  # first sweep exception not yet reported
        self.stat_errors = 0
        self.sample_seconds = 0.0
        self._profiles: Dict[str, _OperatorProfile] = {}
        self._cpu_cursor: Dict[int, float] = {}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._started_at = 0.0
        self._window_index = 0
        self._window_started = 0.0
        self._last_window_ts = 0.0

    # -- lifecycle ---------------------------------------------------------
    @property
    def state(self) -> str:
        return "sampling" if self._thread is not None else "dormant"

    def start(self) -> None:
        """Probe the CPU reader, arm the ownership hooks, spawn the sampler."""
        with self._lock:
            if self._thread is not None:
                return
            statfn = self._statfn if self._statfn is not None else read_task_cpu
            try:
                statfn(threading.get_native_id())
                self.cpu_mode = "task-stat"
            except _STAT_ERRORS:  # no /proc here: a mode, not a failure
                self.cpu_mode = "wall"
            self._statfn = statfn
            self._stop = threading.Event()
            now = time.monotonic()
            self._started_at = now
            self._window_started = now
            self._last_window_ts = now
            _activate()
            self._thread = threading.Thread(
                target=self._run, name="neptune-profiler", daemon=True
            )
            self._thread.start()

    def stop(self, timeout: float = 2.0) -> None:
        """Stop sampling; aggregates survive for export/snapshot."""
        with self._lock:
            thread = self._thread
            if thread is None:
                return
            self._stop.set()
        thread.join(timeout)
        with self._lock:
            self._thread = None
            _deactivate()

    def __enter__(self) -> "SamplingProfiler":
        self.start()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.stop()

    # -- sampler loop ------------------------------------------------------
    def _run(self) -> None:
        period = 1.0 / self.hz
        sleep = period
        last = time.monotonic()
        while not self._stop.wait(sleep):
            now = time.monotonic()
            elapsed = now - last
            last = now
            # Thread CPU time, not wall: a sweep's waits for the
            # interpreter behind a busy thread are not the sampler's
            # compute and must not stretch its interval.
            t0 = time.thread_time()
            try:
                self._sample_once(elapsed)
            except Exception as exc:
                with self._lock:
                    self.errors += 1
                    self._error = self._error or repr(exc)
            cost = time.thread_time() - t0
            with self._lock:
                self.sample_seconds += cost
            # Duty discipline: if one sample cost c, the next interval
            # must be at least c/max_duty for the sampler's own compute
            # to stay under budget.
            sleep = period
            if self.max_duty > 0 and cost / self.max_duty > period:
                sleep = cost / self.max_duty
            if now - self._window_started >= self.window_seconds:
                self._rotate_window(now)

    def _sample_once(self, elapsed: float) -> None:
        frames = sys._current_frames()
        own = threading.get_ident()
        names: Dict[int, Tuple[str, Optional[int]]] = {}
        for t in threading.enumerate():
            ident = t.ident
            if ident is not None:
                names[ident] = (t.name, t.native_id)
        with self._lock:
            self.samples += 1
            for ident, frame in frames.items():
                if ident == own:
                    continue
                owner = _OWNERS.get(ident)
                native: Optional[int]
                if owner is not None and owner.label is not None:
                    label = _bare_operator(owner.label)
                    kind = "operator"
                    native = owner.native_id
                else:
                    info = names.get(ident)
                    if info is None:
                        label, native = "(foreign)", None
                    else:
                        label, native = _generic_label(info[0]), info[1]
                    kind = "runtime"
                prof = self._profiles.get(label)
                if prof is None:
                    if len(self._profiles) >= self.max_operators:
                        label = OVERFLOW_LABEL
                        prof = self._profiles.get(label)
                    if prof is None:
                        prof = _OperatorProfile(kind)
                        self._profiles[label] = prof
                prof.samples += 1
                prof.wall_seconds += elapsed
                prof.cpu_seconds += self._cpu_delta(native, elapsed)
                stack, leaf = _collapse(frame)
                prof.note(stack, leaf, self.max_stacks, self.max_frames)
            # Prune cursors/owners of threads that no longer exist, so
            # a churny pool cannot grow either map without bound.
            live = frames.keys()
            for ident in [i for i in _OWNERS if i not in live]:
                _OWNERS.pop(ident, None)
            natives = {o.native_id for o in _OWNERS.values()}
            natives.update(n for _, n in names.values() if n is not None)
            for tid in [t for t in self._cpu_cursor if t not in natives]:
                self._cpu_cursor.pop(tid, None)

    def _cpu_delta(self, native_id: Optional[int], elapsed: float) -> float:
        """On-CPU seconds this thread accrued since its last sample.

        In wall mode (no ``/proc``, or this thread's read failed) the
        full period counts as on-CPU: shares across operators stay
        honest, only the on/off split is unavailable.
        """
        if self.cpu_mode != "task-stat" or native_id is None:
            return elapsed
        statfn = self._statfn
        assert statfn is not None  # set by start()
        try:
            cur = statfn(native_id)
        except _STAT_ERRORS:
            self.stat_errors += 1
            self._cpu_cursor.pop(native_id, None)
            return elapsed
        prev = self._cpu_cursor.get(native_id)
        self._cpu_cursor[native_id] = cur
        if prev is None:
            return 0.0
        return max(0.0, cur - prev)

    def _rotate_window(self, now: float) -> None:
        """Close the current window (the sampler's sign of life)."""
        with self._lock:
            self._window_index += 1
            self._last_window_ts = now
            self._window_started = now

    # -- export ------------------------------------------------------------
    def window_age(self) -> float:
        """Seconds since the last closed profile window."""
        if self._last_window_ts == 0.0:
            return -1.0
        return max(0.0, time.monotonic() - self._last_window_ts)

    def export(self, registry: TelemetryRegistry) -> None:
        """Publish ``neptune_profile_*`` series (monotonic totals): the
        :meth:`snapshot`, stacks aside, as instruments."""
        snap = self.snapshot(stacks=False)
        for label, op in snap["operators"].items():
            labels = {"operator": label, "kind": op["kind"]}
            for name, key, what in (
                ("neptune_profile_samples_total", "samples", "Stack samples"),
                ("neptune_profile_cpu_seconds_total", "cpu_seconds", "Sampled on-CPU seconds"),
                ("neptune_profile_wall_seconds_total", "wall_seconds", "Sampled wall seconds"),
                (
                    "neptune_profile_off_cpu_seconds_total",
                    "off_cpu_seconds",
                    "Sampled off-CPU (blocked) seconds",
                ),
            ):
                registry.counter(name, labels, f"{what} per operator.").set_total(op[key])
            top = sorted(op["top_frames"].items(), key=lambda kv: (-kv[1], kv[0]))
            for frame, count in top[:5]:
                registry.counter(
                    "neptune_profile_top_frame_samples_total",
                    {"operator": label, "frame": frame},
                    "Samples per leaf frame (top frames only).",
                ).set_total(count)
        for name, value, help_ in (
            (
                "neptune_profile_sampler_state",
                snap["state"] == "sampling",
                "1 while the profiler samples, 0 dormant.",
            ),
            (
                "neptune_profile_cpu_mode",
                snap["cpu_mode"] == "task-stat",
                "1 when per-thread /proc accounting is live, 0 in wall-only mode.",
            ),
            (
                "neptune_profile_window_age_seconds",
                snap["window"]["age_seconds"],
                "Seconds since the last closed profile window.",
            ),
        ):
            registry.gauge(name, None, help_).set(float(value))
        for name, site, total, help_ in (
            (
                "neptune_profile_sampler_samples_total",
                None,
                snap["samples"],
                "Sampler sweeps taken.",
            ),
            (
                "neptune_internal_errors_total",
                {"site": "profiler.sample"},
                snap["errors"],
                "Exceptions swallowed by the observability plane, by site",
            ),
            (
                "neptune_profile_stat_errors_total",
                None,
                snap["stat_errors"],
                "Failed /proc task-stat reads (fell back to wall attribution).",
            ),
            (
                "neptune_profile_sampler_cpu_seconds_total",
                None,
                snap["sample_seconds"],
                "Compute spent inside the sampler itself.",
            ),
        ):
            registry.counter(name, site, help_).set_total(total)

    def take_error(self) -> Optional[str]:
        """The first sweep exception since the last call, if any (the
        scrape puts it on the timeline; ``errors`` counts them all)."""
        with self._lock:
            error, self._error = self._error, None
        return error

    def snapshot(self, stacks: bool = True) -> Dict[str, Any]:
        """The JSON-able profile: per-operator totals and leaf frames
        and — unless ``stacks`` is off — the collapsed stacks a
        flamegraph needs."""
        with self._lock:
            operators: Dict[str, Any] = {}
            for label, prof in sorted(self._profiles.items()):
                operators[label] = {
                    "kind": prof.kind,
                    "samples": prof.samples,
                    "cpu_seconds": prof.cpu_seconds,
                    "wall_seconds": prof.wall_seconds,
                    "off_cpu_seconds": max(0.0, prof.wall_seconds - prof.cpu_seconds),
                    "top_frames": dict(prof.top_frames),
                }
                if stacks:
                    operators[label]["stacks"] = dict(prof.stacks)
            return {
                "state": self.state,
                "hz": self.hz,
                "cpu_mode": self.cpu_mode,
                "samples": self.samples,
                "errors": self.errors,
                "stat_errors": self.stat_errors,
                "sample_seconds": self.sample_seconds,
                "window": {
                    "index": self._window_index,
                    "seconds": self.window_seconds,
                    "age_seconds": self.window_age(),
                },
                "operators": operators,
            }

    def info(self) -> Dict[str, Any]:
        """Cheap status block for ``collect_info`` / ``cluster status``."""
        return {
            "state": self.state,
            "hz": self.hz,
            "cpu_mode": self.cpu_mode,
            "samples": self.samples,
            "errors": self.errors,
            "stat_errors": self.stat_errors,
            "operators": len(self._profiles),
            "window_age_seconds": self.window_age(),
        }


# ---------------------------------------------------------------------------
# Rendering / merging (operate on snapshot dicts, usable post-mortem)
# ---------------------------------------------------------------------------


def collapsed(operators: Dict[str, Any]) -> str:
    """Render a snapshot's operators as collapsed-stack text.

    One line per distinct stack, prefixed by the operator label —
    directly consumable by flamegraph.pl / speedscope import.
    """
    lines: List[str] = []
    for label in sorted(operators):
        stacks = operators[label].get("stacks") or {}
        for stack in sorted(stacks):
            lines.append(f"{label};{stack} {stacks[stack]}")
    return "\n".join(lines) + ("\n" if lines else "")


def speedscope(operators: Dict[str, Any], name: str = "neptune") -> Dict[str, Any]:
    """Render a snapshot's operators as a speedscope JSON document.

    One ``sampled`` profile per operator, unit seconds.  Each stack's
    weight is the operator's sampled ``cpu_seconds`` split by stack
    sample count, so the per-operator weight totals agree *exactly*
    with the ``neptune_profile_cpu_seconds_total`` series at snapshot
    time.
    """
    frame_index: Dict[str, int] = {}
    frames: List[Dict[str, str]] = []
    profiles: List[Dict[str, Any]] = []
    for label in sorted(operators):
        info = operators[label]
        stacks: Dict[str, int] = info.get("stacks") or {}
        total = sum(stacks.values())
        cpu = float(info.get("cpu_seconds", 0.0))
        samples: List[List[int]] = []
        weights: List[float] = []
        for stack in sorted(stacks):
            idxs: List[int] = []
            for fr in stack.split(";"):
                idx = frame_index.get(fr)
                if idx is None:
                    idx = len(frames)
                    frame_index[fr] = idx
                    frames.append({"name": fr})
                idxs.append(idx)
            samples.append(idxs)
            weights.append(cpu * stacks[stack] / total if total else 0.0)
        profiles.append(
            {
                "type": "sampled",
                "name": label,
                "unit": "seconds",
                "startValue": 0,
                "endValue": cpu,
                "samples": samples,
                "weights": weights,
            }
        )
    return {
        "$schema": "https://www.speedscope.app/file-format-schema.json",
        "name": name,
        "exporter": "repro-neptune",
        "activeProfileIndex": 0,
        "shared": {"frames": frames},
        "profiles": profiles,
    }


def merge_profile_snapshots(snaps: Mapping[str, Mapping[str, Any]]) -> Dict[str, Any]:
    """Merge profile sections into one cluster-wide profile.

    ``snaps`` maps a worker label -> :meth:`SamplingProfiler.snapshot`
    dict (or an already merged one: merging is idempotent).  Operators
    are summed across workers; each merged operator records which
    workers contributed.
    """
    operators: Dict[str, Any] = {}
    modes = set()
    samples = 0
    workers: Set[str] = set()
    for wid in sorted(snaps):
        snap = snaps[wid]
        modes.add(str(snap.get("cpu_mode", "wall")))
        samples += int(snap.get("samples", 0))
        workers.update(snap.get("workers") or [wid])
        for label, info in (snap.get("operators") or {}).items():
            agg = operators.get(label)
            if agg is None:
                agg = operators[label] = {
                    "kind": info.get("kind", "runtime"),
                    "samples": 0,
                    "cpu_seconds": 0.0,
                    "wall_seconds": 0.0,
                    "off_cpu_seconds": 0.0,
                    "stacks": {},
                    "top_frames": {},
                    "workers": [],
                }
            agg["samples"] += int(info.get("samples", 0))
            agg["cpu_seconds"] += float(info.get("cpu_seconds", 0.0))
            agg["wall_seconds"] += float(info.get("wall_seconds", 0.0))
            agg["off_cpu_seconds"] += float(info.get("off_cpu_seconds", 0.0))
            for stack, count in (info.get("stacks") or {}).items():
                agg["stacks"][stack] = agg["stacks"].get(stack, 0) + int(count)
            for frame, count in (info.get("top_frames") or {}).items():
                agg["top_frames"][frame] = agg["top_frames"].get(frame, 0) + int(count)
            agg["workers"].extend(info.get("workers") or [wid])
    mode = modes.pop() if len(modes) == 1 else ("mixed" if modes else "wall")
    return {
        "state": "merged",
        "cpu_mode": mode,
        "samples": samples,
        "workers": sorted(workers),
        "operators": dict(sorted(operators.items())),
    }
