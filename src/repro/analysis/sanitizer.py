"""Runtime lock-order sanitizer: witness what NEPL203 only predicts.

The static lint (:mod:`repro.analysis.lintrules`) derives lock-order
edges from the AST and reports cycles as NEPL203.  Static analysis
over- and under-approximates: an edge behind a never-true branch is
*predicted but never taken*, and an edge through code the model cannot
follow (getattr dispatch, callbacks, C extensions) is *taken but never
predicted*.  This module closes the loop:

1. :class:`LockOrderSanitizer` — opt-in instrumentation.  While
   installed, ``threading.Lock``/``RLock`` construction returns an
   :class:`InstrumentedLock` that maintains a per-thread held stack and
   records every directed *held → acquired* edge, bounded, with a
   constant-time fast path when no other lock is held (the common case
   in the runtime's hot paths).  Recording can be **duty-cycled**
   (``LockOrderSanitizer(duty=0.1)``): a background toggle alternates
   recording windows with dormant stretches where an acquire costs one
   flag check, the same amortization idea as the runtime's adaptive
   trace sampling.  Lock-order edges are structural — the same nesting
   recurs thousands of times a second — so a thin periodic sample
   witnesses them while keeping the attributable overhead under the
   3% budget (the ``sanitizer`` row of ``repro bench``'s overhead gate).
   Window boundaries bump an epoch that lazily invalidates per-thread
   held stacks, so a window never sees a lock pushed before it started
   and cross-window false edges are impossible.
2. :meth:`LockOrderSanitizer.witness` — the recorded edge multiset as a
   JSON-able :class:`Witness`, dumpable to a *witness file*.
3. :func:`cross_validate` — merge a witness against the static edge
   set: cycles witnessed at runtime *and* predicted are **confirmed**
   NEPL203 errors; cycles witnessed but never predicted are NEPL203
   errors flagged as lint blind spots (turn the trigger into a fixture
   under ``tests/fixtures/lint/``); statically predicted cycles never
   witnessed keep their NEPL203 finding but gain a confidence
   annotation (``static-only``).

Lock labels are derived at construction from the creating frame:
``self._lock = threading.Lock()`` inside ``TcpTransport.__init__``
labels the lock ``TcpTransport._lock`` — the same node format the
static edges use, which is what makes the merge a set comparison
instead of a heuristic match.

Nothing here is imported by the runtime; installing the sanitizer is a
test-harness/CI decision (``repro analyze --witness`` consumes the
dump).
"""

from __future__ import annotations

import json
import linecache
import os
import re
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.analysis.diagnostics import DiagnosticReport, Severity

__all__ = [
    "InstrumentedLock",
    "LockOrderSanitizer",
    "Witness",
    "calibrate",
    "calibrate_recording",
    "cross_validate",
    "witness_report",
]

#: Stop recording *new* distinct edges past this many (existing edges
#: keep counting) — bounds memory on pathological lock populations.
MAX_EDGES = 4096


class _Raw:
    """The interpreter's lock factories, taken at import, before any
    sanitizer patches them.  Every instrumented lock wraps one of these,
    so a sanitizer installed inside another (a sanitizer's own tests run
    under the session one) records nothing into the outer one."""

    Lock = staticmethod(threading.Lock)
    RLock = staticmethod(threading.RLock)


_ASSIGN_TARGET = re.compile(r"(?:self|cls)\.(\w+)\s*(?::[^=]+)?=")


def _caller_label(depth: int) -> str:
    """``Class.attr`` for ``self._lock = Lock()`` creation sites, else
    ``file:line`` — matching the static NEPL203 node format."""
    frame = sys._getframe(depth)
    filename = frame.f_code.co_filename
    lineno = frame.f_lineno
    line = linecache.getline(filename, lineno)
    match = _ASSIGN_TARGET.search(line)
    owner = frame.f_locals.get("self")
    if match and owner is not None:
        return f"{type(owner).__name__}.{match.group(1)}"
    return f"{os.path.basename(filename)}:{lineno}"


class _HeldStack(threading.local):
    """Per-thread stack of currently-held instrumented lock labels.

    ``epoch`` tags which recording window the stack belongs to; a
    mismatch against the sanitizer's current epoch means the entries
    are stale leftovers from a closed window and must be discarded
    before use.
    """

    def __init__(self) -> None:
        self.stack: List[str] = []
        self.epoch = -1


class InstrumentedLock:
    """A Lock/RLock wrapper feeding the sanitizer's edge recorder.

    Supports the full lock protocol (``acquire``/``release``/context
    manager/``locked``) so it drops in anywhere the runtime stores a
    ``threading.Lock``, including as the lock underlying a
    ``threading.Condition``.
    """

    __slots__ = ("_lock", "_label", "_san", "_reentrant", "_depth")

    def __init__(
        self, san: "LockOrderSanitizer", label: str, reentrant: bool
    ) -> None:
        self._lock = _Raw.RLock() if reentrant else _Raw.Lock()
        self._label = label
        self._san = san
        self._reentrant = reentrant
        #: Re-entry depth (only meaningful for RLocks; guarded by the
        #: lock itself — only the owning thread mutates it while held).
        self._depth = 0

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        got = self._lock.acquire(blocking, timeout)
        if got:
            if self._reentrant:
                # Depth is tracked unconditionally (not just in recording
                # windows), or a dormant first-acquire followed by an
                # active re-entry would record a bogus self-edge.
                if self._depth > 0:
                    self._depth += 1  # re-entry: no new edge, no new frame
                    return got
                self._depth = 1
            san = self._san
            if san._active:
                san._note_acquire(self._label)
        return got

    def release(self) -> None:
        if self._reentrant:
            if self._depth > 1:
                self._depth -= 1
                self._lock.release()
                return
            self._depth = 0
        san = self._san
        if san._active:
            san._note_release(self._label)
        self._lock.release()

    def locked(self) -> bool:
        inner = getattr(self._lock, "locked", None)
        if inner is not None:
            held: bool = inner()
            return held
        # RLock without locked() (older Pythons): probe.
        if self._lock.acquire(False):
            self._lock.release()
            return False
        return True

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc: Any) -> None:
        self.release()

    # threading.Condition probes these on the lock it wraps; delegate
    # so an instrumented RLock keeps Condition's fast paths working.
    def _is_owned(self) -> bool:
        inner = getattr(self._lock, "_is_owned", None)
        if inner is not None:
            owned: bool = inner()
            return owned
        if self._lock.acquire(False):
            self._lock.release()
            return False
        return True

    def __repr__(self) -> str:
        return f"<InstrumentedLock {self._label!r} at {id(self):#x}>"


@dataclass
class Witness:
    """One instrumented run's recorded acquisition-order facts."""

    #: (held_label, acquired_label) -> times witnessed.
    edges: Dict[Tuple[str, str], int] = field(default_factory=dict)
    #: Lock acquisitions observed while recording was active (fast path
    #: included; dormant-window acquires are not counted — they did no
    #: recording work).
    acquires: int = 0
    #: Wall-clock seconds the sanitizer was installed.
    duration: float = 0.0
    #: Distinct edges dropped after :data:`MAX_EDGES` was reached.
    dropped_edges: int = 0

    def to_json(self) -> str:
        return json.dumps(
            {
                "edges": [
                    {"held": a, "acquired": b, "count": count}
                    for (a, b), count in sorted(self.edges.items())
                ],
                "acquires": self.acquires,
                "duration": self.duration,
                "dropped_edges": self.dropped_edges,
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "Witness":
        raw = json.loads(text)
        return cls(
            edges={
                (str(e["held"]), str(e["acquired"])): int(e["count"])
                for e in raw.get("edges", [])
            },
            acquires=int(raw.get("acquires", 0)),
            duration=float(raw.get("duration", 0.0)),
            dropped_edges=int(raw.get("dropped_edges", 0)),
        )

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "Witness":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())


class LockOrderSanitizer:
    """Install/uninstall the instrumented-lock factories.

    Usage::

        san = LockOrderSanitizer()
        san.install()
        try:
            run_workload()
        finally:
            san.uninstall()
        san.witness().dump("witness.json")

    Only locks *created while installed* are instrumented; pre-existing
    locks keep their raw type (instrumenting them retroactively is
    impossible without tracking every lock ever made).  Install the
    sanitizer before building the object graph under test.

    Parameters
    ----------
    duty:
        Fraction of wall time recording is active.  The default ``1.0``
        records every acquire (full fidelity — what tests want).
        ``0 < duty < 1`` starts a background toggle thread alternating
        recording windows of ``duty * window`` seconds with dormant
        stretches, bounding overhead for long soak/CI runs; dormant
        acquires cost one flag check.  ``0.0`` never records (the
        guardrail benchmark's baseline arm).
    window:
        Toggle period in seconds for ``0 < duty < 1``.
    """

    def __init__(self, duty: float = 1.0, window: float = 0.25) -> None:
        if not 0.0 <= duty <= 1.0:
            raise ValueError(f"duty must be in [0, 1]: {duty}")
        self.duty = duty
        self.window = window
        #: The factories install() replaced (an outer sanitizer's, when
        #: nested), which uninstall() puts back.
        self._replaced: Tuple[Callable[[], Any], ...] = (_Raw.Lock, _Raw.RLock)
        self._held = _HeldStack()
        self._edges: Dict[Tuple[str, str], int] = {}
        # Guards the edge table and window epoch.  A raw lock:
        # recording never records itself.
        self._edge_lock = _Raw.Lock()
        self._dropped = 0
        self._acquires = 0
        self._installed = False
        self._installed_at = 0.0
        self._elapsed = 0.0
        #: Recording gate, checked (unlocked) on every acquire/release.
        self._active = duty >= 1.0
        #: Current recording-window epoch; bumped when a window closes
        #: so per-thread held stacks from it are lazily discarded.
        self._epoch = 0
        self._toggle_stop: Optional[Any] = None
        self._toggle_thread: Optional[threading.Thread] = None

    # -- recording (called from InstrumentedLock) ----------------------------
    def _note_acquire(self, label: str) -> None:
        held = self._held
        if held.epoch != self._epoch:
            held.stack.clear()  # stale entries from a closed window
            held.epoch = self._epoch
        stack = held.stack
        self._acquires += 1  # benign race: counter is advisory
        if stack:
            edge = (stack[-1], label)
            with self._edge_lock:
                count = self._edges.get(edge)
                if count is not None:
                    self._edges[edge] = count + 1
                elif len(self._edges) < MAX_EDGES:
                    self._edges[edge] = 1
                else:
                    self._dropped += 1
        stack.append(label)

    def _note_release(self, label: str) -> None:
        held = self._held
        if held.epoch != self._epoch:
            return  # stack predates this window: nothing of ours on it
        stack = held.stack
        # Out-of-order release (lock handed across threads, or release
        # without acquire): drop the deepest matching entry.
        if stack and stack[-1] == label:
            stack.pop()
        elif label in stack:
            stack.reverse()
            stack.remove(label)
            stack.reverse()

    # -- duty cycling --------------------------------------------------------
    def _toggle_loop(self, stop: Any) -> None:
        active_s = self.duty * self.window
        dormant_s = (1.0 - self.duty) * self.window
        while True:
            self._active = True
            if stop.wait(active_s):
                break
            self._active = False
            with self._edge_lock:
                # Close the window: invalidate held stacks.  Taking the
                # edge lock serializes the bump with in-flight edge
                # insertions from the window being closed.
                self._epoch += 1
            if stop.wait(dormant_s):
                break
        self._active = False
        with self._edge_lock:
            self._epoch += 1

    # -- lifecycle -----------------------------------------------------------
    def install(self) -> None:
        """Monkeypatch ``threading.Lock``/``RLock``; idempotent."""
        if self._installed:
            return
        san = self

        def make_lock() -> InstrumentedLock:
            return InstrumentedLock(san, _caller_label(2), reentrant=False)

        def make_rlock() -> InstrumentedLock:
            return InstrumentedLock(san, _caller_label(2), reentrant=True)

        if 0.0 < self.duty < 1.0:
            # Built before the patch below, so the toggle machinery
            # never records into this sanitizer.
            self._toggle_stop = threading.Event()
            self._toggle_thread = threading.Thread(
                target=self._toggle_loop,
                args=(self._toggle_stop,),
                name="neptune-lock-sanitizer-toggle",
                daemon=True,
            )
            self._toggle_thread.start()
        self._replaced = (threading.Lock, threading.RLock)
        threading.Lock = make_lock  # type: ignore[assignment]
        threading.RLock = make_rlock  # type: ignore[assignment]
        self._installed = True
        self._installed_at = time.perf_counter()

    def uninstall(self) -> None:
        """Restore the real factories; idempotent.  Already-created
        instrumented locks keep working (and keep recording)."""
        if not self._installed:
            return
        threading.Lock = self._replaced[0]  # type: ignore[assignment]
        threading.RLock = self._replaced[1]  # type: ignore[assignment]
        if self._toggle_stop is not None:
            self._toggle_stop.set()
            if self._toggle_thread is not None:
                self._toggle_thread.join(timeout=5.0)
            self._toggle_stop = None
            self._toggle_thread = None
        self._installed = False
        self._elapsed += time.perf_counter() - self._installed_at

    def __enter__(self) -> "LockOrderSanitizer":
        self.install()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.uninstall()

    # -- results -------------------------------------------------------------
    def witness(self) -> Witness:
        elapsed = self._elapsed
        if self._installed:
            elapsed += time.perf_counter() - self._installed_at
        with self._edge_lock:
            edges = dict(self._edges)
            dropped = self._dropped
        return Witness(
            edges=edges,
            acquires=self._acquires,
            duration=elapsed,
            dropped_edges=dropped,
        )


def _timed_pairs(lock: Any, iterations: int) -> float:
    start = time.perf_counter()
    for _ in range(iterations):
        lock.acquire()
        lock.release()
    return time.perf_counter() - start


def calibrate(iterations: int = 50_000) -> float:
    """Measured per-acquire overhead (seconds) of a *recording*
    instrumented lock over a raw one, on this machine, uncontended."""
    san = LockOrderSanitizer()
    raw = _Raw.Lock()
    inst = InstrumentedLock(san, "calibrate._lock", reentrant=False)
    _timed_pairs(raw, iterations)  # warm both paths before measuring
    _timed_pairs(inst, iterations)
    raw_cost = min(_timed_pairs(raw, iterations) for _ in range(3))
    inst_cost = min(_timed_pairs(inst, iterations) for _ in range(3))
    return max(0.0, (inst_cost - raw_cost) / iterations)


def calibrate_recording(iterations: int = 50_000) -> float:
    """Measured per-acquire *marginal* cost (seconds) of recording —
    an active-window acquire over a dormant-window one.

    ``repro bench``'s ``sanitizer`` row multiplies this by the witnessed
    ``acquires`` count (only active-window acquires are counted) to attribute the
    duty-cycled sanitizer's *causal* recording cost, instead of
    trusting noisy end-to-end wall-clock deltas.  The dormant wrapper
    indirection itself is the instrumentation fixture — the same role
    the attached-but-idle observer plays in the ``health`` row's off arm.
    """
    active = InstrumentedLock(
        LockOrderSanitizer(), "calibrate._lock", reentrant=False
    )
    dormant = InstrumentedLock(
        LockOrderSanitizer(duty=0.0), "calibrate._lock", reentrant=False
    )
    _timed_pairs(dormant, iterations)  # warm both paths before measuring
    _timed_pairs(active, iterations)
    dormant_cost = min(_timed_pairs(dormant, iterations) for _ in range(3))
    active_cost = min(_timed_pairs(active, iterations) for _ in range(3))
    return max(0.0, (active_cost - dormant_cost) / iterations)


# -- cycle analysis ------------------------------------------------------------


def _cycles(edge_keys: Set[Tuple[str, str]]) -> List[List[str]]:
    """Every distinct simple cycle's node list (DFS, tiny graphs)."""
    graph: Dict[str, List[str]] = {}
    for a, b in edge_keys:
        graph.setdefault(a, []).append(b)
        graph.setdefault(b, [])
    WHITE, GREY, BLACK = 0, 1, 2
    color = dict.fromkeys(graph, WHITE)
    stack: List[str] = []
    found: List[List[str]] = []
    seen: Set[frozenset[str]] = set()

    def dfs(node: str) -> None:
        color[node] = GREY
        stack.append(node)
        for nxt in sorted(graph[node]):
            if color[nxt] == GREY:
                cycle = stack[stack.index(nxt) :]
                key = frozenset(cycle)
                if key not in seen:
                    seen.add(key)
                    found.append(cycle + [nxt])
            elif color[nxt] == WHITE:
                dfs(nxt)
        stack.pop()
        color[node] = BLACK

    for node in sorted(graph):
        if color[node] == WHITE:
            dfs(node)
    return found


@dataclass
class CrossValidation:
    """The merge of witnessed facts against static prediction."""

    #: Cycles both witnessed at runtime and statically predicted.
    confirmed: List[List[str]] = field(default_factory=list)
    #: Cycles witnessed at runtime that the lint never predicted
    #: (lint blind spots — each should become a test fixture).
    witnessed_only: List[List[str]] = field(default_factory=list)
    #: Statically predicted cycles this run never witnessed
    #: (kept as findings, annotated ``static-only``).
    static_only: List[List[str]] = field(default_factory=list)
    #: Witnessed edges absent from the static edge set (cycle members
    #: or not) — the raw blind-spot surface.
    unpredicted_edges: List[Tuple[str, str]] = field(default_factory=list)


def cross_validate(
    witness: Witness,
    static_edges: Dict[Tuple[str, str], Tuple[str, str, int]],
) -> CrossValidation:
    """Compare one witness against the static NEPL203 edge set."""
    witnessed_keys = set(witness.edges)
    static_keys = set(static_edges)
    result = CrossValidation(
        unpredicted_edges=sorted(witnessed_keys - static_keys)
    )
    witnessed_cycles = {
        frozenset(c[:-1]): c for c in _cycles(witnessed_keys)
    }
    static_cycles = {frozenset(c[:-1]): c for c in _cycles(static_keys)}
    for key, cycle in sorted(witnessed_cycles.items(), key=lambda kv: kv[1]):
        if key in static_cycles:
            result.confirmed.append(cycle)
        else:
            result.witnessed_only.append(cycle)
    for key, cycle in sorted(static_cycles.items(), key=lambda kv: kv[1]):
        if key not in witnessed_cycles:
            result.static_only.append(cycle)
    return result


def witness_report(
    witness: Witness,
    static_edges: Dict[Tuple[str, str], Tuple[str, str, int]],
    subject: str = "witness",
) -> DiagnosticReport:
    """Render a cross-validation as NEPL203 diagnostics.

    Confirmed and witnessed-only cycles are errors (a witnessed cycle
    is a deadlock waiting on thread timing, whatever the lint thought);
    static-only cycles are repeated at INFO with a confidence
    annotation so a CI diff shows *why* NEPL203 persists.
    """
    report = DiagnosticReport(subject=subject)
    merged = cross_validate(witness, static_edges)
    for cycle in merged.confirmed:
        report.add(
            "NEPL203",
            Severity.ERROR,
            "lock-order cycle CONFIRMED at runtime: "
            + " -> ".join(cycle)
            + "; the static prediction was witnessed by an instrumented "
            "run",
            where="witness+static",
            hint="impose one global acquisition order; this is not a "
            "lint false positive",
        )
    for cycle in merged.witnessed_only:
        report.add(
            "NEPL203",
            Severity.ERROR,
            "lock-order cycle witnessed at runtime but NOT statically "
            "predicted: " + " -> ".join(cycle) + "; the lint has a "
            "blind spot here",
            where="witness",
            hint="fix the ordering, then add the triggering pattern as "
            "a tests/fixtures/lint/ fixture so NEPL203 learns it",
        )
    for cycle in merged.static_only:
        report.add(
            "NEPL203",
            Severity.INFO,
            "statically predicted lock-order cycle never witnessed in "
            "this run: " + " -> ".join(cycle) + " (confidence: "
            "static-only — the run may simply not have exercised the "
            "path)",
            where="static",
            hint="extend the instrumented run's coverage, or restructure "
            "the locks if the path is real",
        )
    return report
