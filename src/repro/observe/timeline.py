"""Structured runtime event timeline: a bounded ring of typed events.

Everything noteworthy that *happens* (as opposed to values that are
*sampled*) lands here under one schema: watermark crossings, flush
timer fires, batch executions, transport reconnects, chaos fault
injections.  The ring is bounded, so a long-running job keeps the most
recent ``capacity`` events and counts what it evicted.

Categories currently emitted by the runtime wiring:

=============  ====================================================
category       names
=============  ====================================================
flowcontrol    ``gate_closed`` / ``gate_opened`` (watermark cross)
buffer         ``timer_flush`` (flush-timer fired on a stale buffer)
runtime        ``batch_executed`` (instance drained a frame)
transport      ``reconnect`` / ``replay`` (link recovery)
chaos          ``fault_injected`` / ``node_killed`` / ``link_*``
internal       ``error`` (an exception observability swallowed)
=============  ====================================================
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Deque, Dict, List, Optional

from repro.util.clock import SYSTEM_CLOCK, Clock

__all__ = ["EventTimeline", "RuntimeEvent"]


class RuntimeEvent:
    """One timeline entry: when / what category / what name / details."""

    __slots__ = ("ts", "category", "name", "attrs")

    def __init__(
        self,
        ts: float,
        category: str,
        name: str,
        attrs: Dict[str, object],
    ) -> None:
        self.ts = ts
        self.category = category
        self.name = name
        self.attrs = attrs

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly form."""
        return {
            "ts": self.ts,
            "category": self.category,
            "name": self.name,
            "attrs": self.attrs,
        }

    def __repr__(self) -> str:
        return f"RuntimeEvent({self.ts:.6f} {self.category}.{self.name} {self.attrs})"


class EventTimeline:
    """Thread-safe bounded ring buffer of :class:`RuntimeEvent`.

    ``record()`` is cheap (one lock, one deque append) and never raises
    on behalf of observability: exotic attr values are kept as-is and
    only stringified at export time.
    """

    def __init__(self, capacity: int = 4096, clock: Clock = SYSTEM_CLOCK) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive: {capacity}")
        self.capacity = capacity
        self._clock = clock
        self._events: Deque[RuntimeEvent] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._recorded = 0
        self._dropped = 0

    def record(self, category: str, name: str, **attrs: object) -> RuntimeEvent:
        """Append one event stamped with the timeline's clock.

        A full ring drops its oldest event to admit the new one; the
        drop is counted (:attr:`dropped`) so consumers — notably
        ``repro doctor`` — can tell a complete record from a window.
        """
        event = RuntimeEvent(self._clock.now(), category, name, dict(attrs))
        with self._lock:
            if len(self._events) >= self.capacity:
                self._dropped += 1
            self._events.append(event)
            self._recorded += 1
        return event

    def record_at(
        self,
        ts: float,
        category: str,
        name: str,
        attrs: Optional[Dict[str, object]] = None,
    ) -> RuntimeEvent:
        """Append one event with an explicit timestamp.

        Used when merging events recorded elsewhere (another worker
        process) into this timeline: the original monotonic timestamp
        is preserved so episode pairing and cross-worker ordering stay
        meaningful (``CLOCK_MONOTONIC`` is machine-wide).
        """
        event = RuntimeEvent(ts, category, name, dict(attrs or {}))
        with self._lock:
            if len(self._events) >= self.capacity:
                self._dropped += 1
            self._events.append(event)
            self._recorded += 1
        return event

    def events_since(self, seen: int) -> "tuple[List[RuntimeEvent], int]":
        """Events recorded after the first ``seen``, plus the new total.

        Returns the suffix of events not yet consumed by a caller that
        previously saw ``seen`` recorded events.  If the ring evicted
        part of that suffix the evicted events are simply gone (the
        eviction is already counted); the returned total lets the
        caller advance its cursor atomically with the snapshot.
        """
        with self._lock:
            recorded = self._recorded
            new = recorded - seen
            if new <= 0:
                return [], recorded
            events = list(self._events)
            return events[-min(new, len(events)) :], recorded

    @property
    def recorded(self) -> int:
        """Total events ever recorded (including evicted ones)."""
        with self._lock:
            return self._recorded

    @property
    def evicted(self) -> int:
        """Events pushed out of the ring by newer ones."""
        with self._lock:
            return self._recorded - len(self._events)

    @property
    def dropped(self) -> int:
        """Events overwritten on ring wrap (diagnosis completeness)."""
        with self._lock:
            return self._dropped

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def snapshot(
        self,
        category: Optional[str] = None,
        name: Optional[str] = None,
    ) -> List[RuntimeEvent]:
        """Events oldest-first, optionally filtered by category/name."""
        with self._lock:
            events = list(self._events)
        if category is not None:
            events = [e for e in events if e.category == category]
        if name is not None:
            events = [e for e in events if e.name == name]
        return events

    def counts(self) -> Dict[str, int]:
        """``category.name`` → occurrences among retained events."""
        out: Dict[str, int] = {}
        for event in self.snapshot():
            key = f"{event.category}.{event.name}"
            out[key] = out.get(key, 0) + 1
        return out
