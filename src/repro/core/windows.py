"""Windowing utilities for stateful processors.

The paper's manufacturing-equipment job monitors "the delay between the
sensor state change and actuation of the corresponding valve over a
24-hour time window" — a time-based sliding window, which also serves
the descriptive-statistics stage the buffering discussion mentions
(§III-B1).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Iterator


class SlidingWindow:
    """Time-based sliding window of (timestamp, value) observations.

    ``add`` inserts an observation and evicts everything older than
    ``size`` seconds relative to the newest timestamp.  Timestamps must
    be non-decreasing (streams are ordered; enforced so aggregate
    results are well-defined).
    """

    def __init__(self, size: float) -> None:
        if size <= 0:
            raise ValueError(f"window size must be positive: {size}")
        self.size = size
        self._items: deque[tuple[float, Any]] = deque()

    def add(self, timestamp: float, value: Any) -> None:
        """Add one observation to the window."""
        if self._items and timestamp < self._items[-1][0]:
            raise ValueError(
                f"out-of-order timestamp {timestamp} < {self._items[-1][0]}"
            )
        self._items.append((timestamp, value))
        horizon = timestamp - self.size
        while self._items and self._items[0][0] <= horizon:
            self._items.popleft()

    def values(self) -> Iterator[Any]:
        """The field values, in schema order."""
        return (v for _, v in self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    @property
    def span(self) -> float:
        """Seconds covered by the current contents (0 when <2 items)."""
        if len(self._items) < 2:
            return 0.0
        return self._items[-1][0] - self._items[0][0]

    def aggregate(self, fn: Callable[[list[Any]], Any]) -> Any:
        """Apply ``fn`` to the window's values (e.g. statistics.mean)."""
        return fn([v for _, v in self._items])
