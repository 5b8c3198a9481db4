"""Granules datasets.

"A computational task accesses data through a *dataset*.  The dataset
unifies the access of different types of resources and encapsulates the
access to low level data such as files, streams or databases.  Granules
framework manages the initializations and closures of datasets and
provides notifications on the availability of data." (§II)

The two concrete datasets here cover NEPTUNE's needs: a thread-safe
bounded queue (stream links) and a lazily read file with checkpointable
byte positions (file/replay ingestion).  Availability notifications
are delivered to a registered listener callback, which the Resource
uses for data-driven scheduling.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from collections import deque
from typing import Any, Callable


class Dataset(ABC):
    """Base class for all datasets.

    Lifecycle: ``initialize`` → (reads/writes) → ``close``.  A listener
    registered via :meth:`on_available` is invoked (on the producing
    thread) whenever new data becomes available.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._listener: Callable[[Dataset], None] | None = None
        self._initialized = False
        self._closed = False

    def initialize(self) -> None:
        """Prepare the dataset for use.  Idempotent."""
        self._initialized = True

    def close(self) -> None:
        """Release underlying resources.  Idempotent."""
        self._closed = True

    @property
    def closed(self) -> bool:
        """Whether this object has been closed."""
        return self._closed

    def on_available(self, listener: Callable[[Dataset], None]) -> None:
        """Register the availability-notification callback (one only)."""
        self._listener = listener

    def _notify(self) -> None:
        if self._listener is not None:
            self._listener(self)

    @abstractmethod
    def has_data(self) -> bool:
        """Whether a read would currently yield data."""


class QueueDataset(Dataset):
    """A bounded, thread-safe FIFO dataset.

    This is the dataset behind every NEPTUNE stream link: producers
    ``put`` (blocking when full — the local leg of backpressure) and the
    scheduler drains batches with :meth:`drain`.
    """

    def __init__(self, name: str, capacity: int = 1024) -> None:
        super().__init__(name)
        if capacity <= 0:
            raise ValueError(f"capacity must be positive: {capacity}")
        self.capacity = capacity
        self._items: deque[Any] = deque()
        self._lock = threading.Lock()
        self._not_full = threading.Condition(self._lock)

    def put(self, item: Any, timeout: float | None = None) -> bool:
        """Enqueue ``item``, blocking while the queue is full.

        Returns False on timeout or if the dataset was closed while
        waiting; True when the item was enqueued.
        """
        with self._not_full:
            while len(self._items) >= self.capacity:
                if self._closed:
                    return False
                if not self._not_full.wait(timeout):
                    return False
            if self._closed:
                return False
            self._items.append(item)
        self._notify()
        return True

    def drain(self, max_items: int | None = None) -> list[Any]:
        """Dequeue up to ``max_items`` (all, if None) items at once.

        Draining in one lock acquisition is what lets NEPTUNE process a
        whole buffered batch per scheduled execution.
        """
        with self._not_full:
            if max_items is None or max_items >= len(self._items):
                out = list(self._items)
                self._items.clear()
            else:
                out = [self._items.popleft() for _ in range(max_items)]
            if out:
                self._not_full.notify_all()
        return out

    def has_data(self) -> bool:
        """Whether a read would currently yield data."""
        with self._lock:
            return bool(self._items)

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)

    def close(self) -> None:
        """Release underlying resources. Idempotent."""
        with self._not_full:
            super().close()
            self._not_full.notify_all()


class FileDataset(Dataset):
    """Line- or block-oriented access to a file (§II: datasets unify
    "access to low level data such as files, streams or databases").

    Reads lazily; :meth:`tell`/:meth:`seek` expose byte positions so a
    replaying source can checkpoint its progress
    (:class:`repro.core.checkpoint.ReplayableSource`).
    """

    def __init__(self, name: str, path: str, mode: str = "lines") -> None:
        super().__init__(name)
        if mode not in ("lines", "bytes"):
            raise ValueError(f"mode must be 'lines' or 'bytes': {mode}")
        self.path = path
        self.mode = mode
        self._fh = None
        self._peeked: bytes | None = None
        self._final_pos: int | None = None

    def initialize(self) -> None:
        """Prepare for use (framework-managed lifecycle)."""
        super().initialize()
        if self._fh is None:
            self._fh = open(self.path, "rb")
            self._final_pos = None

    def close(self) -> None:
        """Release underlying resources. Idempotent."""
        super().close()
        if self._fh is not None:
            # Preserve the logical position so a checkpoint taken after
            # the dataset closed still records where reading stopped.
            self._final_pos = self.tell()
            self._fh.close()
            self._fh = None

    def _ensure_open(self):
        if self._fh is None:
            self.initialize()
        return self._fh

    def next(self, block_size: int = 4096) -> bytes:
        """Next line (or block); raises StopIteration at EOF."""
        if self._peeked is not None:
            out, self._peeked = self._peeked, None
            return out
        fh = self._ensure_open()
        data = fh.readline() if self.mode == "lines" else fh.read(block_size)
        if not data:
            raise StopIteration
        return data

    def has_data(self) -> bool:
        """Whether a read would currently yield data."""
        if self._closed:
            return False
        if self._peeked is not None:
            return True
        try:
            self._peeked = self.next()
            return True
        except StopIteration:
            return False

    def tell(self) -> int:
        """Byte position of the next unread record (checkpointable)."""
        if self._fh is None and self._final_pos is not None:
            return self._final_pos
        fh = self._ensure_open()
        pos = fh.tell()
        if self._peeked is not None:
            pos -= len(self._peeked)
        return pos

    def seek(self, position: int) -> None:
        """Reposition to an absolute byte offset (checkpoint restore)."""
        fh = self._ensure_open()
        self._peeked = None
        fh.seek(position)
