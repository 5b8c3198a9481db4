"""The Granules substrate (paper §II).

Granules is the authors' cloud runtime that NEPTUNE is layered on.  Its
abstractions, reimplemented here:

- :class:`ComputationalTask` — the finest-grained unit of execution,
  encapsulating domain logic over a fine-grained unit of data.
- :class:`Dataset` — unified access to low-level data (files, streams,
  queues) with availability notifications.
- :class:`Resource` — a per-machine container that hosts and runs
  computational tasks on a worker thread pool.
- Scheduling strategies — data-driven, periodic, count-based, and
  combinations, changeable during execution.
"""

from repro.granules.task import ComputationalTask, TaskState
from repro.granules.dataset import Dataset, QueueDataset, FileDataset
from repro.granules.scheduler import (
    SchedulingStrategy,
    DataDrivenStrategy,
    PeriodicStrategy,
    CountBasedStrategy,
    CombinedStrategy,
)
from repro.granules.resource import Resource

__all__ = [
    "ComputationalTask",
    "TaskState",
    "Dataset",
    "QueueDataset",
    "FileDataset",
    "SchedulingStrategy",
    "DataDrivenStrategy",
    "PeriodicStrategy",
    "CountBasedStrategy",
    "CombinedStrategy",
    "Resource",
]
