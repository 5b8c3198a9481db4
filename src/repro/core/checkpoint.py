"""Operator state checkpointing (the paper's §VI future work).

"Future work will target developing algorithms for fault tolerant
processing while reducing overheads that often accompany such schemes."

This module implements the low-overhead half of that plan: per-instance
state snapshots taken *between* scheduled executions.  Because a
NEPTUNE operator instance never executes concurrently with itself
(Granules serializes it), grabbing the instance's run lock yields a
consistent cut of its user state with no extra synchronization on the
hot path — zero cost except while a checkpoint is actually being taken.

Operators opt in by implementing two hooks::

    class Counter(StreamProcessor):
        def snapshot_state(self):           # called with the instance quiesced
            return {"count": self.count}
        def restore_state(self, state):     # called before the first execution
            self.count = state["count"]

:func:`take_checkpoint` captures every opted-in instance of a job;
:meth:`NeptuneRuntime.submit(graph, restore_from=...)` (via
``Checkpoint.state_for``) rebuilds a job from one.  Checkpoints
serialize with :mod:`pickle` for arbitrary user state.

Scope note: this checkpoints *operator state*, not in-flight packets —
recovery gives transactional state with at-least-once reprocessing of
whatever the source replays, the standard starting point the paper's
future work names (exactly-once input replay needs coordinated source
offsets, which :class:`ReplayableSource` sketches).
"""

from __future__ import annotations

import pickle
import threading
import time
from dataclasses import dataclass, field
from typing import Any

from repro.util.errors import JobStateError


@dataclass
class Checkpoint:
    """A consistent-per-instance snapshot of one job's operator state."""

    job_name: str
    taken_at: float
    #: (operator name, instance index) → opaque user state.
    states: dict = field(default_factory=dict)

    def state_for(self, operator: str, instance: int) -> Any:
        """State captured for (operator, instance), or None."""
        return self.states.get((operator, instance))

    @property
    def instances(self) -> int:
        """Number of instance states captured."""
        return len(self.states)

    def save(self, path: str) -> None:
        """Persist to ``path`` (pickle)."""
        with open(path, "wb") as fh:
            pickle.dump(self, fh, protocol=pickle.HIGHEST_PROTOCOL)

    @classmethod
    def load(cls, path: str) -> "Checkpoint":
        """Load a checkpoint previously written by save()."""
        with open(path, "rb") as fh:
            ckpt = pickle.load(fh)
        if not isinstance(ckpt, cls):
            raise JobStateError(f"{path!r} does not contain a Checkpoint")
        return ckpt


def take_checkpoint(job_runtime) -> Checkpoint:
    """Snapshot every opted-in operator instance of a running job.

    Each instance is quiesced individually (its run lock held while its
    ``snapshot_state`` runs), so per-instance state is consistent; the
    checkpoint as a whole is fuzzy across instances — the documented
    trade-off that keeps overhead near zero.
    """
    ckpt = Checkpoint(job_name=job_runtime.graph.name, taken_at=time.time())
    for inst in job_runtime.all_instances():
        snapshot = getattr(inst.operator, "snapshot_state", None)
        if snapshot is None:
            continue
        with inst._run_lock:  # instance is not executing
            state = snapshot()
        if state is not None:
            ckpt.states[(inst.spec.name, inst.index)] = state
    return ckpt


#: Checkpoints a :class:`CheckpointStore` retains per job.
KEEP = 3


class CheckpointStore:
    """Bounded in-memory checkpoint history.

    The recovery path (:class:`~repro.chaos.recovery.RecoveryCoordinator`,
    link-failure notifications) needs "the last good checkpoint" without
    threading a Checkpoint object through every call site.  The store
    keeps the most recent :data:`KEEP` checkpoints per job.
    """

    def __init__(self) -> None:
        self._history: dict[str, list[Checkpoint]] = {}
        self._lock = threading.Lock()

    def put(self, ckpt: Checkpoint) -> None:
        """Record a checkpoint (evicting beyond the keep bound)."""
        with self._lock:
            history = self._history.setdefault(ckpt.job_name, [])
            history.append(ckpt)
            del history[:-KEEP]

    def latest(self, job_name: str) -> Checkpoint | None:
        """Most recent checkpoint for ``job_name``, or None."""
        with self._lock:
            history = self._history.get(job_name)
            return history[-1] if history else None

    def history(self, job_name: str) -> list[Checkpoint]:
        """All retained checkpoints, oldest first."""
        with self._lock:
            return list(self._history.get(job_name, []))


class ReplayableSource:
    """Mixin sketching coordinated source replay for exactly-once input.

    Sources that can seek (files, Kafka-like logs) additionally
    checkpoint a *position*; on restore, generation resumes from it.
    Combined with per-instance state snapshots this upgrades recovery
    to effectively-once for deterministic pipelines.
    """

    def snapshot_state(self) -> Any:
        """Checkpoint hook: return this operator's state."""
        return {"position": self.position()}

    def restore_state(self, state: Any) -> None:
        """Checkpoint hook: rehydrate state captured by snapshot_state."""
        self.seek(state["position"])

    def position(self) -> Any:  # pragma: no cover - interface
        """Current replay position (source-defined)."""
        raise NotImplementedError

    def seek(self, position: Any) -> None:  # pragma: no cover - interface
        """Reposition the replay cursor."""
        raise NotImplementedError
