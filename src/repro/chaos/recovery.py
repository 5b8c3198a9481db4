"""Checkpoint-based job supervision and replay recovery.

The transport layer heals *link* failures in place (reconnect +
replay); a *node* kill — an operator instance crashing mid-stream —
needs coarser machinery: restore the job from its last consistent
checkpoint and replay the sources from their checkpointed positions.
:class:`RecoveryCoordinator` packages that loop:

1. a background thread takes a quiesced checkpoint of the supervised
   job every :data:`CHECKPOINT_INTERVAL` seconds into a
   :class:`~repro.core.checkpoint.CheckpointStore`;
2. when the job fails (any operator-instance exception, including an
   injected ``kill_node`` fault or an exhausted transport retry budget
   surfaced via :meth:`NeptuneRuntime.notify_link_failure`), the
   coordinator stops the wreck and resubmits the graph with
   ``restore_from=<last checkpoint>``;
3. because quiesced checkpoints are consistent cuts (sources paused,
   pipeline drained) and sources implement
   :class:`~repro.core.checkpoint.ReplayableSource`, the restored run
   re-emits exactly the packets after the cut: zero lost, zero
   duplicated in the recovered operator state.

The coordinator is deliberately runtime-agnostic glue: it only uses
the public ``submit / checkpoint / failures / await_completion`` API.
"""

from __future__ import annotations

import threading
import time

from repro.core.checkpoint import CheckpointStore
from repro.util.errors import JobStateError

#: Seconds between quiesced checkpoints.
CHECKPOINT_INTERVAL = 0.5
#: Recovery budget; exceeding it surfaces the last failure set.
MAX_RESTARTS = 3


class RecoveryCoordinator:
    """Supervises one job: periodic checkpoints + restore-on-failure.

    Parameters
    ----------
    runtime:
        A :class:`~repro.core.runtime.NeptuneRuntime`.
    graph:
        The graph to run (resubmitted verbatim on recovery).
    store:
        Checkpoint store; defaults to a fresh in-memory store.

    A failed checkpoint or teardown does not stop supervision, and is
    counted (:attr:`checkpoint_errors`, :attr:`teardown_errors`) with
    the last exception of each kept.
    """

    def __init__(
        self,
        runtime,
        graph,
        store: CheckpointStore | None = None,
    ) -> None:
        self.runtime = runtime
        self.graph = graph
        self.store = store if store is not None else CheckpointStore()
        self.handle = None
        self.restarts = 0
        self.last_failures: dict[str, BaseException] = {}
        self.checkpoint_errors = 0
        self.last_checkpoint_error: BaseException | None = None
        self.teardown_errors = 0
        self.last_teardown_error: BaseException | None = None
        self._errors_lock = threading.Lock()
        self._stop = threading.Event()
        self._ckpt_thread: threading.Thread | None = None

    # -- lifecycle ---------------------------------------------------------
    def start(self):
        """Submit the job and start the checkpoint thread."""
        if self.handle is not None:
            raise JobStateError("coordinator already started")
        self.handle = self.runtime.submit(self.graph)
        self._ckpt_thread = threading.Thread(
            target=self._checkpoint_loop, name="neptune-recovery-checkpoint", daemon=True
        )
        self._ckpt_thread.start()
        return self.handle

    def _checkpoint_loop(self) -> None:
        while not self._stop.wait(CHECKPOINT_INTERVAL):
            handle = self.handle
            if handle is None or handle.failures:
                continue  # recovery (not checkpointing) is due
            try:
                ckpt = handle.checkpoint(timeout=10.0)
            except Exception as exc:
                # A checkpoint racing a crash/drain may legitimately
                # fail (JobStateError), and an operator's snapshot_state
                # may raise anything; the supervisor loop handles the
                # job state.
                with self._errors_lock:
                    self.checkpoint_errors += 1
                    self.last_checkpoint_error = exc
                continue
            self.store.put(ckpt)

    # -- supervision --------------------------------------------------------
    def run_to_completion(self, timeout: float = 60.0) -> bool:
        """Drive the job to natural completion, recovering on failure.

        Returns True when the job drained cleanly (possibly after
        recoveries); False on timeout or exhausted restart budget (the
        failures are in :attr:`last_failures`).
        """
        deadline = time.monotonic() + timeout
        try:
            while (remaining := deadline - time.monotonic()) > 0:
                # A failure wakes the wait and cuts the drain short, so
                # one call notices it whenever it happens.
                drained = self.handle.await_completion(timeout=remaining)
                failures = self.handle.failures
                if failures:
                    if not self._recover(failures):
                        return False
                elif drained:
                    return True
            return False
        finally:
            self._stop.set()

    def _recover(self, failures: dict[str, BaseException]) -> bool:
        """Restore from the last checkpoint; False when out of budget."""
        self.last_failures = dict(failures)
        if self.restarts >= MAX_RESTARTS:
            return False
        self.restarts += 1
        try:
            self.handle.stop(timeout=5.0)
        except Exception as exc:
            # The job is already a wreck and teardown is best-effort:
            # an operator's teardown hook may raise anything.
            self.teardown_errors += 1
            self.last_teardown_error = exc
        ckpt = self.store.latest(self.graph.name)
        self.handle = self.runtime.submit(self.graph, restore_from=ckpt)
        return True

    def stop(self) -> None:
        """Stop the checkpoint thread (the job is left to its handle)."""
        self._stop.set()
        if self._ckpt_thread is not None:
            self._ckpt_thread.join(5.0)
