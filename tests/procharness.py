"""Real-process test harness for the ``repro.cluster`` suite.

Process tests fail differently from in-process tests: a wedged worker
hangs the whole pytest run, a crashed worker leaves its story in a log
file nobody reads, and an early assertion failure can orphan child
processes that then hold ports and poison later tests.  Everything
here exists to close those gaps:

- :func:`live_cluster` — context manager around
  :class:`~repro.cluster.ClusterCoordinator` with launch timeout,
  per-worker log capture, and *guaranteed* teardown (terminate runs on
  every exit path, including assertion failures and KeyboardInterrupt).
  On launch failure the captured worker logs are attached to the
  raised error, so CI shows the child's traceback, not just
  "connect timed out".
- :func:`reserve_ports` — ephemeral-port
  allocation (re-exported from :mod:`repro.cluster.ports`), the fix
  for the hardcoded-port TIME_WAIT flake this suite used to have.
- :func:`wait_until` — condition polling (re-exported from
  :mod:`waiters`) for "sink progressed past N" style gates.

Keep every test that imports this module behind ``@pytest.mark.cluster``:
tier-1 (``pytest -x -q``) must never spawn processes.
"""

from __future__ import annotations

import contextlib
import tempfile
from pathlib import Path
from typing import Iterator, Optional

from waiters import wait_until  # noqa: F401  (re-export)

from repro.cluster import ClusterCoordinator
from repro.cluster.ports import reserve_ports  # noqa: F401

#: Generous spawn+connect budget: a 1-core CI runner importing the
#: package in N fresh interpreters is slow, a hung worker is hung —
#: either way the test must fail loudly instead of wedging the run.
LAUNCH_TIMEOUT = 120.0

#: Global drain budget for await_completion/stop inside tests.
DRAIN_TIMEOUT = 120.0


def worker_logs(coordinator: ClusterCoordinator) -> str:
    """Concatenate every worker's captured stdout/stderr for a failure
    report (empty string when the cluster ran without a log dir)."""
    chunks = []
    for handle in coordinator.handles:
        if not handle.log_path:
            continue
        try:
            text = Path(handle.log_path).read_text(encoding="utf-8")
        except OSError:
            continue
        if text.strip():
            chunks.append(f"--- worker {handle.worker_id} ({handle.log_path})\n{text}")
    return "\n".join(chunks)


@contextlib.contextmanager
def live_cluster(
    graph,
    n_workers: int = 2,
    *,
    fabric: str = "tcp",
    plan=None,
    launch_timeout: float = LAUNCH_TIMEOUT,
    log_dir: Optional[str] = None,
    observe=None,
    slos=None,
    collect_interval: float = 0.25,
    policy=None,
) -> Iterator[ClusterCoordinator]:
    """Launch a real-process cluster; terminate it no matter what.

    Yields the launched :class:`ClusterCoordinator` (``.job`` is ready).
    Worker stdout/stderr goes to per-worker files under ``log_dir``
    (a fresh temp dir by default) and is attached to the launch error
    when the cluster fails to come up.  ``observe``/``slos``/
    ``collect_interval``/``policy`` pass straight through to the
    coordinator (cluster observability + elasticity plane).
    """
    if log_dir is None:
        log_dir = tempfile.mkdtemp(prefix="neptune-test-logs-")
    coordinator = ClusterCoordinator(
        graph,
        n_workers=n_workers,
        fabric=fabric,
        plan=plan,
        log_dir=log_dir,
        observe=observe,
        slos=slos,
        collect_interval=collect_interval,
        policy=policy,
    )
    try:
        try:
            coordinator.launch(connect_timeout=launch_timeout)
        except Exception as exc:
            logs = worker_logs(coordinator)
            if logs:
                raise RuntimeError(f"cluster failed to launch: {exc}\n{logs}") from exc
            raise
        yield coordinator
    finally:
        coordinator.terminate()


def drain(coordinator: ClusterCoordinator, timeout: float = DRAIN_TIMEOUT) -> None:
    """await_completion and fail with worker logs when it doesn't quiesce."""
    if not coordinator.await_completion(timeout=timeout):
        raise AssertionError(
            "cluster did not quiesce within "
            f"{timeout}s\n{worker_logs(coordinator)}"
        )
