"""Worker-process entry point for cluster deployments.

The coordinator spawns this via the ``multiprocessing`` spawn context
(a fresh interpreter — no forked locks, no inherited runtime state):
each child rebuilds its :class:`~repro.core.distributed.DistributedWorker`
from the JSON :class:`~repro.cluster.spec.WorkerSpec`, serves control
commands, and blocks until the coordinator says stop.  Also runnable by
hand (``python -m repro.cluster.worker --spec spec.json``) for
debugging a single shard.

When the spec carries an ``observe`` block the worker additionally
builds its observability plane: a :class:`~repro.observe.RuntimeObserver`
threaded through the runtime, a
:class:`~repro.observe.collector.DeltaSource` answering the control
plane's ``collect`` and ``snapshot`` commands, optionally a
worker-local :class:`~repro.observe.HealthEngine` over its own shard,
and a :class:`~repro.observe.flightrec.FlightRecorder` persisting that
source's snapshot so even a SIGKILL leaves a post-mortem on disk.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Optional

from repro.cluster.spec import WorkerSpec
from repro.core.control import ControlServer
from repro.core.distributed import DistributedWorker
from repro.core.graph import StreamProcessingGraph


def _build_observability(
    worker: DistributedWorker, spec: WorkerSpec, plan: Any
) -> "tuple[Any, Any]":
    """Attach observer-side facilities per ``spec.observe``.

    Returns ``(health_engine, flight_recorder)`` (either may be None).
    The DeltaSource is attached as ``worker.delta_source`` and the
    recorder as ``worker.flight_recorder`` — the duck-typed attributes
    the control server's ``collect`` / ``snapshot`` / ``flight_dump``
    commands read.
    """
    cfg = spec.observe or {}
    observer = worker.observer
    if observer is None:
        return None, None
    from repro.observe.bridge import scrape_worker
    from repro.observe.collector import DeltaSource

    # Continuous profiler: on by default with an observer attached
    # (``"profile": false`` disables, a dict overrides knobs).
    prof_cfg = cfg.get("profile") if "profile" in cfg else {}
    if prof_cfg is not None and prof_cfg is not False:
        from repro.observe.profiler import SamplingProfiler

        overrides = prof_cfg if isinstance(prof_cfg, dict) else {}
        profiler = SamplingProfiler(
            hz=float(overrides.get("hz", 50.0)),
            window_seconds=float(overrides.get("window_seconds", 5.0)),
        )
        observer.profiler = profiler
        profiler.start()

    health = None
    slo_cfg = cfg.get("slos")
    if slo_cfg:
        from repro.observe.health import HealthEngine, default_slos

        local_ops = sorted(
            {op for (op, _idx), w in plan.assignment.items() if w == spec.worker_id}
        )
        slos = default_slos(
            local_ops,
            latency_budget=float(slo_cfg.get("latency_budget", 0.05)),
            e2e_budget=None,  # e2e needs the full trace: cluster-scope only
        )
        health = HealthEngine(
            observer,
            slos,
            scrape=lambda: scrape_worker(observer.registry, worker),
            interval=float(cfg.get("scan_interval", 0.25)),
        )
    worker.delta_source = DeltaSource(
        observer,
        spec.worker_id,
        worker=worker,
        health=health,
        incarnation=spec.incarnation,
    )
    recorder = None
    flight_path = cfg.get("flight_path")
    if flight_path:
        from repro.observe.flightrec import FlightRecorder

        recorder = FlightRecorder(
            worker.delta_source,
            str(flight_path),
            every=float(cfg.get("flight_every", 1.0)),
        )
        recorder.install()  # SIGTERM/atexit/faulthandler (main thread)
        recorder.start()
        worker.flight_recorder = recorder
    return health, recorder


def run_worker(spec: WorkerSpec) -> int:
    """Build, wire, start, and serve one worker shard until stopped."""
    graph = StreamProcessingGraph.from_descriptor(spec.descriptor)
    graph.validate()
    plan = spec.deployment_plan()
    listen_host, listen_port = spec.endpoints[spec.worker_id]
    observer = None
    if spec.observe is not None:
        from repro.observe import RuntimeObserver

        observer = RuntimeObserver(
            sample_every=int(spec.observe.get("sample_every", 0) or 0)
        )
    worker = DistributedWorker(
        spec.worker_id,
        graph,
        plan,
        listen_host=listen_host,
        listen_port=listen_port,
        observer=observer,
    )
    health, recorder = _build_observability(worker, spec, plan)
    control = ControlServer(worker, port=spec.control_port)
    try:
        worker.connect(spec.endpoints)
        worker.start()
        if health is not None:
            health.start()
        print(
            f"worker {spec.worker_id}: data={worker.address} "
            f"control={control.port} "
            f"instances={plan.instances_on(spec.worker_id)}",
            flush=True,
        )
        control.stop_requested.wait()
    finally:
        if health is not None:
            health.stop()
        if observer is not None and observer.profiler is not None:
            observer.profiler.stop()
        if recorder is not None:
            recorder.stop()
            recorder.dump("shutdown")
        control.close()
    return 0


def worker_entry(spec_json: str, log_path: Optional[str] = None) -> None:
    """Spawn target: optionally redirect output to ``log_path``, then
    :func:`run_worker`.  Module-level so the spawn context can pickle it."""
    if log_path:
        log = open(log_path, "a", buffering=1, encoding="utf-8")
        sys.stdout = log
        sys.stderr = log
    raise SystemExit(run_worker(WorkerSpec.from_json(spec_json)))


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(prog="repro.cluster.worker")
    parser.add_argument("--spec", required=True, help="WorkerSpec JSON file")
    args = parser.parse_args(argv)
    with open(args.spec, "r", encoding="utf-8") as fh:
        return run_worker(WorkerSpec.from_json(fh.read()))


if __name__ == "__main__":  # pragma: no cover — exercised via subprocess
    raise SystemExit(main())
