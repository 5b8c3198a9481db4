"""One trial: a fresh process runs one complete job and prints what it saw.

``python -m perf.trial '<json spec>'`` is started by :mod:`perf.run`,
pinned to one CPU unless the workload spawns cluster workers.  It
builds the workload's graph from public API only, runs it to
completion, gathers what the operators wrote, and prints one JSON
object: raw values plus the speed the in-run probe saw.  Normalising
and aggregating over trials is the parent's job.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import sys
import time

from repro.core.config import NeptuneConfig
from repro.core.graph import StreamProcessingGraph, descriptor_factory
from repro.core.partitioning import FieldsPartitioning
from repro.core.runtime import NeptuneRuntime
from repro.net.framing import HEADER_SIZE

from perf.workloads import WORKLOADS, Workload

JOB_TIMEOUT = 120.0
AGGREGATES = 4


def build_graph(
    workload: Workload, packets: int, seed: int, out_dir: str, traced: bool
) -> StreamProcessingGraph:
    """The workload's graph; every operator is a ``perf.ops`` class."""
    if workload.keyed:
        # Four destinations share the stream, so 32 KiB per leg would
        # never fill within 5 ms and every batch would be cut by the
        # timer, wherever the machine's speed put the cut.  Smaller
        # buffers and a slack timer make the keyed link's batches
        # capacity-triggered: LZ4 sees the same bytes in every run.
        config = NeptuneConfig(
            buffer_capacity=8 * 1024, buffer_max_delay=0.1, compression_enabled=True
        )
    else:
        config = NeptuneConfig(buffer_capacity=32 * 1024, buffer_max_delay=0.005)
    graph = StreamProcessingGraph(f"perf-{workload.name}", config=config)
    common = {"out_dir": out_dir, "traced": traced}
    feed = {"total": packets, "seed": seed, **common}
    if workload.keyed:
        graph.add_source("source", descriptor_factory("perf.ops:SensorSource", **feed))
        graph.add_processor(
            "aggregate",
            descriptor_factory("perf.ops:Aggregate", **common),
            parallelism=AGGREGATES,
        )
        graph.link(
            "source", "aggregate", partitioning=FieldsPartitioning(["sensor_id"])
        )
        last = "aggregate"
    else:
        if workload.rate is None:
            source = descriptor_factory("perf.ops:RelaySource", **feed)
        else:
            source = descriptor_factory(
                "perf.ops:PacedSource", rate=workload.rate, **feed
            )
        graph.add_source("source", source)
        graph.add_processor("relay", descriptor_factory("perf.ops:Relay", **common))
        graph.link("source", "relay")
        last = "relay"
    graph.add_processor(
        "sink",
        descriptor_factory("perf.ops:Sink", keyed=workload.keyed, **feed),
    )
    graph.link(last, "sink")
    return graph


def run_job(
    workload: Workload, graph: StreamProcessingGraph, out_dir: str, full_drain: bool
) -> dict:
    """Run ``graph`` to completion; returns the public operator metrics
    plus the coordinator-side timings a cluster job has."""
    if not workload.cluster:
        with NeptuneRuntime() as runtime:
            handle = runtime.submit(graph)
            if not handle.await_completion(timeout=JOB_TIMEOUT):
                raise RuntimeError(f"{workload.name}: job did not drain")
            if handle.failures:
                raise RuntimeError(f"{workload.name}: {handle.failures}")
            return {"operators": handle.metrics()}
    # Imported here so that the in-process workloads' setup_s does not
    # pay for the cluster package.
    from repro.cluster import ClusterCoordinator
    from repro.cluster.spec import build_plan

    # Source and sink share worker 0 and the relay sits on worker 1, so
    # every packet crosses a socket twice; ack-replay stays on, as
    # NeptuneConfig defaults it.
    plan = build_plan(graph, 2, pin={"source": 0, "relay": 1, "sink": 0})
    coordinator = ClusterCoordinator(graph, plan=plan, fabric="tcp", log_dir=out_dir)
    cpu0 = time.process_time()
    t0 = time.monotonic()
    try:
        job = coordinator.launch()
        launched = time.monotonic()
        # Timed trials drain through the job and then reap the workers:
        # ClusterCoordinator.await_completion also waits ~5 s for each
        # worker's control server to close, which the traced pass
        # reports as cluster.drain_s instead of paying it in every trial.
        drain = coordinator if full_drain else job
        drained = drain.await_completion(timeout=JOB_TIMEOUT)
        if job.failures():
            raise RuntimeError(f"{workload.name}: {job.failures()}")
        if not drained:
            raise RuntimeError(f"{workload.name}: cluster did not drain")
        return {
            "operators": job.metrics(),
            "launch_s": launched - t0,
            "drained_at": time.monotonic(),
            # The coordinator polls and drains: part of the job's cost.
            "coordinator_cpu": time.process_time() - cpu0,
        }
    finally:
        coordinator.terminate()


def collect(out_dir: str) -> tuple[dict, list[dict], list[dict]]:
    """Operator reports by ``name-index``, process-meter reports, spans."""
    reports: dict = {}
    procs: list[dict] = []
    spans: list[dict] = []
    for entry in sorted(os.listdir(out_dir)):
        if not entry.endswith(".json"):
            continue
        with open(os.path.join(out_dir, entry)) as fh:
            data = json.load(fh)
        if entry.startswith("proc-"):
            procs.append(data)
        else:
            spans.extend(data.pop("spans", ()))
            reports[entry[: -len(".json")]] = data
    return reports, procs, spans


def run_trial(spec: dict) -> dict:
    workload = WORKLOADS[spec["workload"]]
    out_dir = spec["out_dir"]
    os.makedirs(out_dir)
    graph = build_graph(workload, spec["packets"], spec["seed"], out_dir, spec["traced"])
    job = run_job(workload, graph, out_dir, spec.get("full_drain", False))
    reports, procs, spans = collect(out_dir)
    # A trial that raised keeps its directory (worker logs) for the post-mortem.
    shutil.rmtree(out_dir)
    sink = reports["sink-0"]
    operators = job["operators"]
    result: dict = {
        "audit": sink["audit"],
        "operators": operators,
        "spans": spans,
    }
    if sink["audit"]["failed"]:
        return result  # a failed trial contributes no timings
    if "window_seconds" not in sink:
        raise RuntimeError(f"{workload.name}: {spec['packets']} packets are too few to time")
    delivered = sink["audit"]["delivered"]
    probe_cpu = sum(p["probe_cpu"] for p in procs)
    job_cpu = sum(p["cpu"] for p in procs) + job.get("coordinator_cpu", 0.0)
    rss = sum(p["peak_rss_mb"] for p in procs)
    if workload.cluster:
        rss += resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wire_bytes = sum(
        m["bytes_in"] + m["batches_in"] * HEADER_SIZE for m in operators.values()
    )
    result.update(
        setup_s=sink["first_created"] - spec["spawned_at"],
        speed_mloops=sum(p["probe_loops"] for p in procs) / probe_cpu / 1e6,
        raw_throughput_pps=sink["window_packets"] / sink["window_seconds"],
        raw_cpu_us_per_packet=(job_cpu - probe_cpu) / delivered * 1e6,
        probe_frac=probe_cpu / job_cpu,
        latency_p50_ms=sink["latency_p50_ms"],
        latency_p95_ms=sink["latency_p95_ms"],
        latency_p99_ms=sink["latency_p99_ms"],
        latency_samples=sink["latency_samples"],
        wire_bytes_per_packet=wire_bytes / delivered,
        peak_rss_mb=rss,
        job_wall_s=max(p["wall"] for p in procs),
        vol_ctx_switches=sum(p["nvcsw"] for p in procs),
        late_ms_p95=reports.get("source-0", {}).get("late_ms_p95", 0.0),
        launch_s=job.get("launch_s", 0.0),
        drain_s=job.get("drained_at", sink["last_received"]) - sink["last_received"],
    )
    return result


def main(argv: list[str]) -> int:
    spec = json.loads(argv[1])
    print(json.dumps(run_trial(spec)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
