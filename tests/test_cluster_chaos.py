"""Chaos against real processes: SIGKILL a worker mid-stream, prove
exactly-once delivery end to end.

The scenario reuses the :mod:`repro.chaos` fault-plan vocabulary
(``FaultPlan.at(site, index, FaultAction.KILL_NODE)``) but fires it at
*live worker processes* through
:class:`~repro.cluster.ProcessFaultDriver` — index is data progress
(packets observed at the sink), not a frame ordinal.

Determinism contract that makes kill-and-replay byte-compatible:

- the killed worker hosts ONLY the source (``pin``), so no received
  state dies with it — everything it re-sends is reproducible;
- the source is a deterministic counter re-emitting the same records
  from 0 after restart;
- records are fixed-size and ``buffer_max_delay`` is huge, so frames
  are cut by capacity only — the replayed frame boundaries match the
  first run's byte for byte;
- the drain is only started after the restarted source has re-emitted
  everything (a forced flush mid-replay would cut a frame at a
  different boundary inside the suppressed range and lose records);
- the sink worker survives, so its listener keeps its
  :class:`~repro.net.protocol.Receiver` — the replayed prefix is
  suppressed as duplicates (and re-acked), the rest is delivered once.

The audit trail is a :class:`~repro.workloads.FileSink` on the
surviving worker: after the drain the file must contain every sequence
number exactly once, and the surviving listener must report
``duplicates_suppressed > 0`` (proof the kill actually forced replay).
"""

import pytest
from procharness import drain, live_cluster, wait_until

from repro.chaos.plan import FaultAction, FaultPlan
from repro.cluster import ProcessFaultDriver, build_plan, worker_site
from repro.core import NeptuneConfig, StreamProcessingGraph
from repro.core.graph import descriptor_factory

TOTAL = 600
KILL_AT = 150  # sink packets observed before the SIGKILL fires


def chaos_graph(sink_path):
    graph = StreamProcessingGraph(
        "cluster-chaos",
        config=NeptuneConfig(
            buffer_capacity=2048,
            # Effectively infinite: frames are cut by capacity only, so
            # the replayed run reproduces the first run's boundaries.
            buffer_max_delay=3600.0,
        ),
    )
    graph.add_source(
        "source",
        descriptor_factory(
            "repro.workloads.operators:CountingSource", total=TOTAL, payload_size=24
        ),
    )
    graph.add_processor(
        "sink",
        descriptor_factory(
            "repro.workloads.operators:FileSink", path=str(sink_path)
        ),
    )
    graph.link("source", "sink")
    return graph


def _sink_packets(handle):
    try:
        return handle.proxy.metrics().get("sink", {}).get("packets_in", 0)
    except Exception:
        return 0


@pytest.mark.cluster
@pytest.mark.chaos
def test_sigkill_worker_mid_stream_keeps_delivery_exactly_once(tmp_path):
    sink_path = tmp_path / "delivered.txt"
    graph = chaos_graph(sink_path)
    # Worker 0 hosts ONLY the source; the sink (and its listener state)
    # lives on worker 1, which is never killed.
    plan = build_plan(graph, n_workers=2, pin={"source": 0, "sink": 1})
    fault_plan = FaultPlan().at(worker_site(0), KILL_AT, FaultAction.KILL_NODE)

    with live_cluster(graph, n_workers=2, plan=plan) as coordinator:
        driver = ProcessFaultDriver(coordinator, fault_plan, restart=True)
        assert driver.pending == 1  # the plan parsed into a live kill

        survivor = coordinator.handles[1]
        assert wait_until(
            lambda: _sink_packets(survivor) >= KILL_AT, timeout=90.0
        ), "sink never reached the kill threshold"
        assert driver.poll(_sink_packets(survivor)) == [0]
        assert driver.killed == [(KILL_AT, 0)]
        assert driver.pending == 0
        assert coordinator.handles[0].restarts == 1
        assert coordinator.handles[0].alive

        # Let the restarted source finish its deterministic replay
        # BEFORE draining: drain forces partial-frame flushes, which
        # must not happen inside the suppressed (replayed) range.
        assert wait_until(
            lambda: coordinator.handles[0]
            .proxy.metrics()
            .get("source", {})
            .get("packets_out", 0)
            >= TOTAL,
            timeout=90.0,
        ), "restarted source never finished re-emitting"

        # The surviving listener saw the replayed prefix and dropped it.
        series = survivor.proxy.snapshot()["series"]
        suppressed = sum(
            s["value"]
            for s in series
            if s["name"] == "neptune_listener_duplicates_suppressed_total"
        )
        assert suppressed > 0, "kill did not force any replay suppression"

        drain(coordinator)
        assert coordinator.job.failures() == {}

    delivered = [int(line) for line in sink_path.read_text().splitlines()]
    assert len(delivered) == TOTAL, (
        f"lost {TOTAL - len(delivered)} packets"
        if len(delivered) < TOTAL
        else f"{len(delivered) - TOTAL} duplicated packets"
    )
    assert sorted(delivered) == list(range(TOTAL))


def test_fault_driver_ignores_non_kill_and_foreign_sites(tmp_path):
    """Plan parsing is in-process: wire faults and unknown sites must
    not turn into process kills."""
    from repro.cluster import ClusterCoordinator

    graph = chaos_graph(tmp_path / "unused.txt")
    plan = build_plan(graph, n_workers=2, pin={"source": 0, "sink": 1})
    coordinator = ClusterCoordinator(graph, n_workers=2, plan=plan)
    try:
        fault_plan = (
            FaultPlan()
            .at("tcp.send", 3, FaultAction.KILL_CONNECTION)
            .at(worker_site(1), 40, FaultAction.KILL_NODE)
        )
        driver = ProcessFaultDriver(coordinator, fault_plan, restart=False)
        assert driver.pending == 1  # only the cluster.worker KILL_NODE
        assert driver.poll(10) == []  # progress below the kill index
        assert driver.killed == []
    finally:
        coordinator.terminate()
