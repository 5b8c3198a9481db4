"""Cluster observability plane against real worker processes.

Four live scenarios, one per pillar of the plane:

- **Stitching** — spans closed in different worker processes tile into
  one end-to-end trace with *exactly* zero gap and zero overlap: the
  runtime closes each stage at the float64 timestamp the next one
  opens, ``CLOCK_MONOTONIC`` is machine-wide, and JSON round-trips the
  repr exactly, so the invariant survives the control channel.
- **Restart + ack-replay** — a SIGKILLed source worker respawns and
  replays; the surviving listener suppresses the duplicate frames, so
  the merged cluster registry must count every packet exactly once and
  no stitched trace may hold a duplicated (hop, stage) span.
- **Doctor attribution** — a stalled sink on one worker closes its
  watermark gate; the backpressure cascade blocks a relay on a
  *different* worker whose local SLO monitor reports the breach.  The
  cluster doctor must blame the sink's worker for a breach observed on
  the relay's.
- **Flight recorder** — a pure SIGKILL (no dump request, no goodbye)
  must still leave a readable periodic dump on disk, and the merged
  dumps must feed ``repro doctor --from-dump`` unchanged.

Everything here imports :mod:`procharness`, so it stays behind
``@pytest.mark.cluster`` — tier-1 never spawns processes.
"""

import json
import os

import pytest
from procharness import drain, live_cluster, wait_until

from repro.cluster import build_plan
from repro.core import NeptuneConfig, StreamProcessingGraph
from repro.core.graph import descriptor_factory

pytestmark = pytest.mark.cluster


def _counter_total(registry, name, **labels):
    """Sum a counter across the merged registry's matching series."""
    total = 0.0
    for sample in registry.collect():
        if sample.name != name:
            continue
        have = dict(sample.labels or ())
        if all(have.get(k) == v for k, v in labels.items()):
            total += sample.value
    return total


# ---------------------------------------------------------------------------
# cross-worker trace stitching
# ---------------------------------------------------------------------------

STITCH_TOTAL = 200


def stitch_graph():
    graph = StreamProcessingGraph(
        "cluster-stitch",
        config=NeptuneConfig(buffer_capacity=512, buffer_max_delay=0.003),
    )
    graph.add_source(
        "source",
        descriptor_factory(
            "repro.workloads.operators:CountingSource",
            total=STITCH_TOTAL,
            payload_size=24,
        ),
    )
    graph.add_processor(
        "relay", descriptor_factory("repro.workloads.operators:RelayProcessor")
    )
    graph.add_processor(
        "sink", descriptor_factory("repro.workloads.operators:CollectingSink")
    )
    graph.link("source", "relay")
    graph.link("relay", "sink")
    return graph


def test_cross_worker_traces_tile_with_zero_gap_and_overlap():
    graph = stitch_graph()
    # Spans close on the RECEIVING worker: hop 0 (source->relay) closes
    # where the relay runs, hop 1 (relay->sink) where the sink runs —
    # pinning relay and sink to different workers makes every complete
    # trace span both processes.
    plan = build_plan(graph, n_workers=2, pin={"source": 0, "relay": 0, "sink": 1})

    with live_cluster(
        graph, n_workers=2, plan=plan, observe={"sample_every": 1}
    ) as coordinator:
        # Live-side checks while the workers are up: the DeltaSource
        # answers collect_info and the coordinator reports collection
        # age per worker (`repro cluster status`).
        assert wait_until(
            lambda: (coordinator.collector.status()["absorbed"] or 0) > 0,
            timeout=30.0,
        ), "collector never absorbed a delta"
        info = coordinator.handles[0].proxy.collect_info()
        assert info is not None and info["seq"] >= 1
        for entry in coordinator.status():
            assert "last_collect_age" in entry
        drain(coordinator)
        assert coordinator.job.failures() == {}

    collector = coordinator.collector
    # The pre-stop hook ran one final synchronous poll: the merged view
    # includes the drained tail.
    registry = collector.observer.registry
    assert (
        _counter_total(
            registry,
            "neptune_operator_packets_in_total",
            operator="sink",
            worker="1",
        )
        == STITCH_TOTAL
    )

    traces = collector.stitched()
    complete = [t for t in traces if t.complete]
    cross = [t for t in complete if len(t.workers) >= 2]
    assert cross, f"no complete cross-worker traces among {len(traces)}"
    for trace in cross:
        assert trace.hops == 2
        assert sorted(trace.workers) == ["0", "1"]
        # The tiling invariant is exact, not approximate: each stage
        # closes at the float the next one opens, and the control
        # channel's JSON round-trip preserves the floats bit-for-bit.
        assert trace.gap_seconds == 0.0
        assert trace.overlap_seconds == 0.0
        assert trace.duration > 0.0


# ---------------------------------------------------------------------------
# worker restart + ack-replay: telemetry must not double-count
# ---------------------------------------------------------------------------

REPLAY_TOTAL = 600
KILL_AT = 150  # sink packets observed before the SIGKILL


def replay_graph(sink_path):
    # Same determinism contract as the chaos suite: fixed-size records,
    # frames cut by capacity only (huge flush timer), the killed worker
    # hosts ONLY the source — its replay reproduces the first run's
    # frame boundaries, so the surviving listener suppresses the
    # duplicated prefix wholesale.
    graph = StreamProcessingGraph(
        "cluster-observe-replay",
        config=NeptuneConfig(buffer_capacity=2048, buffer_max_delay=3600.0),
    )
    graph.add_source(
        "source",
        descriptor_factory(
            "repro.workloads.operators:CountingSource",
            total=REPLAY_TOTAL,
            payload_size=24,
        ),
    )
    graph.add_processor(
        "sink",
        descriptor_factory("repro.workloads.operators:FileSink", path=str(sink_path)),
    )
    graph.link("source", "sink")
    return graph


def _sink_packets(handle):
    try:
        return handle.proxy.metrics().get("sink", {}).get("packets_in", 0)
    except Exception:
        return 0


@pytest.mark.chaos
def test_restart_and_replay_do_not_double_count_telemetry(tmp_path):
    sink_path = tmp_path / "delivered.txt"
    graph = replay_graph(sink_path)
    plan = build_plan(graph, n_workers=2, pin={"source": 0, "sink": 1})

    with live_cluster(
        graph, n_workers=2, plan=plan, observe={"sample_every": 1}
    ) as coordinator:
        survivor = coordinator.handles[1]
        assert wait_until(
            lambda: _sink_packets(survivor) >= KILL_AT, timeout=90.0
        ), "sink never reached the kill threshold"

        # Simulate an in-flight collect: a delta fetched from the doomed
        # incarnation just before the kill, absorbed only after restart.
        in_flight = coordinator.handles[0].proxy.collect()
        assert in_flight["incarnation"] == 0

        # Pure SIGKILL (dump=False: no flight-dump request first), then
        # respawn with the identical spec.  restart_worker resets the
        # collector's seq cursor so the fresh incarnation's deltas are
        # not dropped as stale.
        coordinator.kill_worker(0, dump=False)
        coordinator.restart_worker(0)
        assert coordinator.handles[0].restarts == 1
        assert coordinator.handles[0].spec.incarnation == 1

        # The dead incarnation's delta must be fenced, not absorbed
        # under the new worker label (it would bury the restarted seq).
        fenced_before = coordinator.collector.fenced
        assert coordinator.collector.absorb(in_flight) is False
        assert coordinator.collector.fenced == fenced_before + 1

        assert wait_until(
            lambda: coordinator.handles[0]
            .proxy.metrics()
            .get("source", {})
            .get("packets_out", 0)
            >= REPLAY_TOTAL,
            timeout=90.0,
        ), "restarted source never finished re-emitting"

        series = survivor.proxy.snapshot()["series"]
        suppressed = sum(
            s["value"]
            for s in series
            if s["name"] == "neptune_listener_duplicates_suppressed_total"
        )
        assert suppressed > 0, "kill did not force any replay suppression"

        drain(coordinator)
        assert coordinator.job.failures() == {}

    # Data plane: exactly-once held.
    delivered = [int(line) for line in sink_path.read_text().splitlines()]
    assert sorted(delivered) == list(range(REPLAY_TOTAL))

    # Telemetry plane: the merged counter equals the data-plane truth —
    # never-backwards absorption plus seq-stale dropping means neither
    # the replayed frames nor re-shipped deltas inflated it.
    collector = coordinator.collector
    registry = collector.observer.registry
    assert (
        _counter_total(
            registry,
            "neptune_operator_packets_in_total",
            operator="sink",
            worker="1",
        )
        == REPLAY_TOTAL
    )

    # Trace plane: span identity dedup means no stitched trace carries
    # the same (hop, stage) twice even though the restart re-executed
    # and re-shipped hops.
    for trace in collector.stitched():
        keys = [(s.hop, s.stage) for s in trace.spans]
        assert len(keys) == len(set(keys)), f"duplicate spans in {trace!r}"


@pytest.mark.chaos
def test_restart_keeps_the_killed_incarnations_flight_dump(tmp_path, capsys):
    """Regression: the respawned worker's recorder used the dead one's
    file name, so recovering from a failure erased its post-mortem
    within ``flight_every``.  One file per incarnation, and the one
    merge reads both."""
    graph = replay_graph(tmp_path / "delivered.txt")
    plan = build_plan(graph, n_workers=2, pin={"source": 0, "sink": 1})
    flight_dir = tmp_path / "flight"
    flight_dir.mkdir()
    black_box = flight_dir / "flight-w0-i0.json"
    successor = flight_dir / "flight-w0-i1.json"

    def successor_seq():
        try:
            return json.loads(successor.read_text())["seq"]
        except (OSError, ValueError):
            return 0

    with live_cluster(
        graph,
        n_workers=2,
        plan=plan,
        observe={
            "sample_every": 1,
            "flight_every": 0.2,
            "flight_dir": str(flight_dir),
        },
    ) as coordinator:
        assert wait_until(
            lambda: len(coordinator.flight_paths()) == 2, timeout=30.0
        ), "periodic flight dumps never appeared"
        assert wait_until(
            lambda: _sink_packets(coordinator.handles[1]) >= KILL_AT, timeout=90.0
        ), "sink never reached the kill threshold"
        coordinator.kill_worker(0, dump=False)
        left_behind = black_box.read_text()
        coordinator.restart_worker(0)
        # Several periods of the successor's recorder: on the parent the
        # first of them replaced the black box.
        assert wait_until(lambda: successor_seq() >= 3, timeout=30.0)
        assert wait_until(
            lambda: coordinator.handles[0]
            .proxy.metrics()
            .get("source", {})
            .get("packets_out", 0)
            >= REPLAY_TOTAL,
            timeout=90.0,
        ), "restarted source never finished re-emitting"
        drain(coordinator)

    assert [os.path.basename(p) for p in coordinator.flight_paths()] == [
        "flight-w0-i0.json",
        "flight-w0-i1.json",
        "flight-w1-i0.json",
    ]
    assert black_box.read_text() == left_behind
    killed = json.loads(left_behind)
    assert (killed["incarnation"], killed["reason"]) == (0, "periodic")
    assert (flight_dir / "flight-w0-i0.json.crash").exists()
    assert (flight_dir / "flight-w0-i1.json.crash").exists()

    from repro.cli import main as cli_main

    assert cli_main(["doctor", "--from-dump", str(flight_dir)]) == 0
    out = capsys.readouterr().out
    assert "worker 0 incarnation 0, last envelope 'periodic'" in out
    assert "worker 0 incarnation 1, last envelope" in out
    assert "worker 1 incarnation 0, last envelope" in out


# ---------------------------------------------------------------------------
# cluster doctor: cross-worker root-cause attribution
# ---------------------------------------------------------------------------

DOCTOR_TOTAL = 400

#: The relay's blocked-batch latency is paced by the sink's per-packet
#: sleep (machine-independent), so a budget well under one sink-sleep
#: makes the relay's local p99 SLO breach deterministic once the
#: cascade blocks its emit.
SINK_SLEEP = 0.04
LATENCY_BUDGET = 0.015


def doctor_graph():
    # Big records + tiny watermarks so the stalled sink's inbound
    # buffer crosses its high watermark quickly and the cascade blocks
    # the relay (the blocked emit is what breaches the relay's local
    # p99 latency SLO on a *different* worker).  The replay window is
    # four frames: with the default 8 MiB the whole 820 KB stream fits
    # in flight unacknowledged, the relay's send never waits for the
    # stalled sink, and its batches only ran late while the wire path
    # itself was slow (a pure-Python checksum at ~1.4 ms per frame).
    graph = StreamProcessingGraph(
        "cluster-doctor",
        config=NeptuneConfig(
            buffer_capacity=8192,
            buffer_max_delay=0.005,
            inbound_high_watermark=16384,
            transport_replay_window=4 * 8192,
        ),
    )
    graph.add_source(
        "source",
        descriptor_factory(
            "repro.workloads.operators:CountingSource",
            total=DOCTOR_TOTAL,
            payload_size=2048,
        ),
    )
    graph.add_processor(
        "relay", descriptor_factory("repro.workloads.operators:RelayProcessor")
    )
    graph.add_processor(
        "sink",
        descriptor_factory(
            "repro.workloads.operators:SlowSink", sleep=SINK_SLEEP, after=20
        ),
    )
    graph.link("source", "relay")
    graph.link("relay", "sink")
    return graph


@pytest.mark.slow
def test_doctor_attributes_breach_to_stalled_sink_on_other_worker():
    graph = doctor_graph()
    plan = build_plan(
        graph, n_workers=3, pin={"source": 0, "relay": 1, "sink": 2}
    )

    with live_cluster(
        graph,
        n_workers=3,
        plan=plan,
        # Worker-local health engines (slos config) are what stamp the
        # breach with the worker that OBSERVED it; the gate events carry
        # the worker that CAUSED it.
        observe={"sample_every": 1, "slos": {"latency_budget": LATENCY_BUDGET}},
        launch_timeout=180.0,
    ) as coordinator:
        drain(coordinator)
        assert coordinator.job.failures() == {}

    from repro.observe.doctor import diagnose, render_report

    report = diagnose(coordinator.collector.snapshot())

    assert report["gate_episodes"] > 0, "sink stall never closed a gate"
    assert not report["healthy"], "no SLO breach episode reached the timeline"

    root = report["root_cause"]
    assert root is not None
    assert root["type"] == "backpressure_cascade"
    assert root["operator"] == "sink"
    assert root["worker"] == "2"

    # The acceptance bar: some breach was OBSERVED on a worker other
    # than the one the doctor blames, and its top-ranked cause is still
    # the remote sink.
    remote = [
        ep
        for ep in report["breaches"]
        if ep["observed_on_worker"] not in (None, root["worker"])
        and ep["causes"]
        and ep["causes"][0]["operator"] == "sink"
    ]
    assert remote, (
        "no breach observed on a different worker was attributed to the "
        f"sink: {json.dumps(report['breaches'], default=str)[:2000]}"
    )

    rendered = render_report(report)
    assert "root cause" in rendered
    assert "on worker 2" in rendered


# ---------------------------------------------------------------------------
# flight recorder: SIGKILL leaves a readable post-mortem
# ---------------------------------------------------------------------------


def test_sigkill_leaves_flight_dump_readable_by_doctor(tmp_path):
    graph = stitch_graph()
    plan = build_plan(graph, n_workers=2, pin={"source": 0, "relay": 0, "sink": 1})
    flight_dir = tmp_path / "flight"
    flight_dir.mkdir()

    with live_cluster(
        graph,
        n_workers=2,
        plan=plan,
        observe={
            "sample_every": 1,
            "flight_every": 0.2,
            "flight_dir": str(flight_dir),
        },
    ) as coordinator:
        assert coordinator.flight_dir == str(flight_dir)
        # Both workers' periodic recorders must have persisted a dump
        # before the kill — that window IS the post-mortem.
        assert wait_until(
            lambda: len(coordinator.flight_paths()) == 2, timeout=30.0
        ), "periodic flight dumps never appeared"

        # Pure SIGKILL: dump=False means no flight_dump request over
        # the control channel — only the periodic dump can survive.
        coordinator.kill_worker(0, dump=False)
        assert not coordinator.handles[0].alive

    from repro.observe import ClusterCollector, load_snapshots
    from repro.observe.collector import TELEMETRY_SCHEMA
    from repro.observe.doctor import diagnose

    paths = coordinator.flight_paths()
    assert len(paths) == 2, f"flight dumps missing after teardown: {paths}"
    dumps = load_snapshots(str(flight_dir))
    by_worker = {d["worker"]: d for d in dumps}
    assert set(by_worker) == {0, 1}
    for dump in dumps:
        assert dump["schema"] == TELEMETRY_SCHEMA
        assert dump["seq"] >= 1
    # The killed worker got no goodbye: its last dump is a periodic one.
    assert by_worker[0]["reason"] == "periodic"

    merged = ClusterCollector.replay(dumps).snapshot()
    assert [s["worker"] for s in merged["sources"]] == [0, 1]
    assert merged["sources"][0]["reason"] == "periodic"
    report = diagnose(merged)  # consumable post-mortem, healthy or not
    assert report["schema"] == "neptune-doctor/1"

    # And the CLI path the runbook names: `repro doctor --from-dump DIR`.
    from repro.cli import main as cli_main

    assert cli_main(["doctor", "--from-dump", str(flight_dir)]) == 0
