"""Continuous profiling plane against real worker processes.

The acceptance scenario ISSUE 10 names: a busy-loop hot operator
(:class:`~repro.workloads.operators.SpinProcessor`) is fed faster than
it can compute, but with a total byte volume far below the inbound
high watermark — the queue (and with it the put-to-drain latency the
p99 SLO watches) grows behind the busy loop while **no backpressure
gate ever closes**.  The breach has exactly one honest explanation,
and the doctor must find it in the ``neptune_profile_*`` series:
**compute_bound**, naming the operator, the worker burning the CPU,
and the hottest frame.  The same diagnosis must reproduce post-mortem
from the SIGKILLed worker's periodic flight dump
(``repro doctor/profile --from-dump``).

Everything here imports :mod:`procharness`, so it stays behind
``@pytest.mark.cluster`` — tier-1 never spawns processes.
"""

import json
import time

import pytest
from procharness import live_cluster, wait_until

from repro.cluster import build_plan
from repro.core import NeptuneConfig, StreamProcessingGraph
from repro.core.graph import descriptor_factory

pytestmark = pytest.mark.cluster

SPIN_TOTAL = 120
#: CPU burned per packet: the spin stage services ~33 packets/s.
SPIN_SECONDS = 0.03
LATENCY_BUDGET = 0.01
#: Source pacing: 100 packets/s against a 33/s service rate.  The
#: queue behind the busy loop grows to seconds of put-to-drain latency
#: (deterministic breach), yet the whole run is ~8 KB of payload —
#: nowhere near the 4 MiB inbound watermark, so no gate ever closes
#: and backpressure can take no part in the diagnosis.
SOURCE_INTERVAL = 0.01


def spin_graph():
    graph = StreamProcessingGraph(
        "cluster-profile",
        config=NeptuneConfig(buffer_capacity=512, buffer_max_delay=0.003),
    )
    graph.add_source(
        "source",
        descriptor_factory(
            "repro.workloads.operators:CountingSource",
            total=SPIN_TOTAL,
            payload_size=64,
            interval=SOURCE_INTERVAL,
        ),
    )
    graph.add_processor(
        "spin",
        descriptor_factory(
            "repro.workloads.operators:SpinProcessor", spin_seconds=SPIN_SECONDS
        ),
    )
    graph.add_processor(
        "sink", descriptor_factory("repro.workloads.operators:CollectingSink")
    )
    graph.link("source", "spin")
    graph.link("spin", "sink")
    return graph


def _breaches_absorbed(collector):
    return [
        e
        for e in collector.observer.timeline.snapshot("health", "slo_breach")
        if str(e.attrs.get("operator", "")).startswith("spin")
    ]


@pytest.mark.slow
def test_compute_bound_breach_attributed_live_and_from_sigkill_dump(tmp_path):
    graph = spin_graph()
    plan = build_plan(graph, n_workers=2, pin={"source": 0, "spin": 1, "sink": 1})
    flight_dir = tmp_path / "flight"
    flight_dir.mkdir()

    with live_cluster(
        graph,
        n_workers=2,
        plan=plan,
        observe={
            "sample_every": 1,
            "slos": {"latency_budget": LATENCY_BUDGET},
            "profile": {"hz": 50.0, "window_seconds": 1.0},
            "flight_every": 0.25,
            "flight_dir": str(flight_dir),
        },
        launch_timeout=180.0,
    ) as coordinator:
        collector = coordinator.collector

        # Live sampler state over the control plane — what
        # `repro cluster status` renders per worker.
        assert wait_until(
            lambda: all(
                (h.proxy.collect_info() or {}).get("profiler", {}).get("state")
                == "sampling"
                for h in coordinator.handles
            ),
            timeout=30.0,
        ), "workers never reported a sampling profiler"

        # The breach must land before we judge the post-mortem.
        assert wait_until(
            lambda: bool(_breaches_absorbed(collector)), timeout=60.0
        ), "spin operator never breached its latency SLO"

        # Live full-profile fetch (`repro profile --workers N` path).
        def hot_profile():  # series and profile only: no spans, no events
            return coordinator.handles[1].proxy.snapshot(0, 0)["profile"]

        hot = hot_profile()
        assert hot["state"] == "sampling"
        assert wait_until(
            lambda: "spin" in hot_profile()["operators"], timeout=30.0
        ), f"spin never sampled; operators={sorted(hot['operators'])}"
        assert hot_profile()["operators"]["spin"]["stacks"]
        info = coordinator.handles[1].proxy.collect_info()["profiler"]
        assert info["cpu_mode"] in ("task-stat", "wall")
        assert info["samples"] > 0

        # Let a profile window close and a periodic flight dump persist
        # *after* the breach — that dump is the whole post-mortem.
        assert wait_until(
            lambda: coordinator.handles[1].proxy.collect_info()["profiler"][
                "window_age_seconds"
            ]
            >= 0.0,
            timeout=30.0,
        ), "no profile window ever closed"
        time.sleep(1.0)

        # Pure SIGKILL: no dump request, no goodbye.
        coordinator.kill_worker(1, dump=False)
        assert not coordinator.handles[1].alive

        # The hot worker is gone; the live merged view must already be
        # diagnosable (this is `repro doctor --workers N`).
        from repro.observe.doctor import diagnose

        live_report = diagnose(collector.snapshot())

    assert live_report["gate_episodes"] == 0, "pacing failed: a gate closed"
    assert not live_report["healthy"]
    live_causes = [
        c
        for ep in live_report["breaches"]
        for c in ep["causes"]
        if c["type"] == "compute_bound"
    ]
    assert live_causes, json.dumps(live_report["breaches"], default=str)[:2000]
    top = max(live_causes, key=lambda c: c["score"])
    assert top["operator"] == "spin"
    assert top["worker"] == "1"
    assert "operators.py" in top["detail"], top["detail"]

    # ---- post-mortem: the SIGKILLed worker's periodic dump ----------------
    from repro.observe import ClusterCollector, load_snapshots

    paths = coordinator.flight_paths()
    assert len(paths) == 2, f"flight dumps missing: {paths}"
    dumps = load_snapshots(str(flight_dir))
    by_worker = {d["worker"]: d for d in dumps}
    assert by_worker[1]["schema"] == "neptune-telemetry/1"
    assert by_worker[1]["reason"] == "periodic"  # SIGKILL: no goodbye dump
    assert by_worker[1]["profile"]["operators"], "dump carries no profile section"
    assert "stacks" not in by_worker[1]["profile"]["operators"]["spin"]

    merged = ClusterCollector.replay(dumps).snapshot()
    assert "1" in merged["profile"]["operators"]["spin"]["workers"]
    report = diagnose(merged)
    assert not report["healthy"]
    causes = [
        c
        for ep in report["breaches"]
        for c in ep["causes"]
        if c["type"] == "compute_bound"
    ]
    assert causes, "dump-based diagnosis lost the compute_bound attribution"
    top = max(causes, key=lambda c: c["score"])
    assert top["operator"] == "spin"
    assert top["worker"] == "1"

    # ---- the CLI runbook paths -------------------------------------------
    from repro.cli import main as cli_main

    assert cli_main(["doctor", "--from-dump", str(flight_dir)]) in (0, 1)
    out = tmp_path / "postmortem.speedscope.json"
    assert (
        cli_main(["profile", "--from-dump", str(flight_dir), "--dump", str(out)]) == 0
    )
    doc = json.loads(out.read_text())
    assert doc["$schema"] == "https://www.speedscope.app/file-format-schema.json"
    assert any(p["name"] == "spin" for p in doc["profiles"])
