"""Live elasticity: SLO breach → policy action → measurable heal.

Two real-process scenarios close the loop the unit suites verify in
pieces (`test_observe_policy` for decisions, `test_control_plane` for
the reconfigure command, `test_granules` for the pool's growth):

- **Self-healing retune** — a sink that pays a fixed per-*batch*
  overhead drowns in the tiny frames a small capacity cut produces.
  Its inbound backlog breaches a ``buffer_occupancy`` SLO, the doctor
  blames the sink's backpressure cascade, and the policy engine issues
  one ``batch_up`` retune of the legs feeding the sink.  The backlog
  then drains *without restarting anything* and the monitor recovers.
  Exactly-once is audited from the sink's on-disk record.

- **Operator migration** — `migrate_operator` moves a mid-pipeline
  relay to another worker by re-verified re-plan + kill/restart
  splicing of the replay closure.  The surviving sink worker's
  link-id-keyed trackers suppress the replayed prefix, so the on-disk
  record still holds exactly one line per packet.  The NEPG138 safety
  interlocks (never restart a sink host, never migrate a sink) are
  asserted on the same live cluster before the real move.

Everything here imports :mod:`procharness`, so it stays behind
``@pytest.mark.cluster`` — tier-1 never spawns processes.
"""

import json
from pathlib import Path

import pytest
from procharness import drain, live_cluster, wait_until

from repro.cluster import build_plan
from repro.core import NeptuneConfig, StreamProcessingGraph
from repro.core.graph import descriptor_factory
from repro.observe import SLO
from repro.util.errors import NeptuneError

pytestmark = pytest.mark.cluster


# ---------------------------------------------------------------------------
# self-healing retune: breach -> policy -> drain -> recover, no restart
# ---------------------------------------------------------------------------

HEAL_TOTAL = 4000

#: Fixed cost the sink pays per BATCH (not per packet): tiny frames
#: multiply it, big frames amortize it — the retune is a genuine cure,
#: not a coincidence of the workload finishing.
BATCH_OVERHEAD = 0.015

#: Bytes of sink inbound backlog that count as a breach; well under the
#: high watermark so the gauge can actually cross it.
OCCUPANCY_THRESHOLD = 2048.0


def heal_graph(audit_path):
    # Small capacity cut => frames of a handful of packets => the sink
    # spends almost all its time in per-batch overhead and its inbound
    # channel backs up against the watermark.
    graph = StreamProcessingGraph(
        "cluster-policy-heal",
        config=NeptuneConfig(
            buffer_capacity=256,
            buffer_max_delay=0.5,
            inbound_high_watermark=16384,
        ),
    )
    graph.add_source(
        "source",
        descriptor_factory(
            "repro.workloads.operators:CountingSource",
            total=HEAL_TOTAL,
            payload_size=24,
        ),
    )
    graph.add_processor(
        "relay", descriptor_factory("repro.workloads.operators:RelayProcessor")
    )
    graph.add_processor(
        "sink",
        descriptor_factory(
            "repro.workloads.operators:BatchOverheadSink",
            overhead=BATCH_OVERHEAD,
            path=str(audit_path),
        ),
    )
    graph.link("source", "relay")
    graph.link("relay", "sink")
    return graph


@pytest.mark.slow
def test_policy_heals_stalled_sink_without_restart(tmp_path):
    audit_path = tmp_path / "delivered.txt"
    log_dir = tmp_path / "logs"
    log_dir.mkdir()
    graph = heal_graph(audit_path)
    plan = build_plan(graph, n_workers=2, pin={"source": 0, "relay": 0, "sink": 1})

    slo = SLO(
        "sink-backlog",
        "buffer_occupancy",
        threshold=OCCUPANCY_THRESHOLD,
        operator="sink",
    )

    with live_cluster(
        graph,
        n_workers=2,
        plan=plan,
        observe={},
        slos=[slo],
        collect_interval=0.1,
        policy=True,
        log_dir=str(log_dir),
    ) as coordinator:
        engine = coordinator.policy
        assert engine is not None
        monitor = coordinator.collector.health.monitors[0]

        # Breach fires, the doctor attributes it, and the engine acts.
        assert wait_until(
            lambda: len(engine.decisions) >= 1, timeout=60.0
        ), f"policy never acted; warnings={engine.warnings!r}"

        # The heal: backlog drains below the SLO and the monitor
        # returns to "ok" — with every worker's original process.
        assert wait_until(
            lambda: monitor.breaches >= 1 and monitor.status == "ok",
            timeout=90.0,
        ), f"monitor never recovered: {monitor.as_dict()!r}"

        drain(coordinator)
        assert coordinator.job.failures() == {}
        assert all(h.restarts == 0 for h in coordinator.handles), (
            "the heal must come from reconfiguration, not a restart"
        )

    # Decision plane: the stalled sink maps to batch_up retunes of the
    # legs INTO the sink — never a migrate or restart.
    assert {a.kind for a in engine.decisions} == {"retune"}
    first = engine.decisions[0]
    assert first.operator == "sink"
    assert first.cause == "backpressure_cascade"
    assert first.params["where"] == "into"
    assert coordinator.policy_errors == 0

    # Act plane: some worker really retuned a `...->sink[...]` buffer
    # to the policy's deadline target, live.
    retuned = [
        change
        for entry in coordinator.policy_applied
        for report in entry["applied"]
        for change in report.get("applied", [])
        if change["kind"] == "retune" and "->sink[" in change["buffer"]
    ]
    assert retuned, f"no sink leg was retuned: {coordinator.policy_applied!r}"
    assert retuned[0]["max_delay"][1] == first.params["max_delay"]

    # Action log: one canonical JSON line per decision, byte-equal to
    # the engine's own log (the determinism contract's observable).
    log_lines = Path(coordinator.policy_log_path).read_text().splitlines()
    assert log_lines == engine.action_log()
    assert json.loads(log_lines[0])["kind"] == "retune"
    assert coordinator.state()["policy"]["enabled"] is True

    # Data plane: reconfiguration lost and duplicated nothing.
    delivered = [int(line) for line in audit_path.read_text().splitlines()]
    assert sorted(delivered) == list(range(HEAL_TOTAL))


# ---------------------------------------------------------------------------
# operator migration: verified re-plan + replay-closure restart
# ---------------------------------------------------------------------------

MIGRATE_TOTAL = 2000
MIGRATE_AT = 200  # sink packets observed before the move


def migrate_graph(audit_path):
    # Chaos-suite determinism contract: fixed-size records, frames cut
    # by capacity only (huge flush timer), so the restarted shards'
    # replay reproduces the first run's frame boundaries and the
    # surviving sink worker suppresses the duplicated prefix wholesale.
    graph = StreamProcessingGraph(
        "cluster-policy-migrate",
        config=NeptuneConfig(buffer_capacity=2048, buffer_max_delay=3600.0),
    )
    graph.add_source(
        "source",
        descriptor_factory(
            "repro.workloads.operators:CountingSource",
            total=MIGRATE_TOTAL,
            payload_size=24,
        ),
    )
    graph.add_processor(
        "relayA", descriptor_factory("repro.workloads.operators:RelayProcessor")
    )
    graph.add_processor(
        "relayB", descriptor_factory("repro.workloads.operators:RelayProcessor")
    )
    graph.add_processor(
        "sink",
        descriptor_factory("repro.workloads.operators:FileSink", path=str(audit_path)),
    )
    graph.link("source", "relayA")
    graph.link("relayA", "relayB")
    graph.link("relayB", "sink")
    return graph


def _sink_packets(handle):
    try:
        return handle.proxy.metrics().get("sink", {}).get("packets_in", 0)
    except Exception:
        return 0


@pytest.mark.chaos
def test_migrate_operator_preserves_exactly_once(tmp_path):
    audit_path = tmp_path / "delivered.txt"
    graph = migrate_graph(audit_path)
    # relayB shares worker 1 with relayA: it is restarted as collateral
    # (same shard) even though only {source, relayA} form the replay
    # closure — its own replayed output is suppressed by the surviving
    # sink worker's trackers.
    plan = build_plan(
        graph,
        n_workers=3,
        pin={"source": 0, "relayA": 1, "relayB": 1, "sink": 2},
    )

    with live_cluster(graph, n_workers=3, plan=plan) as coordinator:
        sink_handle = coordinator.handles[2]
        assert wait_until(
            lambda: _sink_packets(sink_handle) >= MIGRATE_AT, timeout=90.0
        ), "sink never reached the migration threshold"

        # Interlock 1: a sink's effects already escaped — migrating it
        # is refused before any process is touched.
        with pytest.raises(NeptuneError, match="sink"):
            coordinator.migrate_operator("sink", 0)

        # Interlock 2: the target worker joins the restart set; if it
        # hosts a sink, the move is refused.
        with pytest.raises(NeptuneError, match="restart set"):
            coordinator.migrate_operator("relayA", 2)

        # Interlocks must be pure checks: nothing died, plan unchanged.
        assert all(h.alive for h in coordinator.handles)
        assert all(h.restarts == 0 for h in coordinator.handles)
        assert coordinator.plan.assignment[("relayA", 0)] == 1

        # The real move: relayA from worker 1 to worker 0.  Replay
        # closure {source, relayA} lives on {0, 1}; the sink's worker 2
        # survives with its tracker state intact.
        result = coordinator.migrate_operator("relayA", 0)
        assert result["operator"] == "relayA"
        assert result["from"] == [1]
        assert result["to"] == 0
        assert result["restarted"] == [0, 1]
        assert coordinator.handles[0].restarts == 1
        assert coordinator.handles[1].restarts == 1
        assert coordinator.handles[2].restarts == 0
        assert coordinator.plan.assignment[("relayA", 0)] == 0
        # The committed specs carry the converged plan: any future
        # restart (crash or policy) respawns into the new placement.
        raw = dict(coordinator.handles[2].spec.plan or {})
        assert ["relayA", 0, 0] in raw["assignment"]

        drain(coordinator)
        assert coordinator.job.failures() == {}

    # Exactly-once across the move: the replayed prefix was suppressed
    # by the surviving sink worker, the continuation was accepted.
    delivered = [int(line) for line in audit_path.read_text().splitlines()]
    assert sorted(delivered) == list(range(MIGRATE_TOTAL))
    assert len(delivered) == MIGRATE_TOTAL
