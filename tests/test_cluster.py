"""Multi-process sharded data plane: planning, spawning, end-to-end flow.

Two tiers live in this module:

- Plain tests exercise the in-process pieces (shard planning, spec
  serialization, port reservation) — they run in tier-1.
- ``@pytest.mark.cluster`` tests spawn real worker processes through
  :mod:`procharness` and are excluded from tier-1 by the ``-m "not
  cluster"`` default (CI runs them in a dedicated job).
"""

import os
import socket
import time

import pytest
from procharness import drain, live_cluster, reserve_ports, wait_until

from repro.cluster import ClusterCoordinator, attach_proxies, build_plan
from repro.cluster.spec import WorkerSpec
from repro.core import NeptuneConfig, StreamProcessingGraph
from repro.core.control import ControlError
from repro.core.graph import descriptor_factory
from repro.observe import TelemetryRegistry
from repro.observe.bridge import absorb_series
from repro.util.errors import NeptuneError


def relay_graph(total=400, relay_parallelism=2):
    """source -> relay(xN) -> sink, all operators importable by path
    (worker processes rebuild the graph from its descriptor)."""
    graph = StreamProcessingGraph(
        "cluster-relay",
        config=NeptuneConfig(buffer_capacity=512, buffer_max_delay=0.003),
    )
    graph.add_source(
        "source",
        descriptor_factory(
            "repro.workloads.operators:CountingSource", total=total, payload_size=24
        ),
    )
    graph.add_processor(
        "relay",
        descriptor_factory("repro.workloads.operators:RelayProcessor"),
        parallelism=relay_parallelism,
    )
    graph.add_processor(
        "sink", descriptor_factory("repro.workloads.operators:CollectingSink")
    )
    graph.link("source", "relay").link("relay", "sink")
    return graph


# ---------------------------------------------------------------------------
# in-process: planning / specs / ports (tier-1)
# ---------------------------------------------------------------------------


class TestShardPlanning:
    def test_round_robin_covers_every_instance(self):
        graph = relay_graph(relay_parallelism=3)
        plan = build_plan(graph, n_workers=2)
        instances = {
            (op.name, idx)
            for op in graph.operators.values()
            for idx in range(op.parallelism)
        }
        assert set(plan.assignment) == instances
        assert set(plan.assignment.values()) <= {0, 1}
        # Both workers host something: sharding, not mirroring.
        assert len(set(plan.assignment.values())) == 2

    def test_pin_overrides_every_instance_of_the_operator(self):
        graph = relay_graph(relay_parallelism=3)
        plan = build_plan(graph, n_workers=2, pin={"relay": 1, "source": 0})
        assert plan.assignment[("source", 0)] == 0
        for idx in range(3):
            assert plan.assignment[("relay", idx)] == 1

    def test_pin_rejects_unknown_operator(self):
        graph = relay_graph()
        with pytest.raises(NeptuneError):
            build_plan(graph, n_workers=2, pin={"nope": 0})

    def test_worker_spec_json_roundtrip(self):
        graph = relay_graph()
        coordinator = ClusterCoordinator(graph, n_workers=2)
        try:
            for handle in coordinator.handles:
                spec = WorkerSpec.from_json(handle.spec.to_json())
                assert spec == handle.spec
                rebuilt = spec.deployment_plan()
                assert rebuilt.assignment == coordinator.plan.assignment
                assert rebuilt.n_workers == coordinator.plan.n_workers
        finally:
            coordinator.terminate()


class TestPortReservation:
    def test_batch_is_pairwise_distinct(self):
        ports = reserve_ports(8)
        assert len(set(ports)) == 8

    def test_coordinator_data_and_control_ports_disjoint(self):
        # Regression: data and control ports used to come from two
        # sequential reserve_ports batches — the first batch's probe
        # sockets were already closed, so the kernel could hand a data
        # port back as a control port.  One combined batch guarantees
        # pairwise-distinct ports.
        coordinator = ClusterCoordinator(relay_graph(), n_workers=3)
        try:
            data = {
                handle.spec.endpoints[handle.worker_id][1]
                for handle in coordinator.handles
            }
            control = {handle.spec.control_port for handle in coordinator.handles}
            assert len(data) == 3 and len(control) == 3
            assert not data & control
        finally:
            coordinator.terminate()


class TestLaunchVerification:
    """The NEPG130-139 gate in front of ``launch`` (no processes spawn,
    so these stay tier-1)."""

    def unseeded_graph(self):
        graph = relay_graph()
        # Rebuild the source->relay link with an unseeded shuffle: a
        # NEPG122 warning single-process, promoted to NEPG136 once the
        # plan splits the link across workers.
        graph.links[0].partitioning = {"scheme": "shuffle"}
        graph._validated = False
        graph.validate()
        return graph

    def test_launch_refuses_failing_plan_before_spawning(self):
        from repro.util.errors import PlanVerificationError

        coordinator = ClusterCoordinator(self.unseeded_graph(), n_workers=2)
        try:
            with pytest.raises(PlanVerificationError) as excinfo:
                coordinator.launch()
            # The typed error names the failing rule and carries the
            # full report; nothing was ever spawned.
            assert "NEPG136" in str(excinfo.value)
            assert excinfo.value.report.count("NEPG136") == 1
            assert all(h.process is None for h in coordinator.handles)
        finally:
            coordinator.terminate()

    def test_clean_plan_passes_the_gate(self, monkeypatch):
        coordinator = ClusterCoordinator(relay_graph(), n_workers=2)
        spawned = []
        monkeypatch.setattr(
            ClusterCoordinator, "_spawn", lambda self, h: spawned.append(h)
        )
        monkeypatch.setattr(
            ClusterCoordinator, "_connect", lambda self, h, t: None
        )
        try:
            coordinator.launch()
            assert len(spawned) == 2
        finally:
            coordinator.job = None
            coordinator.terminate()

    @pytest.mark.parametrize(
        "refusal", ["callable_operators", "policy_without_slos"]
    )
    def test_a_refused_coordinator_leaves_no_temp_directories(
        self, refusal, tmp_path, monkeypatch
    ):
        import tempfile

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        if refusal == "callable_operators":
            from repro.workloads import CollectingSink, CountingSource

            graph = StreamProcessingGraph("callables")
            graph.add_source("source", lambda: CountingSource(total=10))
            graph.add_processor("sink", CollectingSink)
            graph.link("source", "sink")
            kwargs = {"observe": {}}
        else:
            graph, kwargs = relay_graph(), {"observe": {}, "policy": True}
        with pytest.raises(NeptuneError):
            ClusterCoordinator(graph, n_workers=2, fabric="unix", **kwargs)
        assert list(tmp_path.iterdir()) == []

    def test_reserved_port_is_immediately_bindable(self):
        import socket

        port = reserve_ports(1)[0]
        with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind(("127.0.0.1", port))
            sock.listen(1)


# ---------------------------------------------------------------------------
# real processes (cluster marker; excluded from tier-1)
# ---------------------------------------------------------------------------


@pytest.mark.cluster
class TestLiveCluster:
    def test_tcp_cluster_delivers_every_packet(self):
        total = 400
        with live_cluster(relay_graph(total=total), n_workers=2) as coordinator:
            drain(coordinator)
            metrics = coordinator.metrics()
            assert metrics["sink"]["packets_in"] == total
            assert metrics["source"]["packets_out"] == total
            assert coordinator.job.failures() == {}

    def test_unix_fabric_delivers_and_cleans_up(self):
        total = 300
        with live_cluster(
            relay_graph(total=total), n_workers=2, fabric="unix"
        ) as coordinator:
            socket_dir = coordinator._socket_dir
            assert any(
                name.endswith(".sock") for name in os.listdir(socket_dir)
            )
            drain(coordinator)
            assert coordinator.metrics()["sink"]["packets_in"] == total
        # terminate() ran on context exit: socket files and dir are gone.
        assert not os.path.exists(socket_dir)

    def test_telemetry_scrape_labels_every_worker(self):
        total = 200
        with live_cluster(relay_graph(total=total), n_workers=2) as coordinator:
            # Scrape while the workers are live (the drain severs the
            # control connections the scrape rides on).
            wait_until(
                lambda: coordinator.job.metrics()
                .get("sink", {})
                .get("packets_in", 0)
                >= total,
                timeout=60.0,
            )
            registry = TelemetryRegistry()
            for handle in coordinator.handles:
                absorb_series(registry, handle.proxy.snapshot()["series"])
            drain(coordinator)
            samples = registry.collect()
            workers_seen = {dict(s.labels).get("worker") for s in samples}
            assert {"0", "1"} <= workers_seen
            names = {s.name for s in samples}
            # Operator and transport instruments both crossed the
            # process boundary.
            assert any("operator" in n or "packets" in n for n in names)

    def test_launch_reports_a_worker_that_died_before_listening(self, tmp_path):
        """Worker 1's data port is taken, so it exits at start: launch()
        says so at once instead of dialling its control port until
        ``connect_timeout``."""
        coordinator = ClusterCoordinator(
            relay_graph(), n_workers=2, log_dir=str(tmp_path)
        )
        host, port = coordinator.handles[1].spec.endpoints[1]
        with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as taken:
            taken.bind((host, port))
            taken.listen(1)
            t0 = time.monotonic()
            try:
                with pytest.raises(ControlError, match="worker 1 exited"):
                    coordinator.launch(connect_timeout=60.0)
            finally:
                coordinator.terminate()
            assert time.monotonic() - t0 < 20.0
        assert not any(h.alive for h in coordinator.handles)

    def test_status_and_state_attach(self):
        with live_cluster(relay_graph(total=200), n_workers=2) as coordinator:
            status = coordinator.status()
            assert [entry["worker_id"] for entry in status] == [0, 1]
            assert all(entry["alive"] for entry in status)
            proxies = attach_proxies(coordinator.state())
            try:
                assert sorted(p.worker_id for p in proxies) == [0, 1]
                for proxy in proxies:
                    assert isinstance(proxy.metrics(), dict)
            finally:
                for proxy in proxies:
                    proxy.close()
            drain(coordinator)
