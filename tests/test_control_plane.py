"""Tests for the multi-process control plane (control server, remote
proxies, coordinated drain, and the ``repro.cluster.worker`` process
entry point run by hand)."""

import json
import os
import socket
import subprocess
import sys
import time

import pytest
from procharness import reserve_ports
from waiters import wait_until

from repro.cluster import ClusterCoordinator
from repro.cluster.spec import WorkerSpec
from repro.core import NeptuneConfig, StreamProcessingGraph
from repro.core.control import (
    COMMANDS,
    ControlError,
    ControlServer,
    RemoteDistributedJob,
    RemoteWorker,
)
from repro.core.distributed import DistributedWorker, round_robin_plan
from repro.core.graph import descriptor_factory
from repro.core.job import JobState
from repro.util.errors import NeptuneError
from repro.workloads import CollectingSink, CountingSource, RelayProcessor


def relay_graph(total=300):
    store = []
    g = StreamProcessingGraph(
        "ctl-relay",
        config=NeptuneConfig(buffer_capacity=2048, buffer_max_delay=0.005),
    )
    g.add_source("sender", lambda: CountingSource(total=total))
    g.add_processor("relay", RelayProcessor)
    g.add_processor("receiver", lambda: CollectingSink(store))
    g.link("sender", "relay").link("relay", "receiver")
    return g, store


class TestControlServerInProcess:
    def _workers_with_control(self, graph):
        plan = round_robin_plan(graph, 2)
        workers = [DistributedWorker(w, graph, plan) for w in range(2)]
        endpoints = {w.worker_id: w.address for w in workers}
        for w in workers:
            w.connect(endpoints)
        servers = [ControlServer(w) for w in workers]
        proxies = [RemoteWorker("127.0.0.1", s.port) for s in servers]
        return workers, servers, proxies

    def test_remote_coordination_end_to_end(self):
        graph, store = relay_graph(400)
        workers, servers, proxies = self._workers_with_control(graph)
        try:
            for w in workers:
                w.start()
            job = RemoteDistributedJob(proxies)
            assert job.await_completion(timeout=90)
        finally:
            for s in servers:
                s.close()
        assert store == list(range(400))

    def test_remote_metrics_and_failures(self):
        graph, store = relay_graph(100)
        workers, servers, proxies = self._workers_with_control(graph)
        try:
            for w in workers:
                w.start()
            job = RemoteDistributedJob(proxies)
            assert job.await_completion(timeout=60)
            # Workers are stopped by the drain; metrics were merged
            # through proxies during the run — query one directly via a
            # fresh snapshot taken before stop is not possible now, so
            # just verify protocol-level behaviours below.
        finally:
            for s in servers:
                s.close()
        assert store == list(range(100))

    def test_a_raising_hook_is_recorded_not_swallowed(self):
        graph, store = relay_graph(50)
        workers, servers, proxies = self._workers_with_control(graph)
        ran = []

        def dies():
            raise RuntimeError("collector fell over")

        try:
            for w in workers:
                w.start()
            job = RemoteDistributedJob(proxies)
            job.pre_stop_hooks += [dies, lambda: ran.append("after")]
            assert job.await_completion(timeout=60)
        finally:
            for s in servers:
                s.close()
        assert store == list(range(50))
        assert ran == ["after"]  # one dying hook does not stop the next
        [(name, exc)] = job.hook_errors
        assert name == "dies" and isinstance(exc, RuntimeError)

    def test_a_worker_that_vanishes_mid_wait_is_a_control_error(self):
        graph, _ = relay_graph(total=None)  # the wait would never end
        workers, servers, proxies = self._workers_with_control(graph)
        try:
            for w in workers:
                w.start()
            job = RemoteDistributedJob(proxies)
            assert not job.await_completion(timeout=0.3)
            assert job.state is JobState.RUNNING
            proxies[0].close()  # what a dead worker's socket looks like
            with pytest.raises(ControlError):
                job.await_completion(timeout=30)
            # ClusterCoordinator.await_completion turns that into False.
            coordinator = ClusterCoordinator.__new__(ClusterCoordinator)
            coordinator.job = job
            assert coordinator.await_completion(timeout=30) is False
        finally:
            for w in workers:
                w.finish_sources()
                w.stop()
            for s in servers:
                s.close()

    def test_ping_identifies_worker(self):
        graph, _ = relay_graph(10)
        plan = round_robin_plan(graph, 2)
        worker = DistributedWorker(1, graph, plan)
        server = ControlServer(worker)
        try:
            proxy = RemoteWorker("127.0.0.1", server.port)
            assert proxy.worker_id == 1
            assert proxy.is_quiet() in (True, False)
            proxy.stop()
        finally:
            server.close()

    def test_reconfigure_retunes_buffers_and_resizes_pool(self):
        graph, store = relay_graph(300)
        workers, servers, proxies = self._workers_with_control(graph)
        try:
            for w in workers:
                w.start()
            report = proxies[0].reconfigure(
                {
                    "retune": {
                        "operator": "receiver",
                        "max_delay": 0.05,
                        "where": "into",
                    },
                    "scale": {"workers": 3},
                }
            )
            assert report["worker"] == 0
            kinds = [a["kind"] for a in report["applied"]]
            assert "scale" in kinds
            scale = next(a for a in report["applied"] if a["kind"] == "scale")
            assert scale["to"] == 3
            for a in report["applied"]:
                if a["kind"] == "retune":
                    assert "->receiver[" in a["buffer"]
                    assert a["max_delay"][1] == 0.05
            # A no-op reconfigure applies nothing.
            assert proxies[1].reconfigure({})["applied"] == []
            job = RemoteDistributedJob(proxies)
            assert job.await_completion(timeout=90)
        finally:
            for s in servers:
                s.close()
        assert store == list(range(300))

    def test_unknown_command_rejected(self):
        graph, _ = relay_graph(10)
        plan = round_robin_plan(graph, 1)
        worker = DistributedWorker(0, graph, plan)
        server = ControlServer(worker)
        try:
            proxy = RemoteWorker("127.0.0.1", server.port)
            with pytest.raises(ControlError, match="unknown command"):
                proxy._call({"cmd": "reboot-the-cluster"})
            # A worker method is not a command unless the table names it.
            with pytest.raises(ControlError, match="unknown command 'connect'"):
                proxy._call({"cmd": "connect", "args": [{}]})
            proxy.stop()
        finally:
            server.close()

    def test_a_malformed_line_gets_an_error_and_the_connection_serves_on(self):
        graph, _ = relay_graph(10)
        worker = DistributedWorker(0, graph, round_robin_plan(graph, 1))
        server = ControlServer(worker)
        try:
            with socket.create_connection(("127.0.0.1", server.port), timeout=10) as conn:
                conn.sendall(b'not json\n[1]\n{"cmd": "ping"}\n')
                rfile = conn.makefile("r", encoding="utf-8")
                lines = [rfile.readline() for _ in range(3)]
            assert all(lines), f"the connection was closed early: {lines!r}"
            replies = [json.loads(line) for line in lines]
            assert [r["ok"] for r in replies] == [False, False, True]
            assert "JSON object" in replies[1]["error"]
            assert replies[2]["result"] == 0  # ping answers the worker id
        finally:
            server.close()
            worker.stop()

    def test_close_wakes_the_accept_thread(self):
        # Closing a listening socket does not wake accept(): close()
        # used to sit in its join(5.0) with the thread still blocked.
        graph, _ = relay_graph(10)
        worker = DistributedWorker(0, graph, round_robin_plan(graph, 1))
        server = ControlServer(worker)
        try:
            RemoteWorker("127.0.0.1", server.port).close()  # loop has accepted once
            t0 = time.monotonic()
            server.close()
            assert time.monotonic() - t0 < 0.5
            assert not server._server._thread.is_alive()
            server.close()  # idempotent
        finally:
            worker.stop()

    def test_close_joins_the_connection_threads_and_forgets_closed_ones(self):
        graph, _ = relay_graph(10)
        worker = DistributedWorker(0, graph, round_robin_plan(graph, 1))
        server = ControlServer(worker)
        proxies = [RemoteWorker("127.0.0.1", server.port) for _ in range(3)]
        try:
            proxies[0].close()
            proxies[1].close()
            assert wait_until(lambda: len(server._server._conns) == 1)
            [thread] = server._server._conns.values()
            server.close()
            assert not thread.is_alive()
            assert server._server.accepted == 3 and not server._server._conns
        finally:
            proxies[2].close()
            worker.stop()

    def test_cluster_status_reads_a_worker_without_an_observability_plane(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        graph, _ = relay_graph(10)
        worker = DistributedWorker(0, graph, round_robin_plan(graph, 1))
        server = ControlServer(worker)
        state = tmp_path / "cluster.json"
        entry = {"worker_id": 0, "pid": os.getpid(), "control_port": server.port}
        state.write_text(json.dumps({"workers": [entry]}))
        try:
            assert main(["cluster", "status", "--state", str(state)]) == 0
        finally:
            server.close()
            worker.stop()
        out = capsys.readouterr().out
        assert "worker 0 pid=" in out and "failures=0" in out and "1/1 workers reachable" in out

    def test_connect_timeout(self):
        with pytest.raises(ControlError, match="cannot reach"):
            RemoteWorker("127.0.0.1", 1, connect_timeout=0.3)

    def test_job_requires_workers(self):
        with pytest.raises(NeptuneError):
            RemoteDistributedJob([])


class TestCommandTable:
    """Each name in COMMANDS is a DistributedWorker member, and the
    proxy forwards it, arguments and result, with no code of its own
    but for the three members below."""

    @pytest.mark.parametrize("name", sorted(COMMANDS))
    def test_a_command_is_a_worker_member_that_round_trips(self, name, monkeypatch):
        assert hasattr(DistributedWorker, name)
        graph, _ = relay_graph(10)
        worker = DistributedWorker(0, graph, round_robin_plan(graph, 1))
        calls = []

        def member(*args, **kwargs):
            calls.append((list(args), kwargs))
            return {"echo": [name, *args]}

        if isinstance(getattr(DistributedWorker, name), property):
            monkeypatch.setattr(DistributedWorker, name, property(lambda w: {"echo": [name]}))
        else:
            monkeypatch.setattr(worker, name, member)
        server = ControlServer(worker)
        proxy = RemoteWorker("127.0.0.1", server.port)
        calls.clear()  # the proxy's own ping
        try:
            if name == "failures":
                assert proxy.failures == {"echo": ["failures"]}
            elif name == "wait_sources":  # on a connection of its own
                assert proxy.wait_sources(1.5) is True
                assert calls == [([1.5], {})]
            elif name == "stop":  # then the proxy closes
                proxy.stop(2.5)
                assert calls == [([2.5], {})] and server.stop_requested.is_set()
            else:
                assert getattr(proxy, name)(1, "two", key=None) == {"echo": [name, 1, "two"]}
                assert calls == [([1, "two"], {"key": None})]
        finally:
            proxy.close()
            server.close()
            DistributedWorker.stop(worker)


@pytest.mark.slow
@pytest.mark.cluster
class TestWorkerProcessByHand:
    def test_two_process_relay(self, tmp_path):
        """``python -m repro.cluster.worker --spec FILE`` twice: separate
        interpreters, TCP data plane, coordinated drain through the
        control ports."""
        graph = StreamProcessingGraph("subproc-relay")
        graph.add_source(
            "sender",
            descriptor_factory(
                "repro.workloads.operators:CountingSource", total=500, payload_size=50
            ),
        )
        graph.add_processor(
            "relay", descriptor_factory("repro.workloads.operators:RelayProcessor")
        )
        graph.add_processor(
            "receiver",
            descriptor_factory("repro.workloads.operators:CollectingSink"),
        )
        graph.link("sender", "relay").link("relay", "receiver")
        plan = round_robin_plan(graph, 2)
        # Ephemeral reservations, not hardcoded ports: a previous run's
        # TIME_WAIT socket (or an unrelated process) on a fixed port
        # made this test flake.
        data_ports = reserve_ports(2)
        control_ports = reserve_ports(2)

        procs = []
        try:
            for worker_id in range(2):
                spec = WorkerSpec(
                    worker_id=worker_id,
                    descriptor=graph.to_descriptor(),
                    plan={
                        "n_workers": 2,
                        "assignment": [
                            [op, idx, w] for (op, idx), w in plan.assignment.items()
                        ],
                    },
                    endpoints={w: ("127.0.0.1", data_ports[w]) for w in range(2)},
                    control_port=control_ports[worker_id],
                )
                spec_path = tmp_path / f"worker-{worker_id}.json"
                spec_path.write_text(spec.to_json())
                procs.append(
                    subprocess.Popen(
                        [
                            sys.executable, "-m", "repro.cluster.worker",
                            "--spec", str(spec_path),
                        ],
                        stdout=subprocess.PIPE,
                        stderr=subprocess.STDOUT,
                    )
                )
            proxies = [RemoteWorker("127.0.0.1", p) for p in control_ports]
            job = RemoteDistributedJob(proxies)
            metrics_mid = job.metrics()
            assert "sender" in metrics_mid
            ok = job.await_completion(timeout=120)
            assert ok
            assert job.metrics()["receiver"]["packets_in"] == 500
            for p in procs:
                assert p.wait(timeout=30) == 0
        finally:
            for p in procs:
                if p.poll() is None:
                    p.kill()
