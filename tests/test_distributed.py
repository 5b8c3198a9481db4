"""Tests for the distributed (multi-resource, TCP) deployment."""

import time

import pytest
from procharness import reserve_ports

from repro.core import NeptuneConfig, StreamProcessingGraph
from repro.core.control import RemoteDistributedJob
from repro.core.distributed import (
    DeploymentPlan,
    DistributedJob,
    DistributedWorker,
    round_robin_plan,
)
from repro.util.errors import GraphValidationError
from repro.workloads import CollectingSink, CountingSource, RelayProcessor


def relay_graph(total=500, **cfg):
    defaults = dict(buffer_capacity=2048, buffer_max_delay=0.005)
    defaults.update(cfg)
    store = []
    g = StreamProcessingGraph("dist-relay", config=NeptuneConfig(**defaults))
    g.add_source("sender", lambda: CountingSource(total=total))
    g.add_processor("relay", RelayProcessor)
    g.add_processor("receiver", lambda: CollectingSink(store))
    g.link("sender", "relay").link("relay", "receiver")
    return g, store


class TestPlan:
    def test_round_robin_assignment(self):
        g, _ = relay_graph()
        plan = round_robin_plan(g, 2)
        assert plan.n_workers == 2
        workers = {plan.worker_of(op, 0) for op in ("sender", "relay", "receiver")}
        assert workers == {0, 1}

    def test_parallel_instances_spread(self):
        g = StreamProcessingGraph("p")
        g.add_source("src", lambda: CountingSource(total=1), parallelism=4)
        g.add_processor("sink", CollectingSink)
        g.link("src", "sink")
        plan = round_robin_plan(g, 2)
        on0 = plan.instances_on(0)
        on1 = plan.instances_on(1)
        assert len(on0) + len(on1) == 5
        src_workers = [plan.worker_of("src", i) for i in range(4)]
        assert src_workers == [0, 1, 0, 1]

    def test_invalid_worker_count(self):
        g, _ = relay_graph()
        with pytest.raises(GraphValidationError):
            round_robin_plan(g, 0)

    def test_worker_id_range_checked(self):
        g, _ = relay_graph()
        plan = round_robin_plan(g, 2)
        with pytest.raises(GraphValidationError):
            DistributedWorker(5, g, plan)


class TestDistributedRelay:
    def test_relay_across_two_workers_exactly_once_in_order(self):
        """The paper's Fig. 1 deployment: relay on a separate resource,
        frames crossing real TCP sockets."""
        g, store = relay_graph(total=1500)
        job = DistributedJob(g, n_workers=2)
        job.start()
        try:
            assert job.await_completion(timeout=90)
        finally:
            if job.failures():
                pytest.fail(f"failures: {job.failures()}")
        assert store == list(range(1500))

    def test_frames_arriving_before_the_receiver_is_wired_are_held(self):
        """A worker's listener accepts from construction on, its wires
        exist only after connect(): a peer that started first used to
        have its first frames refused ("unknown wire") after the
        listener had already counted them delivered, so the replay was
        acked as duplicate and the receiver later failed with a frame
        sequence "ordering violation" (~1 in 60 cluster launches)."""
        g, store = relay_graph(total=600, buffer_capacity=256)
        plan = round_robin_plan(g, 2)
        workers = [DistributedWorker(w, g, plan) for w in range(2)]
        endpoints = {w.worker_id: w.address for w in workers}
        first, late = workers  # worker 0 hosts the sender
        try:
            first.connect(endpoints)
            first.start()
            # The sender is flushing at the late worker's listener now.
            deadline = time.monotonic() + 10
            while not late._listener._conns and time.monotonic() < deadline:
                time.sleep(0.005)
            assert late._listener._conns, "no early connection to hold"
            time.sleep(0.05)
            late.connect(endpoints)
            late.start()
            deadline = time.monotonic() + 60
            while len(store) < 600 and time.monotonic() < deadline:
                assert not first.failures and not late.failures
                time.sleep(0.01)
        finally:
            for w in workers:
                w.stop()
        assert not late._listener.errors
        assert store == list(range(600))

    def test_three_workers(self):
        g, store = relay_graph(total=400)
        job = DistributedJob(g, n_workers=3)
        job.start()
        assert job.await_completion(timeout=60)
        assert store == list(range(400))

    def test_metrics_merged_across_workers(self):
        g, store = relay_graph(total=300)
        job = DistributedJob(g, n_workers=2)
        job.start()
        assert job.await_completion(timeout=60)
        m = job.metrics()
        assert m["sender"]["packets_out"] == 300
        assert m["receiver"]["packets_in"] == 300

    def test_stop_drains_endless_source(self):
        g, store = relay_graph(total=None)
        job = DistributedJob(g, n_workers=2)
        job.start()
        deadline = time.monotonic() + 15
        while not store and time.monotonic() < deadline:
            time.sleep(0.01)
        assert job.stop(timeout=60)
        assert store == list(range(len(store)))
        assert len(store) > 0

    def test_parallel_stage_across_workers(self):
        store = []
        g = StreamProcessingGraph(
            "dist-par", config=NeptuneConfig(buffer_capacity=1024, buffer_max_delay=0.005)
        )
        g.add_source("src", lambda: CountingSource(total=600))
        g.add_processor("sink", lambda: CollectingSink(store), parallelism=3)
        g.link("src", "sink", partitioning="round-robin")
        job = DistributedJob(g, n_workers=2)
        job.start()
        assert job.await_completion(timeout=90)
        assert sorted(store) == list(range(600))

    def test_workers_on_preallocated_ports(self):
        """Pre-agreed data-plane ports (the cluster coordinator's mode):
        every worker binds exactly the port it was assigned, reserved
        through the shared ephemeral-port helper instead of hardcoded
        constants that collide with TIME_WAIT residue."""
        g, store = relay_graph(total=200)
        plan = round_robin_plan(g, 2)
        ports = reserve_ports(2)
        workers = [
            DistributedWorker(w, g, plan, listen_port=ports[w]) for w in range(2)
        ]
        assert [w.address[1] for w in workers] == ports
        endpoints = {w.worker_id: w.address for w in workers}
        for w in workers:
            w.connect(endpoints)
        for w in workers:
            w.start()
        # DistributedWorker speaks the same drain protocol as the
        # control-plane proxies, so the remote-job driver works as-is.
        job = RemoteDistributedJob(workers)
        assert job.await_completion(timeout=60)
        assert store == list(range(200))

    def test_compressed_distributed_link(self):
        store = []
        g = StreamProcessingGraph(
            "dist-comp",
            config=NeptuneConfig(
                buffer_capacity=4096,
                buffer_max_delay=0.005,
                compression_enabled=True,
                compression_entropy_threshold=8.0,
            ),
        )
        g.add_source("src", lambda: CountingSource(total=300, payload_size=200))
        g.add_processor("sink", lambda: CollectingSink(store))
        g.link("src", "sink")
        job = DistributedJob(g, n_workers=2)
        job.start()
        assert job.await_completion(timeout=60)
        assert store == list(range(300))


class TestDistributedFailures:
    def test_processor_failure_surfaces_in_job(self):
        from repro.core.operators import StreamProcessor

        class Exploder(StreamProcessor):
            def process(self, packet, ctx):
                raise RuntimeError("distributed kaboom")

            def output_schema(self, stream):
                raise KeyError(stream)

        g = StreamProcessingGraph(
            "dist-boom",
            config=NeptuneConfig(buffer_capacity=1024, buffer_max_delay=0.005),
        )
        g.add_source("src", lambda: CountingSource(total=100))
        g.add_processor("bad", Exploder)
        g.link("src", "bad")
        job = DistributedJob(g, n_workers=2)
        job.start()
        deadline = time.monotonic() + 15
        while not job.failures() and time.monotonic() < deadline:
            time.sleep(0.01)
        quiesced = job.stop(timeout=10)
        assert any("bad" in key for key in job.failures())
        assert not quiesced or job.failures()  # drain reports the fault
