"""Tests for the distributed (multi-resource, TCP) deployment."""

import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from procharness import reserve_ports
from waiters import wait_until

from repro.core import NeptuneConfig, NeptuneRuntime, StreamProcessingGraph
from repro.core.control import RemoteDistributedJob
from repro.core.distributed import (
    DeploymentPlan,
    DistributedJob,
    DistributedWorker,
    round_robin_plan,
)
from repro.core.operators import StreamProcessor
from repro.observe import RuntimeObserver
from repro.util.errors import BackpressureTimeout, GraphValidationError
from repro.workloads import CollectingSink, CountingSource, RelayProcessor
from repro.workloads.operators import KeyedRelayProcessor, KeyedSource


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
            while not late._listener._server._conns and time.monotonic() < deadline:
                time.sleep(0.005)
            assert late._listener._server._conns, "no early connection to hold"
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


class TestWorkerPool:
    def test_a_workers_pool_is_its_task_count_floored_at_one(self):
        g = StreamProcessingGraph("pool", config=NeptuneConfig(buffer_capacity=2048))
        g.add_source("src", lambda: CountingSource(total=200), parallelism=3)
        g.add_processor("sink", CollectingSink)
        g.link("src", "sink")
        hosted = {("src", i): 0 for i in range(3)}
        hosted[("sink", 0)] = 0
        plan = DeploymentPlan(n_workers=2, assignment=hosted)
        workers = [DistributedWorker(w, g, plan) for w in range(2)]
        endpoints = {w.worker_id: w.address for w in workers}
        for w in workers:
            w.connect(endpoints)
        job = RemoteDistributedJob(workers)
        for w in workers:
            w.start()
        try:
            pools = [
                (len(w.job.tasks()), len(w._resource._threads)) for w in workers
            ]
            assert job.await_completion(timeout=60)
        finally:
            job.stop()
        assert pools == [(4, 4), (0, 1)]


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


class _BlockedSink(StreamProcessor):
    """Holds its first batch until released: the channel behind it fills."""

    def __init__(self, release):
        super().__init__()
        self.release = release

    def process(self, packet, ctx):
        self.release.wait(30)

    def output_schema(self, stream):
        raise KeyError(stream)


class TestLegErrorContract:
    """A leg that cannot deliver fails its sender the same way on every
    deployment: there is one local leg."""

    @pytest.mark.parametrize("deployment", ["runtime", "one-worker"])
    def test_gated_past_emit_timeout_is_backpressure_timeout(self, deployment):
        release = threading.Event()
        g = StreamProcessingGraph(
            "gated",
            config=NeptuneConfig(
                buffer_capacity=64,
                buffer_max_delay=0.002,
                inbound_high_watermark=1,
                emit_timeout=0.05,
            ),
        )
        g.add_source("src", lambda: CountingSource(total=None))
        g.add_processor("sink", lambda: _BlockedSink(release))
        g.link("src", "sink", chain=False)  # the buffered local leg's contract
        if deployment == "runtime":
            runtime = NeptuneRuntime()
            handle = runtime.submit(g)
            failures, stop = (lambda: handle.failures), runtime.shutdown
        else:
            # At the parent commit the co-located leg of a worker raised
            # a bare NeptuneError("wire …: emit timed out") here.
            job = DistributedJob(g, n_workers=1)
            job.start()
            failures, stop = job.failures, job.stop
        try:
            assert wait_until(failures, timeout=15)
            failure = failures()["src[0]"]
        finally:
            release.set()
            stop()
        assert isinstance(failure, BackpressureTimeout)
        assert "wire link 0" in str(failure) and "emit_timeout=0.05" in str(failure)


class TestWireIdRanges:
    """A wire id packs 8 bits of link id and 12 bits per instance index
    into a frame's u32: a graph that does not fit is refused at wiring,
    not aliased onto shared sequence spaces."""

    def test_parallelism_beyond_the_index_field_names_the_operator(self):
        g = StreamProcessingGraph("wide")
        g.add_source("src", lambda: CountingSource(total=1))
        g.add_processor("fan", CollectingSink, parallelism=4097)
        g.link("src", "fan")
        with NeptuneRuntime() as runtime:
            with pytest.raises(GraphValidationError, match="'fan'.*4097"):
                runtime.submit(g)
        worker = DistributedWorker(0, g, round_robin_plan(g, 1))
        try:
            with pytest.raises(GraphValidationError, match="'fan'.*4097"):
                worker.connect({0: worker.address})
        finally:
            worker.stop()

    def test_more_links_than_the_link_field_names_the_first_extra_link(self):
        g = StreamProcessingGraph("many")
        g.add_source("src", lambda: CountingSource(total=1))
        for i in range(257):
            g.add_processor(f"sink{i}", CollectingSink)
            g.link("src", f"sink{i}")
        with NeptuneRuntime() as runtime:
            with pytest.raises(GraphValidationError, match="'src'->'sink256'.*257 links"):
                runtime.submit(g)


KEY_PARTITIONING = {"scheme": "fields", "fields": ["key"]}


def keyed_graph(store, total, keys, stage_parallelism):
    g = StreamProcessingGraph(
        "keyed-equivalence",
        config=NeptuneConfig(
            buffer_capacity=256, buffer_max_delay=0.002, inbound_high_watermark=256
        ),
    )
    g.add_source("source", lambda: KeyedSource(total=total, keys=keys))
    previous = "source"
    for stage, parallelism in enumerate(stage_parallelism):
        g.add_processor(f"relay{stage}", KeyedRelayProcessor, parallelism=parallelism)
        g.link(previous, f"relay{stage}", partitioning=KEY_PARTITIONING)
        previous = f"relay{stage}"
    g.add_processor("sink", lambda: CollectingSink(store, field=None))
    g.link(previous, "sink", partitioning=KEY_PARTITIONING)
    return g


def observed_run(graph, store, n_workers):
    """Run ``graph`` to completion on a NeptuneRuntime (``n_workers``
    None) or that many co-hosted workers; what an equivalence check
    compares: per-key output, counters, leg names (a link the
    deployment chains has a leg and no buffer), gate labels."""
    obs = RuntimeObserver(sample_every=0)
    if n_workers is None:
        with NeptuneRuntime(observer=obs) as runtime:
            handle = runtime.submit(graph)
            buffers = [b.name for b in handle._job.buffers + handle._job.chains]
            assert handle.await_completion(timeout=60) and not handle.failures
            metrics = handle.metrics()
    else:
        job = DistributedJob(graph, n_workers=n_workers, observer=obs)
        buffers = [
            b.name for w in job.workers for b in w.job.buffers + w.job.chains
        ]
        job.start()
        assert job.await_completion(timeout=60) and not job.failures()
        metrics = job.metrics()
    per_key = {}
    for packet in store:
        per_key.setdefault(packet.get("key"), []).append(packet.get("seq"))
    counters = {
        op: (m["packets_in"], m["packets_out"]) for op, m in metrics.items()
    }
    gates = {
        (e.attrs["operator"], tuple(e.attrs.get("throttles", ())))
        for e in obs.timeline.snapshot(category="flowcontrol")
    }
    return per_key, counters, buffers, gates


@given(
    total=st.integers(min_value=30, max_value=120),
    keys=st.integers(min_value=1, max_value=5),
    stage_parallelism=st.lists(
        st.integers(min_value=1, max_value=3), min_size=1, max_size=2
    ),
)
@settings(max_examples=5, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_co_hosted_workers_are_equivalent_to_the_single_runtime(
    total, keys, stage_parallelism
):
    """Tier-1 twin of ``test_cluster_property``: the single-process
    runtime is the 1-worker case of the distributed one, so 1, 2 and 3
    co-hosted workers must produce its per-key ordered output, its
    per-operator packet counts, and — modulo the ``w{id}:`` prefix the
    doctor and ``retune_matching`` parse — its buffer names and
    gate-event labels."""
    expected = {
        key: [i for i in range(total) if i % keys == key]
        for key in range(min(keys, total))
    }
    store = []
    graph = keyed_graph(store, total, keys, stage_parallelism)
    per_key, counters, buffers, gates = observed_run(graph, store, None)
    assert per_key == expected
    assert len(set(buffers)) == len(buffers)
    labels = {
        f"{op.name}[{i}]": tuple(lk.from_op for lk in graph.incoming_links(op.name))
        for op in graph.operators.values()
        for i in range(op.parallelism)
    }
    assert all(labels[operator] == throttles for operator, throttles in gates)
    for n_workers in (1, 2, 3):
        store = []
        graph = keyed_graph(store, total, keys, stage_parallelism)
        w_per_key, w_counters, w_buffers, w_gates = observed_run(
            graph, store, n_workers
        )
        assert w_per_key == expected
        assert w_counters == counters
        plan = round_robin_plan(graph, n_workers)
        # Each leg's buffer lives with its sender, each gate with its receiver.
        for name in w_buffers:
            sender, index = name.split(":", 1)[1].split("->")[0].rstrip("]").split("[")
            assert name.startswith(f"w{plan.worker_of(sender, int(index))}:")
        assert sorted(n.split(":", 1)[1] for n in w_buffers) == sorted(buffers)
        for operator, throttles in w_gates:
            worker, label = operator.split(":", 1)
            name, index = label.rstrip("]").split("[")
            assert worker == f"w{plan.worker_of(name, int(index))}"
            assert labels[label] == throttles
