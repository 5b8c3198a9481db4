"""Tests for custom processor scheduling strategies through the NEPTUNE
API (Granules' periodic / count-based / combined scheduling, §II), on
one resource and across co-hosted workers: strategies are installed by
the engine's one launch path, whatever the deployment."""

import contextlib
import time

import pytest

from repro.core import (
    FieldType,
    NeptuneConfig,
    NeptuneRuntime,
    PacketSchema,
    StreamProcessingGraph,
)
from repro.core.distributed import DistributedJob
from repro.core.operators import StreamProcessor
from repro.granules import CombinedStrategy, CountBasedStrategy, DataDrivenStrategy, PeriodicStrategy
from repro.util.errors import GraphValidationError
from repro.workloads import CollectingSink, CountingSource

HEARTBEAT = PacketSchema([("beat", FieldType.INT64)])


class HeartbeatProcessor(StreamProcessor):
    """Forwards data AND emits a heartbeat on empty periodic triggers."""

    def __init__(self):
        super().__init__()
        self.beats = 0
        self.data_packets = 0

    def process(self, packet, ctx):
        self.data_packets += 1

    def on_schedule(self, ctx):
        self.beats += 1
        out = ctx.new_packet()
        out.set("beat", self.beats)
        ctx.emit(out)

    def output_schema(self, stream):
        return HEARTBEAT


def small_config():
    return NeptuneConfig(buffer_capacity=1024, buffer_max_delay=0.003)


@contextlib.contextmanager
def one_resource(graph):
    """Deploy on a NeptuneRuntime; yields the job (``stop`` /
    ``await_completion`` / ``metrics``)."""
    with NeptuneRuntime() as rt:
        yield rt.submit(graph)


@contextlib.contextmanager
def two_workers(graph):
    """Deploy over two co-hosted workers (the processor and its
    neighbours land on different ones); yields the job."""
    job = DistributedJob(graph, n_workers=2)
    job.start()
    try:
        yield job
    finally:
        for w in job.workers:
            w.stop()


class TestPeriodicProcessor:
    def test_heartbeats_fire_without_data(self):
        self._heartbeats_fire_without_data(one_resource)

    def test_heartbeats_fire_without_data_across_workers(self):
        # DistributedWorker.start used to launch every processor
        # data-driven and never read ``spec.scheduling``: 0 beats.
        self._heartbeats_fire_without_data(two_workers)

    def _heartbeats_fire_without_data(self, deploy):
        beats = []
        proc = HeartbeatProcessor()
        g = StreamProcessingGraph("hb", config=small_config())
        # A trickle source: 5 packets then silence.
        g.add_source("src", lambda: CountingSource(total=5))
        g.add_processor(
            "heart",
            lambda: proc,
            scheduling=lambda: CombinedStrategy(
                PeriodicStrategy(0.02), DataDrivenStrategy()
            ),
        )
        g.add_processor("sink", lambda: CollectingSink(beats, field="beat"))
        g.link("src", "heart").link("heart", "sink")
        with deploy(g) as job:
            time.sleep(0.5)
            job.stop(timeout=30)
        assert proc.data_packets == 5
        assert proc.beats >= 5  # periodic triggers kept firing
        assert beats == list(range(1, len(beats) + 1))

    @pytest.mark.parametrize("deploy", [one_resource, two_workers])
    def test_awaiting_the_job_keeps_the_declared_schedule(self, deploy):
        """A processor declared periodic runs on its period while its
        owner waits for the job, as every ``repro`` command does: the
        wait used to switch it to data-driven dispatch on entry (151
        executions of this one instead of five)."""
        proc = HeartbeatProcessor()
        g = StreamProcessingGraph("waited", config=small_config())
        # ~1 s of stream, a frame every few milliseconds.
        g.add_source("src", lambda: CountingSource(total=200, interval=0.005))
        g.add_processor("heart", lambda: proc, scheduling=lambda: PeriodicStrategy(0.25))
        g.add_processor("sink", lambda: CollectingSink(field="beat"))
        g.link("src", "heart").link("heart", "sink")
        with deploy(g) as job:
            assert job.await_completion(timeout=30)
            executions = job.metrics()["heart"]["executions"]
        assert proc.data_packets == 200
        # Four or five periods, plus the drain's data-driven tail.
        assert 2 <= executions <= 10

    def test_paper_example_combination(self):
        """§II: 'run every 500 milliseconds or when data is available'."""
        proc = HeartbeatProcessor()
        g = StreamProcessingGraph("combo", config=small_config())
        g.add_source("src", lambda: CountingSource(total=50))
        g.add_processor(
            "heart",
            lambda: proc,
            scheduling=lambda: CombinedStrategy(
                PeriodicStrategy(0.5), DataDrivenStrategy()
            ),
        )
        g.add_processor("sink", CollectingSink)
        g.link("src", "heart").link("heart", "sink")
        with NeptuneRuntime() as rt:
            h = rt.submit(g)
            # Data flows immediately (data-driven side, not the 500 ms timer).
            deadline = time.monotonic() + 5
            while proc.data_packets < 50 and time.monotonic() < deadline:
                time.sleep(0.005)
            h.stop(timeout=30)
        assert proc.data_packets == 50

    def test_count_based_processor_waits_for_threshold(self):
        self._count_based_processor_waits_for_threshold(one_resource)

    def test_count_based_processor_waits_for_threshold_across_workers(self):
        self._count_based_processor_waits_for_threshold(two_workers)

    def _count_based_processor_waits_for_threshold(self, deploy):
        """A count-based processor only runs once enough frames queue,
        and the drain (which switches it to data-driven dispatch) does
        not strand the last sub-threshold frames."""
        proc = HeartbeatProcessor()
        g = StreamProcessingGraph(
            "countb",
            config=NeptuneConfig(buffer_capacity=64, buffer_max_delay=0.002),
        )
        g.add_source("src", lambda: CountingSource(total=None, payload_size=100))
        g.add_processor(
            "heart", lambda: proc, scheduling=lambda: CountBasedStrategy(threshold=4)
        )
        g.add_processor("sink", CollectingSink)
        g.link("src", "heart").link("heart", "sink")
        with deploy(g) as job:
            deadline = time.monotonic() + 10
            while proc.data_packets == 0 and time.monotonic() < deadline:
                time.sleep(0.005)
            assert job.stop(timeout=60)
        assert proc.data_packets > 0


class TestValidation:
    def test_source_cannot_take_scheduling(self):
        from repro.core.graph import OperatorSpec

        with pytest.raises(GraphValidationError, match="sources control"):
            OperatorSpec(
                "s",
                CountingSource,
                is_source=True,
                scheduling=lambda: DataDrivenStrategy(),
            )

    def test_default_processors_never_get_on_schedule(self):
        """Without a custom strategy, empty executions are silent."""
        proc = HeartbeatProcessor()
        g = StreamProcessingGraph("plain", config=small_config())
        g.add_source("src", lambda: CountingSource(total=5))
        g.add_processor("heart", lambda: proc)
        g.add_processor("sink", CollectingSink)
        g.link("src", "heart").link("heart", "sink")
        with NeptuneRuntime() as rt:
            h = rt.submit(g)
            h.await_completion(timeout=30)
        assert proc.beats == 0
