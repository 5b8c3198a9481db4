"""Integration tests for the NEPTUNE runtime: end-to-end pipelines,
parallelism, partitioning, batching, backpressure, compression,
correctness guarantees (in-order, exactly-once), and failure handling.
"""

import threading
import time

import pytest

from repro.core import (
    FieldType,
    NeptuneConfig,
    NeptuneRuntime,
    PacketSchema,
    StreamProcessingGraph,
)
from repro.core.job import JobState
from repro.core.operators import StreamProcessor, StreamSource
from repro.util.errors import JobStateError
from repro.workloads import (
    CollectingSink,
    CountingSource,
    LatencySink,
    RelayProcessor,
    SlowSink,
    VariableRateProcessor,
)
from waiters import wait_until


def wait_for_failure(handle, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if handle.failures:
            return
        time.sleep(0.005)


def small_config(**kw):
    defaults = dict(buffer_capacity=2048, buffer_max_delay=0.005)
    defaults.update(kw)
    return NeptuneConfig(**defaults)


class TestLinearPipeline:
    def test_three_stage_relay_exactly_once_in_order(self):
        """The paper's Fig. 1 relay: every packet exactly once, in order."""
        store = []
        g = StreamProcessingGraph("relay", config=small_config())
        g.add_source("sender", lambda: CountingSource(total=2000))
        g.add_processor("relay", RelayProcessor)
        g.add_processor("receiver", lambda: CollectingSink(store))
        g.link("sender", "relay").link("relay", "receiver")
        with NeptuneRuntime() as rt:
            h = rt.submit(g)
            assert h.await_completion(timeout=60)
        assert h.failures == {}
        assert store == list(range(2000))  # in order, exactly once

    def test_two_stage_minimal(self):
        store = []
        g = StreamProcessingGraph("two", config=small_config())
        g.add_source("src", lambda: CountingSource(total=100))
        g.add_processor("sink", lambda: CollectingSink(store))
        g.link("src", "sink")
        with NeptuneRuntime() as rt:
            assert rt.submit(g).await_completion(timeout=30)
        assert store == list(range(100))

    @staticmethod
    def _flow_metrics(chain):
        g = StreamProcessingGraph("m", config=small_config())
        g.add_source("src", lambda: CountingSource(total=500))
        g.add_processor("sink", CollectingSink)
        g.link("src", "sink", chain=chain)
        with NeptuneRuntime() as rt:
            h = rt.submit(g)
            assert h.await_completion(timeout=30)
        m = h.metrics()
        assert m["src"]["packets_out"] == 500
        assert m["sink"]["packets_in"] == 500
        assert m["sink"]["executions"] >= 1
        # Batching: far fewer scheduled batches than packets.
        assert m["sink"]["executions"] < 500
        return m

    def test_metrics_reflect_flow(self):
        m = self._flow_metrics(chain=True)
        # A chained hop serialises nothing: rows are handed over, and a
        # hand-over is not a frame.
        assert m["sink"]["bytes_in"] == 0 and m["src"]["bytes_out"] == 0
        assert m["sink"]["batches_in"] == 0

    def test_metrics_reflect_flow_on_a_buffered_leg(self):
        m = self._flow_metrics(chain=False)
        assert m["sink"]["bytes_in"] > 0 and m["src"]["bytes_out"] > 0
        assert 1 <= m["sink"]["batches_in"] < 500

    def test_latency_bounded_by_timer_flush(self):
        """A trickle stream must still see ~max_delay latency, not ∞."""
        samples = []
        g = StreamProcessingGraph(
            "lat", config=NeptuneConfig(buffer_capacity=1 << 20, buffer_max_delay=0.02)
        )

        class SlowSource(CountingSource):
            def generate(self, ctx):
                super().generate(ctx)
                time.sleep(0.002)

        g.add_source("src", lambda: SlowSource(total=30))
        g.add_processor("sink", lambda: LatencySink(samples))
        g.link("src", "sink")
        with NeptuneRuntime() as rt:
            assert rt.submit(g).await_completion(timeout=30)
        assert len(samples) == 30
        # Every packet should arrive well under 10x the flush bound.
        assert max(samples) < 0.2


class TestParallelism:
    def test_parallel_processor_receives_all(self):
        store = []
        g = StreamProcessingGraph("par", config=small_config())
        g.add_source("src", lambda: CountingSource(total=1000))
        g.add_processor("sink", lambda: CollectingSink(store), parallelism=4)
        g.link("src", "sink", partitioning="round-robin")
        with NeptuneRuntime() as rt:
            assert rt.submit(g).await_completion(timeout=60)
        assert sorted(store) == list(range(1000))

    def test_fields_partitioning_key_affinity(self):
        """Same key must always land on the same instance."""
        seen: dict[int, set] = {}
        lock = threading.Lock()

        class KeyedSink(StreamProcessor):
            def __init__(self):
                super().__init__()

            def setup(self, ctx):
                self._idx = ctx.instance_index

            def process(self, packet, ctx):
                with lock:
                    seen.setdefault(self._idx, set()).add(packet.get("seq") % 10)

            def output_schema(self, stream):
                raise KeyError(stream)

        class ModSource(CountingSource):
            def generate(self, ctx):
                if self.emitted >= self.total:
                    ctx.finish()
                    return
                pkt = ctx.new_packet()
                pkt.set("seq", self.emitted % 10)  # 10 distinct keys
                pkt.set("emitted_at", time.monotonic())
                pkt.set("payload", b"")
                ctx.emit(pkt)
                self.emitted += 1

        g = StreamProcessingGraph("keyed", config=small_config())
        g.add_source("src", lambda: ModSource(total=500))
        g.add_processor("sink", KeyedSink, parallelism=3)
        g.link("src", "sink", partitioning={"scheme": "fields", "fields": ["seq"]})
        with NeptuneRuntime() as rt:
            assert rt.submit(g).await_completion(timeout=60)
        # No key appears on two instances.
        all_keys = [k for keys in seen.values() for k in keys]
        assert len(all_keys) == len(set(all_keys))
        assert set(all_keys) == set(range(10))

    def test_broadcast_partitioning(self):
        stores = [[], [], []]

        class IndexedSink(CollectingSink):
            def setup(self, ctx):
                self.store = stores[ctx.instance_index]

        g = StreamProcessingGraph("bcast", config=small_config())
        g.add_source("src", lambda: CountingSource(total=50))
        g.add_processor("sink", IndexedSink, parallelism=3)
        g.link("src", "sink", partitioning="broadcast")
        with NeptuneRuntime() as rt:
            assert rt.submit(g).await_completion(timeout=30)
        for store in stores:
            assert store == list(range(50))

    def test_parallel_source_instances(self):
        store = []
        g = StreamProcessingGraph("psrc", config=small_config())
        g.add_source("src", lambda: CountingSource(total=100), parallelism=3)
        g.add_processor("sink", lambda: CollectingSink(store))
        g.link("src", "sink")
        with NeptuneRuntime() as rt:
            assert rt.submit(g).await_completion(timeout=30)
        assert len(store) == 300  # each instance emits its own 100
        assert sorted(store) == sorted(list(range(100)) * 3)


    def test_scheme_instance_is_copied_per_sender(self):
        """A scheme *instance* given to the graph is a template: every
        sender routes with its own copy, so each sender's round-robin
        is 0,1,2,... whatever the other senders do (one shared cursor
        would be advanced by both, from two worker threads)."""
        from repro.core.partitioning import RoundRobinPartitioning

        stores = [[], [], []]

        class IndexedSink(CollectingSink):
            def setup(self, ctx):
                self.store = stores[ctx.instance_index]

        template = RoundRobinPartitioning()
        g = StreamProcessingGraph("own-scheme", config=small_config())
        # Not a multiple of 3: a second sender starting where the first
        # left a shared cursor would be off even if they ran in turn.
        g.add_source("src", lambda: CountingSource(total=100), parallelism=2)
        g.add_processor("sink", IndexedSink, parallelism=3)
        g.link("src", "sink", partitioning=template)
        with NeptuneRuntime() as rt:
            assert rt.submit(g).await_completion(timeout=30)
        for index, store in enumerate(stores):
            assert sorted(store) == sorted(
                [seq for seq in range(100) if seq % 3 == index] * 2
            )
        assert template._next == 0  # the template itself never routed
        a, b = (g.links[0].resolved_partitioning() for _ in range(2))
        assert a is not b and a is not template


class TestFanOutFanIn:
    def test_diamond_topology(self):
        store = []
        g = StreamProcessingGraph("diamond", config=small_config())
        g.add_source("src", lambda: CountingSource(total=200))
        g.add_processor("left", RelayProcessor)
        g.add_processor("right", RelayProcessor)
        g.add_processor("sink", lambda: CollectingSink(store))
        g.link("src", "left").link("src", "right")
        g.link("left", "sink").link("right", "sink")
        with NeptuneRuntime() as rt:
            assert rt.submit(g).await_completion(timeout=60)
        # Both branches forward every packet → each seq appears twice.
        assert sorted(store) == sorted(list(range(200)) * 2)

    def test_multiple_named_streams(self):
        evens, odds = [], []
        SCHEMA = PacketSchema([("n", FieldType.INT64)])

        class Splitter(StreamProcessor):
            def process(self, packet, ctx):
                out = ctx.new_packet("even" if packet.get("seq") % 2 == 0 else "odd")
                out.set("n", packet.get("seq"))
                ctx.emit(out, "even" if packet.get("seq") % 2 == 0 else "odd")

            def output_schema(self, stream):
                if stream in ("even", "odd"):
                    return SCHEMA
                raise KeyError(stream)

        g = StreamProcessingGraph("split", config=small_config())
        g.add_source("src", lambda: CountingSource(total=100))
        g.add_processor("splitter", Splitter)
        g.add_processor("evens", lambda: CollectingSink(evens, field="n"))
        g.add_processor("odds", lambda: CollectingSink(odds, field="n"))
        g.link("src", "splitter")
        g.link("splitter", "evens", stream="even")
        g.link("splitter", "odds", stream="odd")
        with NeptuneRuntime() as rt:
            assert rt.submit(g).await_completion(timeout=60)
        assert evens == list(range(0, 100, 2))
        assert odds == list(range(1, 100, 2))


class TestBackpressure:
    def test_slow_consumer_throttles_source_without_loss(self):
        """Fig. 3/4: a slow stage C throttles the source; nothing drops."""
        sleep_holder = [0.002]
        store = []

        class SlowSink(CollectingSink):
            def process(self, packet, ctx):
                time.sleep(sleep_holder[0])
                super().process(packet, ctx)

        g = StreamProcessingGraph(
            "bp",
            config=NeptuneConfig(
                buffer_capacity=512,
                buffer_max_delay=0.002,
                inbound_high_watermark=2048,
                inbound_low_watermark=512,
            ),
        )
        g.add_source("src", lambda: CountingSource(total=300, payload_size=100))
        g.add_processor("relay", RelayProcessor)
        g.add_processor("sink", lambda: SlowSink(store))
        g.link("src", "relay").link("relay", "sink")
        with NeptuneRuntime() as rt:
            h = rt.submit(g)
            assert h.await_completion(timeout=120)
        assert store == list(range(300))
        # The source must have been throttled (emit blocked).
        m = h.metrics()
        assert m["src"]["emit_block_seconds"] + m["relay"]["emit_block_seconds"] > 0

    def test_source_rate_tracks_consumer_rate(self):
        """While the consumer is slow, the source cannot run far ahead
        of it (bounded by buffers + channel capacity)."""
        sleep_holder = [0.005]
        g = StreamProcessingGraph(
            "bp2",
            config=NeptuneConfig(
                buffer_capacity=256,
                buffer_max_delay=0.002,
                inbound_high_watermark=1024,
                inbound_low_watermark=256,
            ),
        )
        src = CountingSource(total=None, payload_size=100)
        proc = VariableRateProcessor(sleep_holder)
        g.add_source("src", lambda: src)
        g.add_processor("proc", lambda: proc)
        g.link("src", "proc")
        with NeptuneRuntime() as rt:
            h = rt.submit(g)
            time.sleep(1.0)
            emitted, processed = src.emitted, proc.processed
            # In-flight bound: channel (1024 B) + one buffer (256 B) +
            # pooled slack; with ~112 B packets that is well under 100.
            assert emitted - processed < 150
            h.stop(timeout=60)
        assert proc.processed == src.emitted  # drained, nothing lost


class TestCompression:
    def test_compressed_link_end_to_end(self):
        store = []
        g = StreamProcessingGraph(
            "comp",
            config=small_config(
                compression_enabled=True, compression_entropy_threshold=8.0
            ),
        )
        # Zero payloads → low entropy → compression engages.
        g.add_source("src", lambda: CountingSource(total=400, payload_size=200))
        g.add_processor("sink", lambda: CollectingSink(store))
        g.link("src", "sink", chain=False)  # only a buffered leg compresses
        with NeptuneRuntime() as rt:
            h = rt.submit(g)
            assert h.await_completion(timeout=30)
        assert store == list(range(400))
        m = h.metrics()
        # bytes_in at sink counts the *wire* (compressed) bytes; the
        # source's bytes_out counts serialized (uncompressed) bytes.
        assert m["sink"]["bytes_in"] < m["src"]["bytes_out"]

    def test_per_link_compression_override(self):
        store = []
        g = StreamProcessingGraph("comp-link", config=small_config())
        g.add_source("src", lambda: CountingSource(total=100, payload_size=300))
        g.add_processor("sink", lambda: CollectingSink(store))
        g.link("src", "sink", compression=True, chain=False)
        with NeptuneRuntime() as rt:
            h = rt.submit(g)
            assert h.await_completion(timeout=30)
        assert store == list(range(100))
        assert h.metrics()["sink"]["bytes_in"] < h.metrics()["src"]["bytes_out"]


class TestLifecycle:
    def test_stop_drains_in_flight(self):
        store = []
        g = StreamProcessingGraph("stop", config=small_config())
        src = CountingSource(total=None)  # endless
        g.add_source("src", lambda: src)
        g.add_processor("sink", lambda: CollectingSink(store))
        g.link("src", "sink")
        with NeptuneRuntime() as rt:
            h = rt.submit(g)
            deadline = time.monotonic() + 10
            while src.emitted < 100 and time.monotonic() < deadline:
                time.sleep(0.005)
            assert h.stop(timeout=30)
        assert h.state is JobState.STOPPED
        assert store == list(range(len(store)))  # prefix, in order
        assert len(store) == src.emitted  # everything emitted was processed

    def test_await_completion_timeout_on_endless_source(self):
        store = []
        src = CountingSource(total=None)
        g = StreamProcessingGraph("endless", config=small_config())
        g.add_source("src", lambda: src)
        g.add_processor("sink", lambda: CollectingSink(store))
        g.link("src", "sink")
        with NeptuneRuntime() as rt:
            h = rt.submit(g)
            assert not h.await_completion(timeout=0.3)
            # The wait gave up; the job did not notice.
            assert h.state is JobState.RUNNING
            before = src.emitted
            assert wait_until(lambda: src.emitted > before)
            assert h.stop(timeout=30)
        assert h.state is JobState.STOPPED
        assert store == list(range(src.emitted))  # stop drained what was emitted

    def _two_second_job(self, store):
        g = StreamProcessingGraph("sliced", config=small_config())
        g.add_source("src", lambda: CountingSource(total=400, interval=0.005))
        g.add_processor("sink", lambda: CollectingSink(store))
        g.link("src", "sink")
        return g

    def test_a_wait_that_times_out_does_not_end_the_job(self):
        """Slicing ``await_completion`` is a poll, not a one-shot: the
        first slice used to tear the job down and the second to report
        True with an eighth of the packets delivered."""
        store = []
        with NeptuneRuntime() as rt:
            h = rt.submit(self._two_second_job(store))
            assert not h.await_completion(timeout=0.25)
            assert h.state is JobState.RUNNING
            assert not h.await_completion(timeout=0.25) or len(store) == 400
            assert h.await_completion(timeout=30)
            assert h.state is JobState.STOPPED
        assert store == list(range(400))

    def test_a_supervised_job_runs_to_its_end(self):
        from repro.chaos import RecoveryCoordinator

        store = []
        with NeptuneRuntime() as rt:
            supervisor = RecoveryCoordinator(rt, self._two_second_job(store))
            supervisor.start()
            assert supervisor.run_to_completion(timeout=30)
            supervisor.stop()
        assert supervisor.restarts == 0
        assert store == list(range(400))

    def test_a_failed_checkpoint_is_counted_and_the_job_completes(self, monkeypatch):
        from repro.chaos import RecoveryCoordinator, recovery

        class Unsnapshottable(CountingSource):
            def snapshot_state(self):
                raise RuntimeError("state cannot be snapshotted")

        monkeypatch.setattr(recovery, "CHECKPOINT_INTERVAL", 0.02)
        store = []
        g = StreamProcessingGraph("unsnapshottable", config=small_config())
        g.add_source("src", lambda: Unsnapshottable(total=400, interval=0.005))
        g.add_processor("sink", lambda: CollectingSink(store))
        g.link("src", "sink")
        with NeptuneRuntime() as rt:
            supervisor = RecoveryCoordinator(rt, g)
            supervisor.start()
            assert supervisor.run_to_completion(timeout=30)
            supervisor.stop()
        assert supervisor.checkpoint_errors > 0
        assert isinstance(supervisor.last_checkpoint_error, RuntimeError)
        assert supervisor.restarts == 0 and supervisor.teardown_errors == 0
        assert store == list(range(400))

    def test_stop_twice_is_safe(self):
        g = StreamProcessingGraph("twice", config=small_config())
        g.add_source("src", lambda: CountingSource(total=10))
        g.add_processor("sink", CollectingSink)
        g.link("src", "sink")
        with NeptuneRuntime() as rt:
            h = rt.submit(g)
            assert h.stop(timeout=30)
            assert h.stop(timeout=30)

    def test_operator_lifecycle_hooks(self):
        events = []

        class Hooked(CollectingSink):
            def setup(self, ctx):
                events.append("setup")

            def teardown(self):
                events.append("teardown")

        g = StreamProcessingGraph("hooks", config=small_config())
        g.add_source("src", lambda: CountingSource(total=5))
        g.add_processor("sink", Hooked)
        g.link("src", "sink")
        with NeptuneRuntime() as rt:
            rt.submit(g).await_completion(timeout=30)
        assert events == ["setup", "teardown"]

    def test_concurrent_jobs_isolated(self):
        stores = [[], []]
        with NeptuneRuntime() as rt:
            handles = []
            for i in range(2):
                g = StreamProcessingGraph(f"job{i}", config=small_config())
                g.add_source("src", lambda: CountingSource(total=200))
                g.add_processor("sink", lambda i=i: CollectingSink(stores[i]))
                g.link("src", "sink")
                handles.append(rt.submit(g))
            for h in handles:
                assert h.await_completion(timeout=60)
        assert stores[0] == list(range(200))
        assert stores[1] == list(range(200))


class TestFailures:
    def test_processor_exception_fails_job(self):
        class Exploder(StreamProcessor):
            def process(self, packet, ctx):
                raise ValueError("kaboom")

            def output_schema(self, stream):
                raise KeyError(stream)

        g = StreamProcessingGraph("boom", config=small_config())
        g.add_source("src", lambda: CountingSource(total=50))
        g.add_processor("bad", Exploder)
        g.link("src", "bad")
        with NeptuneRuntime() as rt:
            h = rt.submit(g)
            wait_for_failure(h)
            h.stop(timeout=10)
        assert h.state is JobState.FAILED
        assert any("bad" in k for k in h.failures)
        assert isinstance(list(h.failures.values())[0], ValueError)

    def test_source_exception_fails_job(self):
        class BadSource(StreamSource):
            def generate(self, ctx):
                raise RuntimeError("source died")

            def output_schema(self, stream):
                from repro.workloads import RELAY_SCHEMA

                return RELAY_SCHEMA

        g = StreamProcessingGraph("srcboom", config=small_config())
        g.add_source("src", BadSource)
        g.add_processor("sink", CollectingSink)
        g.link("src", "sink")
        with NeptuneRuntime() as rt:
            h = rt.submit(g)
            wait_for_failure(h)
            h.stop(timeout=10)
        assert h.state is JobState.FAILED

    def test_await_is_told_not_polling(self, monkeypatch):
        """``finish`` and a failure wake the awaiting thread: with the
        wait's next look at the clock a minute away, both still return
        at once."""
        from repro.core import job as job_mod

        monkeypatch.setattr(job_mod, "_WAIT_SLICE", 60.0)

        class DiesLater(CountingSource):
            def generate(self, ctx):
                if self.emitted == 20:
                    raise RuntimeError("source died")
                super().generate(ctx)

        for source, state in (
            (lambda: CountingSource(total=20, interval=0.005), JobState.STOPPED),
            (lambda: DiesLater(total=None, interval=0.005), JobState.FAILED),
        ):
            g = StreamProcessingGraph("told", config=small_config())
            g.add_source("src", source)
            g.add_processor("sink", CollectingSink)
            g.link("src", "sink")
            with NeptuneRuntime() as rt:
                h = rt.submit(g)
                started = time.monotonic()
                # The thread is waiting well before the source is done.
                quiesced = h.await_completion(timeout=45)
                assert time.monotonic() - started < 30
            assert h.state is state
            assert quiesced is (state is JobState.STOPPED)

    def test_unstarted_job_await_raises(self):
        from repro.core.job import JobHandle
        from repro.core.runtime import _JobRuntime

        g = StreamProcessingGraph("never", config=small_config())
        g.add_source("src", lambda: CountingSource(total=1))
        g.add_processor("sink", CollectingSink)
        g.link("src", "sink")
        g.validate()
        rt = NeptuneRuntime()
        job = _JobRuntime(g)
        with pytest.raises(JobStateError):
            rt._await_job(job, 1.0, force_finish=True)


class TestEmitErrors:
    def test_emit_unknown_stream(self):
        failures = {}

        class WrongStream(CountingSource):
            def generate(self, ctx):
                pkt = ctx.new_packet()
                pkt.set("seq", 0)
                pkt.set("emitted_at", 0.0)
                pkt.set("payload", b"")
                ctx.emit(pkt, "nonexistent")

        g = StreamProcessingGraph("wrongstream", config=small_config())
        g.add_source("src", WrongStream)
        g.add_processor("sink", CollectingSink)
        g.link("src", "sink")
        with NeptuneRuntime() as rt:
            h = rt.submit(g)
            wait_for_failure(h)
            h.stop(timeout=10)
        assert h.state is JobState.FAILED


class TestWorkerPool:
    """A resource has a thread per task, and ``reconfigure`` can change
    neither that nor anything it does not know."""

    @staticmethod
    def _pool(rt):
        res = rt._resource
        return len(res._threads), len(res.tasks)

    def test_a_refused_scale_cannot_wedge_the_job(self):
        # A shrink below the task count parked every thread in a blocked
        # emit: the sink stopped with most of the stream undelivered.
        sink = SlowSink(sleep=0.0005)
        g = StreamProcessingGraph(
            "wedge",
            config=NeptuneConfig(buffer_capacity=512, inbound_high_watermark=2048),
        )
        g.add_source("src", lambda: CountingSource(total=3000))
        g.add_processor("relay", RelayProcessor)
        g.add_processor("sink", lambda: sink)
        g.link("src", "relay", chain=False).link("relay", "sink", chain=False)
        rt = NeptuneRuntime()
        h = rt.submit(g)
        time.sleep(0.2)
        refused = None
        try:
            rt.reconfigure({"scale": {"workers": 1}})
        except ValueError as exc:
            refused = exc
        threads, tasks = self._pool(rt)
        drained = h.await_completion(timeout=20)
        if drained:
            # A wedged job's shutdown would wait on the parked sender's
            # buffer lock for good; only a drained runtime is shut down.
            rt.shutdown()
        assert drained, f"wedged after {sink.seen} of 3000 packets"
        assert sink.seen == 3000
        assert threads >= tasks == 3
        assert refused is not None and "'scale'" in str(refused)

    def test_reconfigure_names_the_key_it_cannot_apply(self):
        g = StreamProcessingGraph("typo", config=small_config())
        g.add_source("src", lambda: CountingSource(total=100))
        g.add_processor("sink", CollectingSink)
        g.link("src", "sink", chain=False)
        with NeptuneRuntime() as rt:
            h = rt.submit(g)
            with pytest.raises(ValueError, match="'retnue'.*'retune'"):
                rt.reconfigure({"retnue": {"operator": "sink"}})
            assert rt.reconfigure({})["applied"] == []
            assert h.await_completion(timeout=30)

    def test_a_second_job_grows_the_pool_to_both_jobs_tasks(self):
        def graph(name):
            g = StreamProcessingGraph(name, config=small_config())
            g.add_source("src", lambda: CountingSource(total=None, interval=0.001))
            g.add_processor("relay", RelayProcessor, parallelism=2)
            g.add_processor("sink", CollectingSink)
            g.link("src", "relay").link("relay", "sink")
            return g

        with NeptuneRuntime() as rt:
            first = rt.submit(graph("a"))
            assert self._pool(rt) == (4, 4)
            second = rt.submit(graph("b"))
            assert self._pool(rt) == (8, 8)
            first.stop(timeout=10)
            second.stop(timeout=10)
