"""Where the engine rotates threads: a source runs ``generate`` for one
time-bounded quantum per scheduled execution, and a sender that fills a
batch on a local leg waits until its receiver has taken it.

Everything here counts calls; nothing sleeps and hopes.  Most tests
drive a wired but never launched job by hand (``execute`` called on the
test's own thread, no worker pool, no flush timer), so what ran is
exactly what the test called.
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
    StreamProcessor,
    StreamSource,
)
from repro.core import buffering as buffering_mod
from repro.core import runtime as runtime_mod
from repro.core.buffering import FlushTimerService, StreamBuffer
from repro.core.runtime import _JobRuntime, _wire_partition
from repro.granules.scheduler import CountBasedStrategy
from repro.granules.task import TaskState
from repro.util import ManualClock
from repro.util.errors import BackpressureTimeout
from repro.workloads import CollectingSink
from waiters import wait_until

SEQ = PacketSchema([("seq", FieldType.INT64)])


class _Scripted(StreamSource):
    """Emits 0, 1, 2, ... and runs ``script(source, ctx, seq)`` after
    each emit; ``calls`` records the task's execution count at every
    ``generate`` call."""

    def __init__(self, script=None):
        super().__init__()
        self.script = script
        self.calls = []

    def output_schema(self, stream):
        return SEQ

    def generate(self, ctx):
        seq = len(self.calls)
        self.calls.append(ctx.executions)
        ctx.emit(ctx.new_packet().set_at(0, seq))
        if self.script is not None:
            self.script(self, ctx, seq)


def _wired(source_factory, store, config=None, scheduling=None, hosts=None, chain=True):
    """A src -> sink job wired on one resource and never launched;
    returns ``(src_instance, sink_instance)`` (None for one that
    ``hosts`` places elsewhere).  ``chain=False`` keeps the buffered
    leg the hand-over tests are about."""
    graph = StreamProcessingGraph("rotation", config=config or NeptuneConfig())
    graph.add_source("src", source_factory)
    graph.add_processor(
        "sink", lambda: CollectingSink(store, field="seq"), scheduling=scheduling
    )
    graph.link("src", "sink", chain=chain)
    graph.validate()
    job = _JobRuntime(graph)
    _wire_partition(
        job, hosts or (lambda op, idx: True), "", lambda op, idx: None, FlushTimerService()
    )
    pair = []
    for name in ("src", "sink"):
        hosted = job.instances.get(name)
        if hosted:
            hosted[0].initialize()
        pair.append(hosted[0] if hosted else None)
    return tuple(pair)


def _deliver(src, sink):
    src.flush_all()
    sink._framework_execute()


# -- the source quantum ---------------------------------------------------------


class TestSourceQuantum:
    def test_one_execution_carries_many_generates(self):
        src, _ = _wired(lambda: _Scripted(), [])
        for _ in range(20):
            src._framework_execute()
        calls = src.operator.calls
        assert src.executions == 20
        # Each call saw the number of the execution it ran in: the
        # numbers never go back, and some execution made several calls
        # (all of them, on a machine that is not stalling).
        assert calls == sorted(calls) and set(calls) <= set(range(20))
        assert len(calls) > 20

    def test_a_launched_source_is_counted_per_quantum_not_per_packet(self):
        store = []
        total = 10_000
        graph = StreamProcessingGraph("quantum", config=NeptuneConfig())
        graph.add_source(
            "src",
            lambda: _Scripted(
                lambda s, ctx, seq: ctx.finish() if seq == total - 1 else None
            ),
        )
        graph.add_processor("sink", lambda: CollectingSink(store, field="seq"))
        graph.link("src", "sink")
        started = time.monotonic()
        with NeptuneRuntime() as rt:
            handle = rt.submit(graph)
            task = handle._job.instances["src"][0]
            assert handle.await_completion(timeout=60)
            assert handle.failures == {}
            metrics = handle.metrics()
        elapsed = time.monotonic() - started
        assert store == list(range(total))
        # Every execution but the one that finishes lasts a quantum, so
        # the wall clock bounds the count whatever the machine's speed.
        assert 1 <= task.executions <= elapsed / runtime_mod._SOURCE_QUANTUM + 1
        # The operator counter reports what the task ran (it read 0 for
        # every source before sources were counted).
        assert metrics["src"]["executions"] == task.executions

    def test_generate_outlasting_the_quantum_runs_once_per_execution(self):
        def outlast(source, ctx, seq):
            until = time.monotonic() + 2 * runtime_mod._SOURCE_QUANTUM
            while time.monotonic() < until:
                pass

        src, _ = _wired(lambda: _Scripted(outlast), [])
        for _ in range(5):
            src._framework_execute()
        assert src.operator.calls == [0, 1, 2, 3, 4]

    def test_pause_from_inside_generate_stops_before_the_next_call(self):
        def pause_at_2(source, ctx, seq):
            if seq == 2:
                ctx.paused = True

        store = []
        src, sink = _wired(lambda: _Scripted(pause_at_2), store)
        src._framework_execute()
        assert src.operator.calls == [0, 0, 0]
        src._framework_execute()  # still paused: no call at all
        assert len(src.operator.calls) == 3
        _deliver(src, sink)
        assert store == [0, 1, 2]
        src.paused = False
        src.operator.script = lambda s, ctx, seq: ctx.finish()
        src._framework_execute()
        assert src.operator.calls == [0, 0, 0, 2]

    def test_finish_from_inside_generate_stops_before_the_next_call(self):
        store = []
        src, sink = _wired(
            lambda: _Scripted(lambda s, ctx, seq: ctx.finish() if seq == 4 else None),
            store,
        )
        src._framework_execute()
        src._framework_execute()
        assert src.operator.calls == [0] * 5
        assert src.metrics.executions == src.executions == 2
        _deliver(src, sink)
        assert store == [0, 1, 2, 3, 4]

    def test_raising_generate_fails_the_task_and_keeps_what_it_emitted(self):
        def raise_at_6(source, ctx, seq):
            if seq == 6:
                raise RuntimeError("source died")

        store = []
        src, sink = _wired(lambda: _Scripted(raise_at_6), store)
        with pytest.raises(RuntimeError, match="source died"):
            src._framework_execute()
        assert src.state is TaskState.FAILED
        assert isinstance(src.failure, RuntimeError)
        assert src.executions == 0
        src._framework_execute()  # a failed task is not executed again
        assert len(src.operator.calls) == 7
        # Packet 6 was emitted before the raise: delivered with the
        # rest, once, in order.
        _deliver(src, sink)
        assert store == [0, 1, 2, 3, 4, 5, 6]
        _deliver(src, sink)
        assert store == [0, 1, 2, 3, 4, 5, 6]


# -- the hand-over at a full batch -----------------------------------------------

#: Eight 8-byte records fill a batch; no timer cuts one short.
SMALL_BATCHES = dict(buffer_capacity=64, buffer_max_delay=60.0)


@pytest.fixture
def patient(monkeypatch):
    """Senders that wait for their receiver as long as it takes (a
    batch of eight fills in microseconds; twice that is no wait)."""
    monkeypatch.setattr(buffering_mod, "_HANDOVER_PATIENCE", 1e9)


def _recorded_waits(channel):
    """Every ``wait`` on the channel's writer condition, as it starts."""
    waits, real_wait = [], channel._writable.wait

    def wait(timeout=None):
        waits.append(timeout)
        return real_wait(timeout)

    channel._writable.wait = wait
    return waits


class _Forward(StreamProcessor):
    def output_schema(self, stream):
        return SEQ

    def process(self, packet, ctx):
        ctx.emit(ctx.new_packet().set_at(0, packet.get_at(0)))


class TestHandOver:
    def test_filling_a_batch_parks_the_sender_until_the_receiver_takes_it(
        self, patient
    ):
        store = []
        src, sink = _wired(
            lambda: _Scripted(lambda s, ctx, seq: ctx.finish() if seq == 7 else None),
            store,
            NeptuneConfig(**SMALL_BATCHES),
            chain=False,
        )
        waits = _recorded_waits(sink.channel)
        sender = threading.Thread(target=src._framework_execute, daemon=True)
        sender.start()
        assert wait_until(lambda: len(waits) == 1)
        # Parked right after the emit that filled the batch, with that
        # batch (and nothing else) queued.
        assert len(src.operator.calls) == 8 and len(sink.channel) == 1
        sink._framework_execute()
        sender.join(10.0)
        assert not sender.is_alive()
        assert store == list(range(8))
        (buf,) = src._out_buffers
        assert buf.capacity_flushes == 1 and buf.blocked_seconds > 0.0

    def test_only_the_thread_that_filled_the_batch_waits(self):
        """Timer and manual flushes run on other threads (flush timer,
        the thread awaiting the job): parking those would hold up every
        other buffer, and would not slow the sender down."""
        src, sink = _wired(
            lambda: _Scripted(), [], NeptuneConfig(**SMALL_BATCHES), chain=False
        )
        (buf,) = src._out_buffers
        handed_over = []
        buf.after_capacity_flush = lambda budget: handed_over.append(budget) or 0.0

        def emit(packets):
            for _ in range(packets):
                src.emit(src.new_packet().set_at(0, 0))

        emit(3)
        assert buf.flush()
        emit(3)
        assert buf.flush_if_due(time.monotonic() + 3600.0)
        assert len(sink.channel) == 2 and handed_over == []
        emit(8)
        assert len(sink.channel) == 3 and len(handed_over) == 1

    def test_a_remote_leg_does_not_wait(self):
        src, _ = _wired(lambda: _Scripted(), [], hosts=lambda op, idx: op == "src")
        (buf,) = src._out_buffers
        assert buf.after_capacity_flush is None

    def test_a_receiver_with_its_own_schedule_is_left_to_accumulate(self):
        src, _ = _wired(
            lambda: _Scripted(), [], scheduling=lambda: CountBasedStrategy(threshold=4)
        )
        (buf,) = src._out_buffers
        assert buf.after_capacity_flush is None

    def test_the_wait_lasts_at_most_twice_what_the_batch_took_to_fill(self):
        clock = ManualClock()
        budgets = []
        buf = StreamBuffer(16, lambda body, count: None, max_delay=60.0, clock=clock)
        buf.after_capacity_flush = lambda budget: budgets.append(budget) or 0.125
        buf.append(b"x" * 8)
        clock.advance(0.25)
        assert buf.append(b"y" * 8)  # filled, 0.25 s after its first byte
        assert budgets == [0.5]
        assert buf.blocked_seconds == 0.125
        clock.advance(1.0)  # between batches: not fill time
        buf.append(b"x" * 8)
        clock.advance(0.5)
        assert buf.append(b"y" * 8)
        assert budgets == [0.5, 1.0]

    def test_a_receiver_that_takes_nothing_is_run_ahead_of_up_to_the_gate(self):
        """Overload is the byte gate's business: the sender gives up
        on each hand-over and goes on until the gate holds it."""
        src, sink = _wired(
            lambda: _Scripted(),
            [],
            NeptuneConfig(
                inbound_high_watermark=4 * 64, emit_timeout=0.05, **SMALL_BATCHES
            ),
            chain=False,
        )
        with pytest.raises(BackpressureTimeout):
            for _ in range(100):
                src._framework_execute()
        assert len(sink.channel) == 4 and sink.channel.gated
        (buf,) = src._out_buffers
        assert buf.capacity_flushes == 5 and buf.blocked_seconds > 0.0

    def test_one_batch_queues_in_front_of_a_receiver_that_is_waited_for(
        self, patient
    ):
        """src -> relay -> sink, launched, the source the fastest
        stage: each execution of a receiver finds exactly one batch."""
        store = []
        total = 4_000
        graph = StreamProcessingGraph("handover", config=NeptuneConfig(**SMALL_BATCHES))
        graph.add_source(
            "src",
            lambda: _Scripted(
                lambda s, ctx, seq: ctx.finish() if seq == total - 1 else None
            ),
        )
        graph.add_processor("relay", _Forward)
        graph.add_processor("sink", lambda: CollectingSink(store, field="seq"))
        graph.link("src", "relay", chain=False).link("relay", "sink", chain=False)
        with NeptuneRuntime() as rt:
            handle = rt.submit(graph)
            assert handle.await_completion(timeout=60)
            assert handle.failures == {}
            metrics = handle.metrics()
        assert store == list(range(total))
        for op in ("relay", "sink"):
            assert metrics[op]["batches_in"] == total // 8
            assert metrics[op]["executions"] == metrics[op]["batches_in"]
