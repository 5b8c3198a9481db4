"""``buffer_max_delay`` is a budget a packet spends once per resource.

Every batch carries ``born``, when its oldest packet entered the job on
this resource: stamped at a source's first append, inherited by what a
processor makes of the batch, passed along a local leg, restarted at a
socket.  An operator that runs out of input flushes, on its own thread,
whatever output is already over budget; younger output keeps
accumulating, and the timer service keeps the paper's per-buffer rule.

Buffer-level tests run on a ``ManualClock``.  Runtime-level tests either
drive a wired, never launched job by hand (what ran is what the test
called), or launch one with bounds generous enough that a stalling box
cannot fake a pass.
"""

import time

import pytest

from repro.core import (
    FieldType,
    NeptuneConfig,
    NeptuneRuntime,
    PacketCodec,
    PacketSchema,
    StreamProcessingGraph,
    StreamProcessor,
    StreamSource,
)
from repro.core.buffering import FlushTimerService, StreamBuffer
from repro.core.distributed import DistributedJob
from repro.core.runtime import _JobRuntime, _local_leg, _wire_id, _wire_partition
from repro.net import framing
from repro.observe import TelemetryRegistry, bridge
from repro.util import ManualClock
from repro.workloads import CollectingSink, KeyedRelayProcessor, KeyedSource
from waiters import wait_until

STAMPED = PacketSchema([("seq", FieldType.INT64), ("emitted_at", FieldType.FLOAT64)])
BAD = PacketSchema([("x", FieldType.INT64)])


def _packet(seq, emitted_at=0.0):
    return STAMPED.new_packet(seq=seq, emitted_at=emitted_at)


# -- the buffer -------------------------------------------------------------------


class _Sink:
    """Records ``(count, taken_born)`` per flush; ``waited`` is what it
    reports having waited for its receiver."""

    def __init__(self, waited=None):
        self.buf = None
        self.flushes = []
        self.waited = waited

    def __call__(self, body, count):
        self.flushes.append((count, self.buf.taken_born))
        return self.waited


def _buffer(clock, max_delay=0.5, capacity=1 << 20, waited=None):
    sink = _Sink(waited)
    sink.buf = StreamBuffer(capacity=capacity, sink=sink, max_delay=max_delay, clock=clock)
    return sink.buf, sink


class TestBorn:
    def test_a_source_batch_is_born_at_its_first_append(self):
        clock = ManualClock(start=10.0)
        buf, _ = _buffer(clock)
        assert buf.born is None
        buf.append(b"a")
        clock.advance(0.2)
        buf.append(b"b")  # the oldest packet decides
        assert buf.born == 10.0

    def test_a_processor_batch_inherits_the_inbound_stamp(self):
        clock = ManualClock(start=10.0)
        buf, _ = _buffer(clock)
        buf.inherit(9.4)
        assert buf.born is None  # nothing pending yet: nothing to age
        buf.append_packet(PacketCodec(STAMPED), _packet(0))
        assert buf.born == 9.4
        # The timer's rule is untouched: max_delay since the local append.
        assert buf.next_deadline() == pytest.approx(10.5)

    def test_older_inbound_lowers_a_pending_batch_younger_never_raises(self):
        clock = ManualClock(start=10.0)
        buf, _ = _buffer(clock)
        buf.inherit(9.4)
        buf.append(b"a")
        buf.inherit(9.8)  # a younger frame feeds the same pending batch
        buf.append(b"b")
        assert buf.born == 9.4
        buf.inherit(9.1)  # an older one (another sender's)
        assert buf.born == 9.1
        buf.inherit(None)  # inheritance over; what is pending keeps its age
        assert buf.born == 9.1

    def test_the_taken_batch_reports_its_born_and_the_next_starts_fresh(self):
        clock = ManualClock(start=10.0)
        buf, sink = _buffer(clock, capacity=2)
        buf.inherit(9.4)
        buf.append(b"a")
        buf.append(b"b")  # capacity flush, mid-frame
        assert sink.flushes == [(2, 9.4)] and buf.born is None
        buf.inherit(9.9)
        buf.append(b"c")
        assert buf.born == 9.9  # not the flushed batch's 9.4
        buf.flush()
        buf.inherit(None)
        clock.advance(1.0)
        buf.append(b"d")
        buf.flush()
        assert sink.flushes == [(2, 9.4), (1, 9.9), (1, 11.0)]

    @pytest.mark.parametrize("already", [0, 2])
    def test_a_failed_encode_leaves_born_as_it_was(self, already):
        clock = ManualClock(start=10.0)
        buf, _ = _buffer(clock)
        codec = PacketCodec(STAMPED)
        buf.inherit(9.4)
        for i in range(already):
            buf.append_packet(codec, _packet(i))
        before = buf.born
        assert before == (9.4 if already else None)
        clock.advance(0.1)
        for bad in (STAMPED.new_packet(seq=1), BAD.new_packet(x=1), _packet(2**70)):
            with pytest.raises(Exception):
                buf.append_packet(codec, bad)
            assert buf.born == before and buf.pending_count == already


class TestBudgetFlush:
    def test_over_budget_flushes_exactly_once_and_is_counted(self):
        clock = ManualClock(start=10.0)
        buf, sink = _buffer(clock, max_delay=0.5)
        buf.inherit(9.5)  # already waited its bound upstream
        buf.append(b"a")
        buf.append(b"b")
        assert buf.flush_if_spent() is True
        assert buf.flush_if_spent() is False  # nothing pending any more
        assert sink.flushes == [(2, 9.5)]
        assert (buf.budget_flushes, buf.timer_flushes, buf.capacity_flushes) == (1, 0, 0)
        assert buf.pending_count == 0 and buf.next_deadline() is None

    def test_under_budget_stays_and_accumulates(self):
        clock = ManualClock(start=10.0)
        buf, sink = _buffer(clock, max_delay=0.5)
        buf.inherit(9.6)
        buf.append(b"a")
        assert buf.flush_if_spent() is False
        assert buf.flush_if_spent(now=10.09) is False
        assert sink.flushes == [] and buf.budget_flushes == 0 and buf.pending_count == 1
        clock.advance(0.1)  # 10.1 - 9.6 = the bound
        assert buf.flush_if_spent() is True
        assert buf.budget_flushes == 1

    def test_a_source_batch_ages_from_its_own_first_append(self):
        clock = ManualClock(start=10.0)
        buf, _ = _buffer(clock, max_delay=0.5)
        buf.append(b"a")
        clock.advance(0.49)
        assert buf.flush_if_spent() is False
        clock.advance(0.01)
        assert buf.flush_if_spent() is True

    def test_the_timer_keeps_the_local_rule(self):
        # A saturated relay's inbound batches are all older than the
        # bound; the timer cutting on ``born`` would chop its output
        # mid-execution.
        clock = ManualClock(start=10.0)
        buf, sink = _buffer(clock, max_delay=0.5)
        buf.inherit(1.0)
        buf.append(b"a")
        svc = FlushTimerService(clock=clock)
        svc.register(buf)
        assert buf.flush_if_due() is False
        assert svc.scan_once() == pytest.approx(0.5)
        assert sink.flushes == [] and buf.timer_flushes == 0
        clock.advance(0.5)
        svc.scan_once()
        assert sink.flushes == [(1, 1.0)]
        assert (buf.timer_flushes, buf.budget_flushes) == (1, 0)

    def test_what_the_sink_waited_is_backpressure(self):
        clock = ManualClock(start=10.0)
        buf, _ = _buffer(clock, max_delay=0.5, waited=0.25)
        buf.inherit(9.0)
        buf.append(b"a")
        buf.flush_if_spent()
        assert buf.blocked_seconds == 0.25

    def test_no_hand_over_wait(self):
        clock = ManualClock(start=10.0)
        buf, _ = _buffer(clock, max_delay=0.5)
        buf.after_capacity_flush = lambda patience: pytest.fail("budget flush handed over")
        buf.inherit(9.0)
        buf.append(b"a")
        assert buf.flush_if_spent() is True


# -- a wired job, driven by hand ---------------------------------------------------


class _Relay(StreamProcessor):
    """Forwards every packet; ``seen[seq]`` is when, and ``after_batch``
    (if set) runs once, at the end of the first batch."""

    def __init__(self, seen=None):
        super().__init__()
        self.seen = {} if seen is None else seen
        self.after_batch = None

    def process(self, packet, ctx):
        self.seen[packet.get_at(0)] = time.monotonic()
        out = ctx.new_packet()
        out.copy_from(packet)
        ctx.emit(out)

    def on_batch_end(self, ctx):
        hook, self.after_batch = self.after_batch, None
        if hook is not None:
            hook()

    def output_schema(self, stream):
        return STAMPED


class _AgeSink(StreamProcessor):
    """Records ``(seq, emitted_at, received_at)`` per packet."""

    def __init__(self, rows):
        super().__init__()
        self.rows = rows

    def process(self, packet, ctx):
        self.rows.append((packet.get_at(0), packet.get_at(1), time.monotonic()))

    def output_schema(self, stream):
        raise KeyError(stream)


class _Idle(StreamSource):
    def generate(self, ctx):
        ctx.finish()

    def output_schema(self, stream):
        return STAMPED


def _three_stage(source_factory, rows, max_delay, seen=None):
    graph = StreamProcessingGraph(
        "budget", config=NeptuneConfig(buffer_max_delay=max_delay)
    )
    graph.add_source("src", source_factory)
    graph.add_processor("relay", lambda: _Relay(seen))
    graph.add_processor("sink", lambda: _AgeSink(rows))
    # The budget is about buffers: chained, these hops would have none.
    graph.link("src", "relay", chain=False)
    graph.link("relay", "sink", chain=False)
    return graph


def _named(buffers, prefix):
    (buf,) = [b for b in buffers if b.name.startswith(prefix)]
    return buf


class _HandDriven:
    """src -> relay -> sink wired on one resource and never launched;
    ``feed`` puts a batch into the relay's channel over a local leg of
    the test's own, with the ``born`` the test chooses."""

    def __init__(self, max_delay):
        self.rows = []
        graph = _three_stage(_Idle, self.rows, max_delay)
        graph.validate()
        job = _JobRuntime(graph)
        inbound = _wire_partition(
            job, lambda op, idx: True, "", None, FlushTimerService()
        )
        self.relay = job.instances["relay"][0]
        self.sink = job.instances["sink"][0]
        for inst in (self.relay, self.sink):
            inst.initialize()
        self.out = _named(job.buffers, "relay[0]->sink[0]")
        wire = _wire_id(graph.links[0].link_id, 0, 0)
        channel, info = inbound[wire]
        self._deliver = _local_leg(wire, channel, info, None)
        self._codec = PacketCodec(STAMPED)
        self._next = 0

    def feed(self, count, born):
        packets = [_packet(self._next + i) for i in range(count)]
        self._next += count
        self._deliver(self._codec.encode_batch(packets), count, b"", born, None)

    def sink_frames(self):
        return [frame.count for frame, _, _, _ in self.sink.channel.drain()]


class TestOutOfInput:
    def test_spent_output_leaves_when_the_operator_runs_out_of_input(self):
        job = _HandDriven(max_delay=0.05)
        job.feed(3, born=time.monotonic() - 1.0)
        job.relay._framework_execute()
        assert job.out.budget_flushes == 1 and job.out.pending_count == 0
        assert job.sink_frames() == [3]

    def test_a_batch_already_queued_defers_the_flush_to_the_next_execution(self):
        job = _HandDriven(max_delay=0.05)
        old = time.monotonic() - 1.0
        job.feed(3, born=old)
        # The second batch lands while the first is executing.
        job.relay.operator.after_batch = lambda: job.feed(2, born=old)
        job.relay._framework_execute()
        assert job.out.budget_flushes == 0 and job.out.pending_count == 3
        assert job.sink_frames() == []
        job.relay._framework_execute()
        assert job.out.budget_flushes == 1
        assert job.sink_frames() == [5]  # one frame, not two

    def test_young_output_keeps_accumulating_across_idle_executions(self):
        # sensor_keyed's shape: inbound batches a few ms old against a
        # 100 ms budget.  Flushing here would be flush-on-idle.
        job = _HandDriven(max_delay=0.1)
        for _ in range(4):
            job.feed(2, born=time.monotonic() - 0.005)
            job.relay._framework_execute()
        assert job.out.budget_flushes == 0 and job.out.pending_count == 8
        assert job.sink_frames() == []
        # ... until a batch that has waited its bound upstream feeds it.
        job.feed(1, born=time.monotonic() - 0.2)
        job.relay._framework_execute()
        assert job.out.budget_flushes == 1
        assert job.sink_frames() == [9]

    def test_the_receiver_inherits_what_the_leg_carried(self):
        job = _HandDriven(max_delay=10.0)
        entered = time.monotonic() - 1.0
        job.feed(1, born=entered)
        job.relay._framework_execute()
        assert job.out.born == entered
        job.out.flush()
        ((_, put_at, _, born),) = job.sink.channel.drain()
        assert born == entered and put_at > born


# -- launched ----------------------------------------------------------------------


class _Bursts(StreamSource):
    """``bursts`` bursts of ``per_burst`` stamped packets, one every
    ``period`` seconds; finishes once the timer has cut its last batch,
    so the drain's manual flush has nothing of this source's to carry."""

    def __init__(self, bursts, per_burst, period):
        super().__init__()
        self.left = bursts
        self.per_burst = per_burst
        self.period = period
        self.next_at = None
        self.seq = 0

    def output_schema(self, stream):
        return STAMPED

    def generate(self, ctx):
        if not self.left:
            if ctx.pending_out_bytes:
                time.sleep(0.001)
            else:
                ctx.finish()
            return
        now = time.monotonic()
        if self.next_at is None:
            self.next_at = now
        elif now < self.next_at:
            time.sleep(self.next_at - now)
        for _ in range(self.per_burst):
            ctx.emit(ctx.new_packet().set_at(0, self.seq).set_at(1, time.monotonic()))
            self.seq += 1
        self.left -= 1
        self.next_at += self.period


MAX_DELAY = 0.05
BURSTS, PER_BURST, PERIOD = 10, 5, 0.02


class TestPacedOnOneResource:
    def test_the_bound_is_spent_once_not_once_per_hop(self):
        rows, seen = [], {}
        graph = _three_stage(
            lambda: _Bursts(BURSTS, PER_BURST, PERIOD), rows, MAX_DELAY, seen
        )
        with NeptuneRuntime() as rt:
            handle = rt.submit(graph)
            buffers = handle._job.buffers
            assert handle.await_completion(timeout=30)
            assert handle.failures == {}
            relay_executions = handle.metrics()["relay"]["executions"]
        # Every packet once, in order.
        assert [seq for seq, _, _ in rows] == list(range(BURSTS * PER_BURST))
        first, second = _named(buffers, "src[0]->relay"), _named(buffers, "relay[0]->sink")
        assert first.timer_flushes >= 2 and first.budget_flushes == 0
        # The relay's output never waited for the timer: each execution
        # ended out of input, holding output as old as its inbound batch.
        assert second.timer_flushes == 0 and second.manual_flushes == 0
        assert second.budget_flushes == relay_executions >= 2
        # ... and the export says so: the timer thread had to, twice or
        # more, on the first hop only.
        registry = TelemetryRegistry()
        bridge.scrape_job(registry, handle)
        exported = {s.name: s.value for s in registry.collect()}
        assert exported["neptune_buffer_budget_flushes_total"] == second.budget_flushes
        assert exported["neptune_buffer_timer_flushes_total"] == first.timer_flushes
        # On one resource a packet's age at the sink is max_delay plus
        # service; at the parent commit it is two bounds for the oldest
        # packet of every batch.  The second hop's share is measured:
        # relay to sink costs service time, not another bound.
        for seq, emitted_at, received_at in rows:
            assert received_at - emitted_at < 2 * MAX_DELAY, seq
            assert received_at - seen[seq] < MAX_DELAY, seq

    def test_a_keyed_graph_of_young_batches_makes_no_budget_flush(self):
        # The regression guard against flush-on-idle: four aggregates
        # that run out of input after every small batch, none of it old.
        store, total = [], 2000
        graph = StreamProcessingGraph(
            "keyed",
            config=NeptuneConfig(buffer_capacity=256, buffer_max_delay=30.0),
        )
        keyed = {"scheme": "fields", "fields": ["key"]}
        graph.add_source("src", lambda: KeyedSource(total=total, keys=16))
        graph.add_processor("agg", KeyedRelayProcessor, parallelism=4)
        graph.add_processor("sink", lambda: CollectingSink(store, field="seq"))
        graph.link("src", "agg", partitioning=keyed)
        graph.link("agg", "sink")
        with NeptuneRuntime() as rt:
            handle = rt.submit(graph)
            buffers = handle._job.buffers
            assert handle.await_completion(timeout=30)
            assert handle.failures == {}
            idles = handle.metrics()["agg"]["executions"]
        assert sorted(store) == list(range(total))
        assert idles >= 8  # the aggregates did go idle, again and again
        assert sum(b.budget_flushes for b in buffers) == 0
        assert sum(b.capacity_flushes for b in buffers) > 0


class TestAcrossASocket:
    def test_born_restarts_at_the_socket(self):
        """Two co-hosted workers, every leg over TCP: whatever age the
        sender's batch had, the receiver's copy is born on arrival."""
        rows, seen_items = [], []
        graph = _three_stage(lambda: _Bursts(4, PER_BURST, PERIOD), rows, MAX_DELAY)
        job = DistributedJob(graph, n_workers=2)  # src, sink on 0; relay on 1
        for worker in job.workers:
            for inst in worker.job.all_instances():
                if inst.channel is not None:
                    put = inst.channel.put

                    def recording_put(size, item, _put=put, **kw):
                        seen_items.append(item)
                        return _put(size, item, **kw)

                    inst.channel.put = recording_put
        job.start()
        try:
            assert wait_until(lambda: len(rows) == 4 * PER_BURST, timeout=30)
            sent = [b for w in job.workers for b in w.job.buffers]
            assert sum(b.timer_flushes for b in sent) >= 2
        finally:
            assert job.stop()
        assert job.failures() == {}
        assert [seq for seq, _, _ in rows] == list(range(4 * PER_BURST))
        assert len(seen_items) >= 2
        assert all(born == put_at for _, put_at, _, born in seen_items)

    def test_waiting_for_the_job_leaves_the_flush_policy_alone(self):
        """The same two workers, awaited from the start: until the
        sources finish every batch is cut by the timer or the budget,
        as configured - the coordinator's wait used to flush every
        buffer every 10 ms (185 manual flushes of this job, no timer
        flush), which made ``buffer_max_delay`` dead configuration."""
        rows, at_finish = [], []

        class _Watched(_Bursts):
            def generate(self, ctx):
                if not (self.left or ctx.pending_out_bytes or at_finish):
                    at_finish.extend(
                        (b.name, b.manual_flushes, b.timer_flushes + b.budget_flushes)
                        for w in job.workers
                        for b in w.job.buffers
                    )
                super().generate(ctx)

        graph = _three_stage(lambda: _Watched(4, PER_BURST, 0.1), rows, 0.2)
        job = DistributedJob(graph, n_workers=2)
        job.start()
        assert job.await_completion(timeout=30)
        assert job.failures() == {}
        assert [seq for seq, _, _ in rows] == list(range(4 * PER_BURST))
        assert len(at_finish) == 2
        assert [manual for _, manual, _ in at_finish] == [0, 0], at_finish
        assert sum(cut for _, _, cut in at_finish) >= 2

    def test_the_wire_format_is_the_parents(self):
        # Age is not in the header: two hosts' monotonic clocks are not
        # comparable.  Golden bytes from the encoder of the 27-byte
        # header; only the version byte (5 and 6 since batch-shaped
        # bodies) and with it the CRC differ from the ones before.
        assert framing.HEADER_SIZE == 27
        encoder = framing.FrameEncoder()
        assert encoder.encode(7, b"abc", 1).hex() == (
            "504e050700000000000000000000000100000003000000dad80099616263"
        )
        assert encoder.encode(7, b"abc", 1, b"tr").hex() == (
            "504e0607000000010000000000000001000000030000000667b8dd02007472616263"
        )
