"""The send path ``ctx.emit``/``ctx.new_packet`` is generated per
outgoing stream when a graph is wired (``_InstanceRuntime.bind_links``).

Whatever a sender was generated for - a chained leg, a buffered one, a
keyed fan-out, traced or not - a refused emit changes nothing, the rows
delivered are the same, a scheme with a choice to make is asked, and a
stream that is not there raises what it always raised.
"""

import struct

from repro.core import (
    FieldType,
    NeptuneConfig,
    NeptuneRuntime,
    PacketSchema,
    StreamProcessingGraph,
    StreamProcessor,
    StreamSource,
)
from repro.core.partitioning import DirectPartitioning, FieldsPartitioning, PartitioningScheme
from repro.core.runtime import _ChainedLeg
from repro.observe import RuntimeObserver
from repro.util.errors import GraphValidationError, NeptuneError, SerializationError

#: ``x`` comes before ``n``: a row refused for ``n`` must not come back
#: with ``x`` already rounded to a float32.
RECORD = PacketSchema(
    [
        ("key", FieldType.STRING),
        ("seq", FieldType.INT64),
        ("x", FieldType.FLOAT32),
        ("n", FieldType.INT32),
    ]
)
SIDE = PacketSchema([("seq", FieldType.INT64), ("tag", FieldType.STRING)])
X32 = struct.unpack("<f", struct.pack("<f", 0.1))[0]


def _leg_state(leg):
    """Everything a refused append must leave as it was."""
    if isinstance(leg, _ChainedLeg):
        count = leg._count
        pending = [list(row) for row in leg._rows[:count]]
        return leg.appended(), leg.born, count, leg._bytes, pending
    return leg.appended(), leg.born, leg.pending_count, leg.pending_bytes


class _Collect(StreamProcessor):
    def __init__(self, rows):
        super().__init__()
        self.rows = rows

    def output_schema(self, stream):
        raise KeyError(stream)

    def process(self, packet, ctx):
        self.rows.append((ctx.instance_index, packet.values))


class _Refused(StreamSource):
    """Sends ``total`` rows; every fourth goes out first with ``n`` out
    of range, is refused, is fixed in place and goes out again."""

    def __init__(self, total, seen):
        super().__init__()
        self.total = total
        self.seen = seen
        self.seq = 0

    def output_schema(self, stream):
        return RECORD

    def generate(self, ctx):
        seq = self.seq
        if seq >= self.total:
            ctx.finish()
            return
        self.seq += 1
        pkt = ctx.new_packet().set_at(0, f"k{seq % 7}").set_at(1, seq).set_at(2, 0.1)
        if seq % 4 == 3:
            pkt.set_at(3, 2**31)
            legs = [leg for out in ctx.out_links["default"] for leg in out.buffers]
            before = [_leg_state(leg) for leg in legs]
            values = list(pkt._values)
            try:
                ctx.emit(pkt)
            except SerializationError as exc:
                self.seen.append(
                    (
                        str(exc),
                        [_leg_state(leg) for leg in legs] == before,
                        pkt._values == values,
                        pkt._home is not None,
                    )
                )
            else:
                self.seen.append(("accepted",))
                return
        ctx.emit(pkt.set_at(3, seq))


def _refusing_graph(kind, total, seen, rows):
    cfg = NeptuneConfig(buffer_capacity=96, buffer_max_delay=60.0)
    graph = StreamProcessingGraph(f"refused-{kind}", config=cfg)
    graph.add_source("src", lambda: _Refused(total, seen))
    graph.add_processor("sink", lambda: _Collect(rows), parallelism=4 if kind == "keyed" else 1)
    if kind == "chained":
        graph.link("src", "sink")
    elif kind == "buffered":
        graph.link("src", "sink", chain=False)
    else:
        graph.link("src", "sink", partitioning=FieldsPartitioning(["key"]))
    return graph


def test_a_refused_emit_leaves_everything_as_it_was_on_every_leg_kind():
    total = 60
    expected = [(f"k{s % 7}", s, X32, s) for s in range(total)]
    for kind, leg_type in (
        ("chained", _ChainedLeg),
        ("buffered", None),
        ("keyed", None),
    ):
        seen, rows = [], []
        with NeptuneRuntime() as rt:
            handle = rt.submit(_refusing_graph(kind, total, seen, rows))
            assert handle.await_completion(timeout=30), kind
            (out,) = handle._job.instances["src"][0].out_links["default"]
            legs = out.buffers
            assert not handle.failures, (kind, handle.failures)
        assert len(legs) == (4 if kind == "keyed" else 1)
        assert all(isinstance(leg, _ChainedLeg) == (leg_type is not None) for leg in legs)
        # Refused under the field's name; the legs, the packet's values
        # (x not rounded) and its lease exactly as they were.
        assert len(seen) == total // 4, kind
        for outcome in seen:
            message, legs_unchanged, values_unchanged, still_leased = outcome
            assert "'n'" in message and "int32" in message, (kind, message)
            assert legs_unchanged and values_unchanged and still_leased, (kind, outcome)
        # Only the good rows, each once, in order on every instance.
        assert sorted(values for _, values in rows) == sorted(expected), kind
        for instance in {index for index, _ in rows}:
            seqs = [values[1] for index, values in rows if index == instance]
            assert seqs == sorted(seqs), kind


class _TwoStreams(StreamSource):
    """Leases from both streams by name; every third row also goes out
    on ``side``.  Notes what a stream that is not there raises."""

    def __init__(self, total, errors, leases):
        super().__init__()
        self.total = total
        self.errors = errors
        self.leases = leases
        self.seq = 0

    def output_schema(self, stream):
        return RECORD if stream == "default" else SIDE

    def generate(self, ctx):
        seq = self.seq
        if seq == 0:
            probe = ctx.new_packet("side").set_at(0, -1).set_at(1, "probe")
            self.leases["src"] += 1
            for call in (
                lambda: ctx.emit(probe),
                lambda: ctx.emit(probe, "nope"),
                lambda: ctx.new_packet(),
                lambda: ctx.new_packet("nope"),
            ):
                try:
                    call()
                except NeptuneError as exc:
                    self.errors.append(str(exc))
        if seq >= self.total:
            ctx.finish()
            return
        self.seq += 1
        pkt = ctx.new_packet("default")
        self.leases["src"] += 1
        pkt.set_at(0, f"k{seq % 5}").set_at(1, seq).set_at(2, seq / 8).set_at(3, -seq)
        ctx.emit(pkt, "default")
        if seq % 3 == 0:
            side = ctx.new_packet("side")
            self.leases["src"] += 1
            ctx.emit(side.set_at(0, seq).set_at(1, f"t{seq}"), "side")


class _Relay(StreamProcessor):
    def __init__(self, leases):
        super().__init__()
        self.leases = leases

    def output_schema(self, stream):
        return RECORD

    def process(self, packet, ctx):
        out = ctx.new_packet()
        self.leases["relay"] += 1
        for i in range(4):
            out.set_at(i, packet.get_at(i))
        ctx.emit(out)


class _Terminal(_Collect):
    """A sink that notes what emitting with no out-links raises."""

    def __init__(self, rows, errors):
        super().__init__(rows)
        self.errors = errors

    def process(self, packet, ctx):
        if not self.rows:
            for call in (lambda: ctx.emit(packet), lambda: ctx.new_packet()):
                try:
                    call()
                except NeptuneError as exc:
                    self.errors.append(str(exc))
        super().process(packet, ctx)


def _two_stream_run(observer):
    rows, side_rows, errors = [], [], []
    leases = {"src": 0, "relay": 0}
    graph = StreamProcessingGraph("streams", config=NeptuneConfig(buffer_capacity=256))
    graph.add_source("src", lambda: _TwoStreams(300, errors, leases))
    graph.add_processor("relay", lambda: _Relay(leases))
    graph.add_processor("sink", lambda: _Terminal(rows, errors))
    graph.add_processor("side", lambda: _Collect(side_rows), parallelism=2)
    graph.link("src", "relay")  # chained
    graph.link("relay", "sink", chain=False)
    graph.link("src", "side", stream="side")
    with NeptuneRuntime(observer=observer) as rt:
        handle = rt.submit(graph)
        assert handle.await_completion(timeout=30) and not handle.failures
        job = handle._job
    legs = job.instances["src"][0].out_links["default"][0].buffers
    assert [type(leg) for leg in legs] == [_ChainedLeg]
    pools = {}
    for name in ("src", "relay"):
        (inst,) = job.instances[name]
        pools[name] = sum(free.created + free.reused for free in inst._free_lists.values())
    return rows, side_rows, errors, pools, leases


def test_traced_and_untraced_senders_deliver_the_same_rows():
    observer = RuntimeObserver(sample_every=1)
    traced = _two_stream_run(observer)
    untraced = _two_stream_run(None)
    assert observer.collector.traces()  # the traced run did trace
    for run in (traced, untraced):
        rows, side_rows, errors, pools, leases = run
        assert [values[1] for _, values in rows] == list(range(300))
        assert sorted(values[0] for _, values in side_rows) == list(range(0, 300, 3))
        # Every lease came from a free list: made or reused.
        assert pools == leases
        assert errors == [
            "streams/src[0]: multiple outgoing streams ['default', 'side']; name one explicitly",
            "streams/src[0]: no outgoing stream 'nope'; declared: ['default', 'side']",
            "streams/src[0]: multiple outgoing streams ['default', 'side']; name one explicitly",
            "streams/src[0]: no outgoing stream 'nope'; declared: ['default', 'side']",
            "streams/sink[0]: emit with no outgoing links",
            "streams/sink[0]: emit with no outgoing links",
        ]
    assert traced[0] == untraced[0]
    assert sorted(traced[1]) == sorted(untraced[1])


class _Counting(PartitioningScheme):
    name = "counting-test"
    calls: list = []

    def route(self, packet, n_instances):
        _Counting.calls.append(n_instances)
        return (0,)


class _Indexed(StreamSource):
    """Emits ``total`` rows whose ``n`` is the receiver's index; with
    ``refused`` a list, every fifth first names an instance that is not
    there."""

    def __init__(self, total, refused):
        super().__init__()
        self.total = total
        self.refused = refused
        self.seq = 0

    def output_schema(self, stream):
        return RECORD

    def generate(self, ctx):
        seq = self.seq
        if seq >= self.total:
            ctx.finish()
            return
        self.seq += 1
        pkt = ctx.new_packet().set_at(0, "k").set_at(1, seq).set_at(2, 0.5).set_at(3, 0)
        if self.refused is not None and seq % 5 == 0:
            try:
                ctx.emit(pkt.set_at(3, 1))
            except GraphValidationError:
                self.refused.append(seq)
            pkt.set_at(3, 0)
        ctx.emit(pkt)


def test_a_scheme_with_a_choice_to_make_is_asked_even_for_one_receiver():
    _Counting.calls.clear()
    for partitioning in (_Counting(), DirectPartitioning("n")):
        rows = []
        refused = [] if isinstance(partitioning, DirectPartitioning) else None
        graph = StreamProcessingGraph("asked")
        graph.add_source("src", lambda: _Indexed(40, refused))
        graph.add_processor("sink", lambda: _Collect(rows))
        graph.link("src", "sink", partitioning=partitioning, chain=False)
        with NeptuneRuntime() as rt:
            handle = rt.submit(graph)
            assert handle.await_completion(timeout=30) and not handle.failures
        assert [values[1] for _, values in rows] == list(range(40))
        if refused is not None:
            assert refused == list(range(0, 40, 5))
        else:
            assert _Counting.calls == [1] * 40
