"""The compiled link path: encode-and-append, batch decode, packet
leases without a lease table, and ``set_at``'s precomputed checks.

Each property is stated against the code it replaced or shortcuts: the
per-field reference codec (``PacketCodec(schema, compiled=False)``),
``PacketCodec.encode_into``'s errors, and ``validate_value``.
"""

import enum
import threading

import pytest
from hypothesis import given, settings, strategies as st
from test_property_roundtrip import schema_with_batches

from repro.core import (
    NeptuneConfig,
    NeptuneRuntime,
    PacketCodec,
    StreamProcessingGraph,
    StreamSource,
)
from repro.core.buffering import StreamBuffer
from repro.core.fieldtypes import FieldType, encode_field, validate_value
from repro.core.packet import PacketSchema, StreamPacket
from repro.core.runtime import _InLinkInfo, _local_leg
from repro.net import WatermarkChannel
from repro.util.errors import BackpressureTimeout, NeptuneError, SerializationError
from repro.workloads import CollectingSink


def _buffer(flushes, capacity=1 << 30):
    return StreamBuffer(
        capacity=capacity,
        sink=lambda body, count: flushes.append((bytes(body), count)),
        max_delay=3600.0,
    )


# -- (a) append_packet == reference codec; batch decode == per record --------


class TestAppendPacket:
    @settings(max_examples=80, deadline=None)
    @given(schema_with_batches())
    def test_accumulated_bytes_equal_reference_codec(self, case):
        schema, batch = case
        reference = PacketCodec(schema, compiled=False)
        flushes = []
        buf = _buffer(flushes)
        codec = PacketCodec(schema)
        for pkt in batch:
            assert buf.append_packet(codec, pkt) is False
        # Pending bytes are counted in row form: what the capacity
        # compares, so batches are cut where a row-major body would be.
        row_form = bytearray()
        for pkt in batch:
            for ftype, value in zip(schema.types, pkt.values):
                encode_field(ftype, value, row_form)
        assert buf.appended() == (len(batch), len(row_form))
        buf.flush()
        assert flushes == [(reference.encode_batch(batch), len(batch))]

    @settings(max_examples=80, deadline=None)
    @given(schema_with_batches())
    def test_batch_decode_equals_per_record_decode(self, case):
        schema, batch = case
        reference = PacketCodec(schema, compiled=False)
        body = reference.encode_batch(batch)
        expected = [p.values for p in reference.iter_decode(body, count=len(batch))]
        codec = PacketCodec(schema)
        for reuse in (True, False):
            got = [p.values for p in codec.iter_decode(body, count=len(batch), reuse=reuse)]
            assert got == expected
        fresh = list(codec.iter_decode(body, count=len(batch), reuse=False))
        assert len({id(p) for p in fresh}) == len(batch)

    def test_capacity_flush_hands_over_whole_records(self):
        schema = PacketSchema([("a", FieldType.INT64), ("b", FieldType.FLOAT64)])
        codec = PacketCodec(schema)
        flushes = []
        buf = _buffer(flushes, capacity=48)
        flushed = [
            buf.append_packet(codec, schema.new_packet(a=i, b=i / 2)) for i in range(7)
        ]
        assert flushed == [False, False, True, False, False, True, False]
        assert [count for _, count in flushes] == [3, 3]
        rows = [
            p.values for body, count in flushes for p in codec.iter_decode(body, count=count)
        ]
        assert rows == [(i, i / 2) for i in range(6)]
        assert buf.appended() == (7, 7 * 16)


FIXED = PacketSchema(
    [("seq", FieldType.INT64), ("level", FieldType.INT32), ("ok", FieldType.BOOL)]
)
MIXED = PacketSchema(
    [("seq", FieldType.INT64), ("tag", FieldType.STRING), ("level", FieldType.INT32)]
)


class TestBatchDecodeErrors:
    def _body(self, n):
        codec = PacketCodec(FIXED)
        return codec, codec.encode_batch(
            [FIXED.new_packet(seq=i, level=-i, ok=bool(i % 2)) for i in range(n)]
        )

    @pytest.mark.parametrize("declared", [2, 4])
    def test_declared_count_is_checked_before_the_first_yield(self, declared):
        codec, body = self._body(3)
        with pytest.raises(
            SerializationError,
            match=rf"batch declared {declared} packets \({declared * 13} bytes\), "
            r"body has 39 bytes",
        ):
            next(codec.iter_decode(body, count=declared))

    @pytest.mark.parametrize("cut", [1, 12])
    def test_truncated_record_raises_after_the_whole_ones(self, cut):
        codec, body = self._body(3)
        seen = []
        with pytest.raises(SerializationError, match="truncated record at offset 26"):
            for pkt in codec.iter_decode(body[:-cut]):
                seen.append(pkt.values)
        assert seen == [(0, 0, False), (1, -1, True)]

    def test_trailing_bytes_raise_after_the_whole_ones(self):
        codec, body = self._body(2)
        seen = []
        with pytest.raises(SerializationError, match="truncated record at offset 26"):
            for pkt in codec.iter_decode(body + b"\x00\x01"):
                seen.append(pkt.values)
        assert len(seen) == 2


# -- (b) a failed encode leaves the shared buffer exactly as it was ----------


def _bad_packets(schema):
    out_of_range = schema.new_packet(seq=1, level=2**31)
    if schema is MIXED:
        out_of_range.set("tag", "x")
    else:
        out_of_range.set("ok", True)
    unset = schema.new_packet(seq=2)
    other = PacketSchema([("x", FieldType.INT64)]).new_packet(x=3)
    return {"out_of_range": out_of_range, "unset": unset, "wrong_schema": other}


def _good(schema, i):
    if schema is MIXED:
        return schema.new_packet(seq=i, tag=f"t{i}", level=i)
    return schema.new_packet(seq=i, level=i, ok=True)


class TestFailedEncode:
    @pytest.mark.parametrize("schema", [FIXED, MIXED], ids=["fixed", "mixed"])
    @pytest.mark.parametrize("kind", ["out_of_range", "unset", "wrong_schema"])
    @pytest.mark.parametrize("already", [0, 2])
    def test_buffer_untouched_and_error_unchanged(self, schema, kind, already):
        bad = _bad_packets(schema)[kind]
        codec = PacketCodec(schema)
        with pytest.raises(Exception) as reference:
            codec.encode_into(bad, bytearray())
        flushes = []
        buf = _buffer(flushes)
        for i in range(already):
            buf.append_packet(codec, _good(schema, i))
        before = (buf.pending_bytes, buf.pending_count, buf.next_deadline())
        with pytest.raises(type(reference.value)) as raised:
            buf.append_packet(codec, bad)
        assert str(raised.value) == str(reference.value)
        assert (buf.pending_bytes, buf.pending_count, buf.next_deadline()) == before
        # The link carries on: later packets land after the earlier ones.
        buf.append_packet(codec, _good(schema, 7))
        buf.flush()
        ((body, count),) = flushes
        assert count == already + 1
        decoded = [p.values for p in codec.iter_decode(body, count=count)]
        assert decoded == [_good(schema, i).values for i in (*range(already), 7)]

    def test_messages_are_the_documented_ones(self):
        codec = PacketCodec(FIXED)
        buf = _buffer([])
        bad = _bad_packets(FIXED)
        with pytest.raises(SerializationError, match="int32 out of range"):
            buf.append_packet(codec, bad["out_of_range"])
        with pytest.raises(SerializationError, match=r"unset fields: \['level', 'ok'\]"):
            buf.append_packet(codec, bad["unset"])
        with pytest.raises(SerializationError, match="does not match codec schema"):
            buf.append_packet(codec, bad["wrong_schema"])

    def test_equal_schema_from_another_object_is_accepted(self):
        # Identity is only the fast answer; equality still decides.
        twin = PacketSchema(list(FIXED))
        assert twin is not FIXED
        buf = _buffer([])
        buf.append_packet(PacketCodec(FIXED), twin.new_packet(seq=1, level=2, ok=False))
        assert buf.pending_count == 1


# -- (c) packet leases: a packet remembers its free-list ----------------------


class _LeaseProbe(StreamSource):
    """Runs the lease scenarios inside a real execution and notes what
    it saw; every emitted packet carries a distinct ``seq``."""

    def __init__(self, seen):
        super().__init__()
        self.seen = seen

    def output_schema(self, stream):
        return FIXED

    @staticmethod
    def _fill(pkt, seq):
        return pkt.set_at(0, seq).set_at(1, 0).set_at(2, True)

    def generate(self, ctx):
        seen, fill = self.seen, self._fill
        free = ctx._free_lists[FIXED]
        a, b = ctx.new_packet(), ctx.new_packet()
        seen["two_live_are_distinct"] = a is not b and a._home is free is b._home
        ctx.emit(fill(a, 0))
        ctx.emit(fill(b, 1))
        seen["returned_once_each"] = [id(p) for p in free] == [id(a), id(b)]
        seen["returned_blank"] = a.values == (None, None, None) and a._home is None
        try:
            ctx.emit(a)
        except SerializationError as exc:
            seen["reemit_released"] = str(exc)
        seen["reemit_left_free_list_alone"] = len(free) == 2
        c = ctx.new_packet()
        seen["reused_lifo"] = c is b
        ctx.emit(fill(c, 2))
        # Contract violation, but it must not alias: a released packet
        # that is refilled and emitted again is not pooled twice.
        ctx.emit(fill(c, 3))
        seen["never_twice"] = len({id(p) for p in free}) == len(free) == 2
        mine = fill(StreamPacket(FIXED), 4)
        ctx.emit(mine)
        seen["user_built_untouched"] = mine.values == (4, 0, True) and len(free) == 2
        live = [ctx.new_packet() for _ in range(300)]
        for i, pkt in enumerate(live):
            ctx.emit(fill(pkt, 5 + i))
        seen["bounded"] = (len(free), free.created, free.overflow)
        ctx.finish()


def test_packet_lease_semantics():
    seen, store = {}, []
    graph = StreamProcessingGraph("leases", config=NeptuneConfig())
    graph.add_source("src", lambda: _LeaseProbe(seen))
    graph.add_processor("sink", lambda: CollectingSink(store, field="seq"))
    graph.link("src", "sink")
    with NeptuneRuntime() as rt:
        handle = rt.submit(graph)
        assert handle.await_completion(timeout=30)
        assert handle.failures == {}
        assert handle.metrics()["src"]["packets_out"] == 305
    assert store == list(range(305))
    assert seen.pop("reemit_released") == (
        "packet incomplete; unset fields: ['seq', 'level', 'ok']"
    )
    assert seen.pop("bounded") == (256, 300, 44)
    assert seen and all(v is True for v in seen.values()), seen


# -- (d) set_at accepts exactly what validate_value accepts -------------------


class _Colour(enum.IntEnum):
    RED = 1


class _Text(str):
    pass


_CANDIDATES = [
    True,
    False,
    0,
    -7,
    2**70,
    1.5,
    float("nan"),
    "s",
    _Text("sub"),
    b"b",
    bytearray(b"ba"),
    memoryview(b"mv"),
    [],
    [1, 2],
    [1.5, 2],
    [True],
    ["x"],
    (1, 2),
    (1.5,),
    None,
    _Colour.RED,
    {"a": 1},
    1 + 2j,
]


@pytest.mark.parametrize("ftype", list(FieldType), ids=lambda t: t.value)
def test_set_at_agrees_with_validate_value(ftype):
    schema = PacketSchema([("pad", FieldType.BOOL), ("f", ftype)])
    verdicts = {}
    for value in _CANDIDATES:
        pkt = StreamPacket(schema)
        try:
            pkt.set_at(1, value)
        except SerializationError as exc:
            accepted = False
            assert ftype.value in str(exc) and "'f'" in str(exc)
        else:
            accepted = True
            assert pkt.get_at(1) is value
        assert accepted == validate_value(ftype, value), (ftype, value)
        verdicts[repr(value)] = accepted
    # Not vacuous: every type takes something and refuses something,
    # and a bool never passes for a number.
    assert True in verdicts.values() and False in verdicts.values()
    if ftype not in (FieldType.BOOL,):
        assert verdicts["True"] is False


def test_reset_blanks_every_field():
    pkt = FIXED.new_packet(seq=1, level=2, ok=True)
    values = pkt._values
    assert pkt.reset() is pkt
    assert pkt._values is values and pkt.values == (None, None, None)
    assert not pkt.is_complete()


# -- (e) the local leg: what a same-resource hop promises its sender ---------


class TestLocalLeg:
    """The leg to a receiver on the same resource (on every deployment:
    a worker's co-located legs are this leg too)."""

    INFO = _InLinkInfo(PacketCodec(PacketSchema([("b", FieldType.BYTES)])), False)

    def _leg(self, channel, emit_timeout=None):
        deliver = _local_leg(7, channel, self.INFO, emit_timeout)
        return lambda body, born=0.0: deliver(body, 1, b"", born, None)

    def test_delivery_order(self):
        channel = WatermarkChannel(high_watermark=1 << 20)
        send = self._leg(channel)
        for i in range(10):
            # parked: the receiver recycles
            assert send(bytes([i]), born=100.0 + i) is True
        items = channel.drain()
        assert [frame.body for frame, _, _, _ in items] == [bytes([i]) for i in range(10)]
        assert [frame.seq for frame, _, _, _ in items] == list(range(10))
        assert {frame.link_id for frame, _, _, _ in items} == {7}
        assert all(info is self.INFO for _, _, info, _ in items)
        # The batch's age rides along untouched; the put time is the leg's own.
        assert [born for _, _, _, born in items] == [100.0 + i for i in range(10)]
        assert all(put_at != born for _, put_at, _, born in items)

    def test_blocks_on_gated_channel(self):
        channel = WatermarkChannel(high_watermark=10, low_watermark=1)
        send = self._leg(channel)
        send(b"0123456789")  # fills to the high watermark
        done = threading.Event()

        def sender():
            send(b"x")
            done.set()

        t = threading.Thread(target=sender)
        t.start()
        assert not done.wait(0.05)  # gated: the put must not complete
        channel.drain()
        assert done.wait(2.0)
        t.join(2.0)
        assert not t.is_alive()

    def test_gated_past_emit_timeout_raises_backpressure_timeout(self):
        channel = WatermarkChannel(high_watermark=1)
        send = self._leg(channel, emit_timeout=0.01)
        send(b"x")
        with pytest.raises(BackpressureTimeout, match="wire link 7.*emit_timeout=0.01"):
            send(b"y")

    def test_closed_channel_raises(self):
        channel = WatermarkChannel(high_watermark=10)
        channel.close()
        with pytest.raises(NeptuneError, match="destination channel closed during send"):
            self._leg(channel)(b"x")
