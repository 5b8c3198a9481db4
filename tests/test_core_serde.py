"""Tests for the reusable packet codec (object reuse, §III-B3)."""

import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import FieldType, PacketCodec, PacketSchema, StreamPacket
from repro.core.buffering import StreamBuffer
from repro.util.errors import SerializationError

SCHEMA = PacketSchema(
    [
        ("ts", FieldType.INT64),
        ("name", FieldType.STRING),
        ("reading", FieldType.FLOAT64),
    ]
)


def make(ts, name, reading):
    return SCHEMA.new_packet(ts=ts, name=name, reading=reading)


class TestEncodeDecode:
    def test_single_roundtrip(self):
        codec = PacketCodec(SCHEMA)
        pkt = make(123, "valve-1", 0.75)
        body = codec.encode(pkt)
        (decoded,) = codec.iter_decode(body, count=1, reuse=False)
        assert decoded == pkt

    def test_batch_roundtrip_fresh(self):
        codec = PacketCodec(SCHEMA)
        pkts = [make(i, f"s{i}", i / 7) for i in range(50)]
        body = codec.encode_batch(pkts)
        out = list(codec.iter_decode(body, count=50, reuse=False))
        assert out == pkts

    def test_batch_reuse_yields_same_object(self):
        codec = PacketCodec(SCHEMA)
        body = codec.encode_batch([make(1, "a", 0.0), make(2, "b", 1.0)])
        seen_ids = set()
        values = []
        for pkt in codec.iter_decode(body, count=2, reuse=True):
            seen_ids.add(id(pkt))
            values.append(pkt.to_dict())
        assert len(seen_ids) == 1  # the pooled packet is reused
        assert values == [
            {"ts": 1, "name": "a", "reading": 0.0},
            {"ts": 2, "name": "b", "reading": 1.0},
        ]

    def test_reuse_clone_detaches(self):
        codec = PacketCodec(SCHEMA)
        body = codec.encode_batch([make(1, "a", 0.0), make(2, "b", 1.0)])
        retained = [p.clone() for p in codec.iter_decode(body, count=2, reuse=True)]
        assert [p["ts"] for p in retained] == [1, 2]

    def test_count_mismatch_detected(self):
        codec = PacketCodec(SCHEMA)
        body = codec.encode_batch([make(1, "a", 0.0)])
        with pytest.raises(SerializationError, match="declared 2"):
            list(codec.iter_decode(body, count=2))

    def test_incomplete_packet_rejected(self):
        codec = PacketCodec(SCHEMA)
        pkt = StreamPacket(SCHEMA).set("ts", 1)
        with pytest.raises(SerializationError, match="unset fields"):
            codec.encode(pkt)

    def test_schema_mismatch_rejected(self):
        other = PacketSchema([("x", FieldType.INT64)])
        codec = PacketCodec(SCHEMA)
        with pytest.raises(SerializationError, match="does not match"):
            codec.encode(other.new_packet(x=1))

    def test_truncated_body_rejected(self):
        codec = PacketCodec(SCHEMA)
        body = codec.encode(make(1, "abc", 0.5))
        with pytest.raises(SerializationError):
            list(codec.iter_decode(body[:-3], count=1))

    def test_counters(self):
        codec = PacketCodec(SCHEMA)
        body = codec.encode_batch([make(i, "x", 0.0) for i in range(5)])
        list(codec.iter_decode(body, count=5))
        assert codec.packets_encoded == 5
        assert codec.packets_decoded == 5

    def test_encode_into_returns_size(self):
        codec = PacketCodec(SCHEMA)
        out = bytearray()
        n = codec.encode_into(make(1, "ab", 0.0), out)
        # ts and reading, then the dictionary of one string and its
        # one u8 index.
        assert n == len(out) == 8 + 8 + 4 + (4 + 2) + 1

    def test_encode_view_roundtrip(self):
        codec = PacketCodec(SCHEMA)
        pkt = make(7, "v", 0.25)
        view = codec.encode_view(pkt)
        assert bytes(view) == codec.encode(pkt)

    def test_encode_survives_a_held_view(self):
        # A frame holder (the sampling profiler walking
        # sys._current_frames, a debugger, a stored traceback) can keep
        # a previous encode_view() result alive past its contract
        # window.  A bytearray with live exports cannot be resized, so
        # the codec must retire the old scratch instead of raising
        # BufferError on the data plane.
        codec = PacketCodec(SCHEMA)
        first = make(1, "held", 0.5)
        held = codec.encode_view(first)
        expected_held = bytes(held)
        second = make(2, "next", 1.5)
        for encode_again in (
            codec.encode_view,
            codec.encode,
            lambda p: codec.encode_batch([p]),
        ):
            out = encode_again(second)  # must not raise BufferError
            assert bytes(out) == codec.encode(second)
        # The retired buffer stays alive through the export: the held
        # view still reads the bytes it was handed.
        assert bytes(held) == expected_held


LIST_SCHEMA = PacketSchema(
    [("vals", FieldType.FLOAT64_LIST), ("tags", FieldType.INT64_LIST), ("blob", FieldType.BYTES)]
)


class TestVariableWidth:
    def test_lists_and_bytes(self):
        codec = PacketCodec(LIST_SCHEMA)
        pkt = LIST_SCHEMA.new_packet(vals=[1.5, 2.5], tags=[7, 8, 9], blob=b"\x00\x01")
        (decoded,) = codec.iter_decode(codec.encode(pkt), count=1, reuse=False)
        assert decoded == pkt


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=-(2**63), max_value=2**63 - 1),
            st.text(max_size=30),
            st.floats(allow_nan=False, allow_infinity=False),
        ),
        max_size=30,
    )
)
def test_batch_roundtrip_property(rows):
    codec = PacketCodec(SCHEMA)
    pkts = [make(*row) for row in rows]
    body = codec.encode_batch(pkts)
    assert list(codec.iter_decode(body, count=len(rows), reuse=False)) == pkts

FIXED_SCHEMA = PacketSchema(
    [("a", FieldType.INT32), ("b", FieldType.INT64), ("c", FieldType.FLOAT64)]
)


def _buffer(flushes):
    return StreamBuffer(
        capacity=1 << 30,
        sink=lambda body, count: flushes.append((bytes(body), count)),
        max_delay=3600.0,
    )


class TestEncodeExceptionSafety:
    """Regression: a mid-record encode failure must not strand partial
    bytes in the shared stream buffer (they corrupt every later packet
    on the link)."""

    @pytest.mark.parametrize("compiled", [True, False])
    def test_failed_encode_leaves_no_partial_bytes(self, compiled):
        codec = PacketCodec(SCHEMA, compiled=compiled)
        flushes = []
        buf = _buffer(flushes)
        good = [make(1, "ok", 0.5), make(2, "after", 1.5)]
        buf.append_packet(codec, good[0])
        clean = (buf.pending_bytes, buf.pending_count)
        # int64 range is checked at encode time, and the string is new
        # to the batch's dictionary.
        bad = SCHEMA.new_packet(ts=2**70, name="boom", reading=1.0)
        with pytest.raises(SerializationError):
            buf.append_packet(codec, bad)
        assert (buf.pending_bytes, buf.pending_count) == clean, "partial record left"
        buf.append_packet(codec, good[1])
        buf.flush()
        ((body, count),) = flushes
        assert body == PacketCodec(SCHEMA, compiled=False).encode_batch(good)
        decoded = list(codec.iter_decode(body, count=count, reuse=False))
        assert decoded == good

    @pytest.mark.parametrize("compiled", [True, False])
    def test_bad_list_element_after_length_prefix(self, compiled):
        # The bad element is in the second variable-width column; the
        # first one's cells must not be kept either.
        codec = PacketCodec(LIST_SCHEMA, compiled=compiled)
        flushes = []
        buf = _buffer(flushes)
        good = LIST_SCHEMA.new_packet(vals=[1.0], tags=[1, 2], blob=b"ok")
        buf.append_packet(codec, good)
        clean = (buf.pending_bytes, buf.pending_count)
        bad = LIST_SCHEMA.new_packet(vals=[0.5], tags=[1, 2**70], blob=b"x")
        with pytest.raises(SerializationError, match="'tags'"):
            buf.append_packet(codec, bad)
        assert (buf.pending_bytes, buf.pending_count) == clean
        buf.append_packet(codec, good)
        buf.flush()
        ((body, count),) = flushes
        assert body == PacketCodec(LIST_SCHEMA, compiled=False).encode_batch([good, good])
        decoded = list(codec.iter_decode(body, count=count, reuse=False))
        assert decoded == [good, good]


class TestEagerCountValidation:
    """Regression: a consumer that stops iterating early (operator
    raising mid-batch) must still observe a short/corrupt batch."""

    def test_fixed_schema_short_body_raises_before_first_yield(self):
        codec = PacketCodec(FIXED_SCHEMA)
        pkt = FIXED_SCHEMA.new_packet(a=1, b=2, c=3.0)
        body = codec.encode_batch([pkt, pkt])
        it = codec.iter_decode(body, count=3)
        with pytest.raises(SerializationError, match="declared 3"):
            next(it)  # exact-size check fires before any record decodes

    def test_variable_schema_short_body_raises_at_last_record(self):
        codec = PacketCodec(SCHEMA)
        body = codec.encode_batch([make(1, "a", 0.0), make(2, "b", 1.0)])
        it = codec.iter_decode(body, count=3)
        # The body of 2 declared as 3: the columns are read before the
        # first record is yielded, so the error surfaces then, not only
        # after full exhaustion.
        with pytest.raises(SerializationError, match="declared 3"):
            next(it)

    def test_variable_schema_overlong_body_raises_at_extra_record(self):
        codec = PacketCodec(SCHEMA)
        body = codec.encode_batch([make(1, "a", 0.0), make(2, "b", 1.0)])
        it = codec.iter_decode(body, count=1)
        with pytest.raises(SerializationError, match="declared 1"):
            next(it)


_VALUE_STRATEGIES = {
    FieldType.BOOL: st.booleans(),
    FieldType.INT32: st.integers(min_value=-(2**31), max_value=2**31 - 1),
    FieldType.INT64: st.integers(min_value=-(2**63), max_value=2**63 - 1),
    FieldType.FLOAT32: st.floats(width=32, allow_nan=False),
    FieldType.FLOAT64: st.floats(allow_nan=False),
    FieldType.STRING: st.text(max_size=20),
    FieldType.BYTES: st.binary(max_size=20),
    FieldType.FLOAT64_LIST: st.lists(st.floats(allow_nan=False), max_size=5),
    FieldType.INT64_LIST: st.lists(
        st.integers(min_value=-(2**63), max_value=2**63 - 1), max_size=5
    ),
}


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_compiled_codec_byte_identical_to_per_field(data):
    """The fused fixed-width-run codec is a pure optimization: byte-for-
    byte the same wire format as the per-field reference, decoding to
    the same values, across all FieldTypes and random schemas."""
    types = data.draw(
        st.lists(st.sampled_from(list(FieldType)), min_size=1, max_size=8)
    )
    schema = PacketSchema([(f"f{i}", t) for i, t in enumerate(types)])
    packets = []
    for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
        pkt = StreamPacket(schema)
        for i, ftype in enumerate(types):
            pkt.set_at(i, data.draw(_VALUE_STRATEGIES[ftype]))
        packets.append(pkt)
    compiled = PacketCodec(schema, compiled=True)
    legacy = PacketCodec(schema, compiled=False)
    body = compiled.encode_batch(packets)
    assert body == legacy.encode_batch(packets)
    via_compiled = list(compiled.iter_decode(body, count=len(packets), reuse=False))
    via_legacy = list(legacy.iter_decode(body, count=len(packets), reuse=False))
    assert via_compiled == via_legacy
    # Re-encoding the decoded packets reproduces the body on both paths
    # (catches float32 widening / bool canonicalization divergence).
    assert compiled.encode_batch(via_compiled) == body
    assert legacy.encode_batch(via_legacy) == body


#: Fixed-width-dominated record: the compiled codec's best case and the
#: shape the paper's sensing workloads have (ids + readings).
SENSOR_FIXED = PacketSchema(
    [
        ("valid", FieldType.BOOL),
        ("sensor", FieldType.INT32),
        ("seq", FieldType.INT64),
        ("ts", FieldType.FLOAT64),
        ("reading", FieldType.FLOAT64),
        ("temperature", FieldType.FLOAT32),
        ("station", FieldType.INT32),
        ("flags", FieldType.INT64),
    ]
)


def test_compiled_codec_beats_the_per_field_reference():
    """The point of the compiled codec: on a fixed-width-dominated
    record it encodes and decodes more than 1.2x faster than the
    per-field reference.  Best of 5 per side, sides interleaved, so
    machine drift hits both alike."""
    pkt = SENSOR_FIXED.new_packet(
        valid=True,
        sensor=1234,
        seq=2**40 + 7,
        ts=1_722_000_000.25,
        reading=21.75,
        temperature=3.5,
        station=-8,
        flags=0x5A5A,
    )
    body = PacketCodec(SENSOR_FIXED).encode_batch([pkt] * 1000)
    codecs = {c: PacketCodec(SENSOR_FIXED, compiled=c) for c in (True, False)}

    def encode(codec):
        out = bytearray()
        for _ in range(2000):
            codec.encode_into(pkt, out)

    def decode(codec):
        for _ in range(2):
            for _row in codec.iter_decode(body, count=1000, reuse=True):
                pass

    best = {}
    for _ in range(5):
        for compiled, codec in codecs.items():
            for op in (encode, decode):
                t0 = time.perf_counter()
                op(codec)
                elapsed = time.perf_counter() - t0
                key = (op.__name__, compiled)
                best[key] = min(best.get(key, elapsed), elapsed)
    assert best["encode", False] / best["encode", True] > 1.2
    assert best["decode", False] / best["decode", True] > 1.2
