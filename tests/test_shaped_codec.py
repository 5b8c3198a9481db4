"""Shape-compiled variable-width records.

A compiled ``PacketCodec`` packs a record whose variable-width fields
have byte lengths ``(9, 7)`` with the fixed layout ``<I9s...I7s`` and
decodes by speculating the previous record's layout.  Everything here
is stated against the per-step path it shortcuts: the reference codec
(``compiled=False``) for bytes and values, and the compiled codec with
shaping switched off for error types and messages.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import PacketCodec, serde
from repro.core.buffering import StreamBuffer
from repro.core.fieldtypes import FieldType
from repro.core.packet import PacketSchema
from repro.util.errors import SerializationError

_FIXED = [
    FieldType.BOOL,
    FieldType.INT32,
    FieldType.INT64,
    FieldType.FLOAT32,
    FieldType.FLOAT64,
]
_VARIABLE = [
    FieldType.STRING,
    FieldType.BYTES,
    FieldType.FLOAT64_LIST,
    FieldType.INT64_LIST,
]
_I64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
_VALUES = {
    FieldType.BOOL: st.booleans(),
    FieldType.INT32: st.integers(min_value=-(2**31), max_value=2**31 - 1),
    FieldType.INT64: _I64,
    FieldType.FLOAT32: st.floats(width=32, allow_nan=False),
    FieldType.FLOAT64: st.floats(allow_nan=False),
    # "" and non-ASCII (byte length != character length) included.
    FieldType.STRING: st.one_of(
        st.just(""), st.text(max_size=12), st.text(alphabet="aé水🌊", max_size=6)
    ),
    FieldType.BYTES: st.one_of(
        st.binary(max_size=12),
        st.binary(max_size=12).map(bytearray),
        st.binary(max_size=12).map(memoryview),
    ),
    FieldType.FLOAT64_LIST: st.one_of(
        st.lists(st.floats(allow_nan=False), max_size=5),
        st.lists(st.integers(min_value=-1000, max_value=1000), max_size=5).map(tuple),
    ),
    FieldType.INT64_LIST: st.lists(_I64, max_size=5),
}


@st.composite
def shaped_cases(draw):
    """A schema with at least one variable-width field among fixed
    runs, and a batch whose shape changes ``every`` record, ``never``,
    or ``once`` in the middle."""
    types = draw(st.lists(st.sampled_from(_FIXED + _VARIABLE), min_size=1, max_size=7))
    types.insert(
        draw(st.integers(min_value=0, max_value=len(types))),
        draw(st.sampled_from(_VARIABLE)),
    )
    schema = PacketSchema([(f"f{i}", t) for i, t in enumerate(types)])
    variable = [name for name, t in schema if t in _VARIABLE]
    mode = draw(st.sampled_from(["every", "never", "once"]))
    size = draw(st.integers(min_value=2, max_value=8))
    rows = [{name: draw(_VALUES[t]) for name, t in schema} for _ in range(size)]
    if mode != "every":
        # Records keep the variable-width values of the first record
        # (of the middle one, from there on, for "once").
        for i, row in enumerate(rows):
            donor = rows[size // 2] if mode == "once" and i >= size // 2 else rows[0]
            for name in variable:
                row[name] = donor[name]
    return schema, [schema.new_packet(**row) for row in rows]


def _plain(values):
    """Decoded rows compare as plain data (bytearray/memoryview BYTES
    and tuple lists were legal inputs; bytes and lists come back)."""
    return tuple(
        bytes(v) if isinstance(v, (bytearray, memoryview))
        else list(v) if isinstance(v, tuple)
        else v
        for v in values
    )


def _unshaped(schema):
    """The compiled codec with shaping off: the per-step path alone."""
    codec = PacketCodec(schema)
    codec.pack = None
    return codec


def _outcome(fn):
    """What ``fn()`` returned, or the type and message it raised."""
    try:
        return ("ok", fn())
    except Exception as exc:  # noqa: BLE001 - the point is to compare them
        return (type(exc), str(exc))


class TestSameBytesSameValues:
    @settings(max_examples=150, deadline=None)
    @given(shaped_cases())
    def test_every_encode_entry_point_matches_the_reference(self, case):
        schema, batch = case
        reference = PacketCodec(schema, compiled=False)
        records = [reference.encode(p) for p in batch]
        codec = PacketCodec(schema)
        assert codec.encode_batch(batch) == b"".join(records)
        assert [codec.encode(p) for p in batch] == records
        assert [bytes(codec.encode_view(p)) for p in batch] == records
        assert [bytes(codec.record(p._values)) for p in batch] == records
        out = bytearray(b"kept")
        assert [codec.encode_into(p, out) for p in batch] == [len(r) for r in records]
        assert out == b"kept" + b"".join(records)
        flushes = []
        buf = StreamBuffer(
            capacity=1 << 30,
            sink=lambda body, count: flushes.append((bytes(body), count)),
            max_delay=3600.0,
        )
        for p in batch:
            buf.append_packet(codec, p)
        buf.flush()
        assert flushes == [(b"".join(records), len(batch))]

    @settings(max_examples=150, deadline=None)
    @given(shaped_cases())
    def test_decode_matches_the_reference(self, case):
        schema, batch = case
        reference = PacketCodec(schema, compiled=False)
        body = reference.encode_batch(batch)
        expected = [p.values for p in reference.iter_decode(body, count=len(batch))]
        assert expected == [_plain(p.values) for p in batch]
        codec = PacketCodec(schema)
        # Twice: the second pass starts from the layout the first left.
        for _ in range(2):
            for reuse in (True, False):
                got = [
                    p.values
                    for p in codec.iter_decode(body, count=len(batch), reuse=reuse)
                ]
                assert got == expected
                assert [type(v) for row in got for v in row] == [
                    type(v) for row in expected for v in row
                ]

    def test_speculation_stops_after_consecutive_misses_and_resumes(self):
        schema = PacketSchema([("s", FieldType.STRING), ("n", FieldType.INT32)])
        codec = PacketCodec(schema)
        ragged = [schema.new_packet(s="x" * i, n=i) for i in range(40)]
        steady = [schema.new_packet(s="steady", n=i) for i in range(40)]
        for batch in (ragged, steady, ragged, steady):
            body = PacketCodec(schema, compiled=False).encode_batch(batch)
            got = [p.values for p in codec.iter_decode(body, count=len(batch))]
            assert got == [p.values for p in batch]
        # Only the records decoded before a batch gave up were learnt.
        assert len(codec._layouts) <= 2 * serde._SPECULATION_MISSES + 1
        assert codec._shape == (6,)


MIXED = PacketSchema(
    [
        ("id", FieldType.STRING),
        ("n", FieldType.INT32),
        ("blob", FieldType.BYTES),
        ("xs", FieldType.FLOAT64_LIST),
        ("tag", FieldType.STRING),
    ]
)


def _mixed(i, id_="sensor-01", tag="ok"):
    return MIXED.new_packet(id=id_, n=i, blob=b"\x00\x01", xs=[1.0, 2.0], tag=tag)


class TestDecodeErrors:
    """Speculation never changes what a bad body raises, or when."""

    def _decode(self, codec, body, count):
        return [p.values for p in codec.iter_decode(body, count=count)]

    def _warm(self):
        codec = PacketCodec(MIXED)
        warm = codec.encode_batch([_mixed(0)])
        self._decode(codec, warm, 1)
        assert codec._layout is not None
        return codec

    @pytest.mark.parametrize("count", [None, 3])
    def test_every_cut_of_a_batch_raises_what_the_per_step_path_raises(
        self, count, monkeypatch
    ):
        body = PacketCodec(MIXED).encode_batch(
            [_mixed(1), _mixed(2), _mixed(3, id_="sensor-002", tag="")]
        )
        shaped = self._warm()
        expected = []
        with monkeypatch.context() as patch:
            patch.setattr(serde, "_SPECULATION_MISSES", 0)  # never speculate
            per_step = PacketCodec(MIXED)
            for cut in range(len(body) + 1):
                expected.append(
                    _outcome(lambda: self._decode(per_step, body[:cut], count))
                )
            assert per_step._layout is None
        for cut in range(len(body) + 1):
            got = _outcome(lambda: self._decode(shaped, body[:cut], count))
            assert got == expected[cut], f"cut at {cut}"
        assert expected[-1][0] == "ok" and expected[0] != expected[-1]
        assert {kind for kind, _ in expected[1:-1]} - {"ok"} == {SerializationError}

    @pytest.mark.parametrize("extra", [b"\x00", b"\x09\x00\x00\x00sens", b"\xff" * 70])
    @pytest.mark.parametrize("count", [None, 2])
    def test_overlong_bodies_raise_what_the_per_step_path_raises(
        self, extra, count, monkeypatch
    ):
        body = PacketCodec(MIXED).encode_batch([_mixed(1), _mixed(2)]) + extra
        got = _outcome(lambda: self._decode(self._warm(), body, count))
        monkeypatch.setattr(serde, "_SPECULATION_MISSES", 0)
        assert got == _outcome(lambda: self._decode(PacketCodec(MIXED), body, count))
        assert got[0] is SerializationError

    def test_a_lying_length_prefix_is_not_trusted(self):
        # Same size, same layout, but the first prefix claims 8 bytes:
        # the speculated unpack fits, and must still be refused.
        codec = self._warm()
        body = bytearray(codec.encode_batch([_mixed(1), _mixed(2)]))
        size = len(body) // 2
        assert body[size : size + 4] == b"\x09\x00\x00\x00"
        body[size] = 8
        per_step = _outcome(
            lambda: self._decode(PacketCodec(MIXED, compiled=False), bytes(body), 2)
        )
        assert per_step[0] != "ok"
        got = _outcome(lambda: self._decode(codec, bytes(body), 2))
        assert got[0] is per_step[0]

    def test_invalid_utf8_raises_what_the_per_step_path_raises(self):
        codec = self._warm()
        body = bytearray(codec.encode_batch([_mixed(1)]))
        body[4] = 0xFF  # first byte of "sensor-01"
        expected = _outcome(
            lambda: self._decode(PacketCodec(MIXED, compiled=False), bytes(body), 1)
        )
        assert expected[0] is UnicodeDecodeError
        assert _outcome(lambda: self._decode(codec, bytes(body), 1)) == expected


class TestFailedEncode:
    """A record the shaped pack cannot make is replayed per step: same
    error, and nothing of it left behind."""

    def _bad(self, kind):
        pkt = _mixed(5)
        if kind == "int32_out_of_range_after_a_string":
            pkt._values[1] = 2**31
        elif kind == "bytes_in_a_string_field":
            pkt._values[4] = b"tag"
        elif kind == "str_in_a_list":
            pkt._values[3] = [1.0, "two"]
        else:
            pkt._values[2] = None
        return pkt

    @pytest.mark.parametrize(
        "kind",
        [
            "int32_out_of_range_after_a_string",
            "bytes_in_a_string_field",
            "str_in_a_list",
            "none",
        ],
    )
    def test_mid_batch_failure_leaves_out_and_buffer_untouched(self, kind):
        bad = self._bad(kind)
        expected = _outcome(lambda: _unshaped(MIXED).encode_into(bad, bytearray()))
        assert expected[0] is SerializationError
        codec = PacketCodec(MIXED)
        good = [_mixed(i) for i in range(3)]
        out = bytearray()
        for pkt in good[:2]:
            codec.encode_into(pkt, out)
        before = bytes(out)
        assert _outcome(lambda: codec.encode_into(bad, out)) == expected
        assert out == before
        codec.encode_into(good[2], out)
        assert out == PacketCodec(MIXED, compiled=False).encode_batch(good)

        flushes = []
        buf = StreamBuffer(
            capacity=1 << 30,
            sink=lambda body, count: flushes.append((bytes(body), count)),
            max_delay=3600.0,
        )
        for pkt in good[:2]:
            buf.append_packet(codec, pkt)
        state = (buf.pending_bytes, buf.pending_count, buf.next_deadline())
        assert _outcome(lambda: buf.append_packet(codec, bad)) == expected
        assert (buf.pending_bytes, buf.pending_count, buf.next_deadline()) == state
        buf.append_packet(codec, good[2])
        buf.flush()
        assert flushes == [(bytes(out), 3)]

    def test_inputs_only_the_per_step_path_accepts_still_encode(self):
        # BYTES takes anything ``bytearray +=`` takes; the shaped pack
        # takes bytes, bytearray and flat byte views, and hands the
        # rest over rather than guess.
        schema = PacketSchema([("b", FieldType.BYTES), ("n", FieldType.INT32)])
        codec, reference = PacketCodec(schema), PacketCodec(schema, compiled=False)
        wide = memoryview(b"\x01\x00\x02\x00").cast("H")  # 2 items, 4 bytes
        for value in ([1, 2, 3], wide, memoryview(b"abcdef")[::2]):
            pkt = schema.new_packet(n=1)
            pkt._values[0] = value
            expected = _outcome(lambda: reference.encode(pkt))
            assert _outcome(lambda: codec.encode(pkt)) == expected


class TestLayoutCacheBound:
    def test_cache_stops_at_its_bound_and_shaping_backs_off(self):
        schema = PacketSchema([("s", FieldType.STRING), ("n", FieldType.INT64)])
        codec, reference = PacketCodec(schema), PacketCodec(schema, compiled=False)
        limit = serde._LAYOUT_CACHE_LIMIT

        def same_bytes(length):
            pkt = schema.new_packet(s="x" * length, n=length)
            assert codec.encode(pkt) == reference.encode(pkt)

        for length in range(limit):
            same_bytes(length)
        assert len(codec._layouts) == limit
        # Unseen shapes get throwaway layouts; the cache does not grow.
        for length in range(limit, limit + serde._THROWAWAY_LIMIT - 1):
            same_bytes(length)
            assert codec.pack is not None
        assert len(codec._layouts) == limit
        # One more and the codec stops shaping for a while ...
        same_bytes(limit + serde._THROWAWAY_LIMIT)
        assert codec.pack is None
        for _ in range(serde._UNSHAPED_RECORDS - 1):
            same_bytes(3)
        assert codec.pack is None
        # ... then tries again, with the cache it had.
        same_bytes(3)
        assert codec.pack is not None
        same_bytes(4)
        assert len(codec._layouts) == limit and codec.pack is not None

    def test_decode_side_cache_is_bounded_too(self):
        schema = PacketSchema([("s", FieldType.STRING)])
        codec = PacketCodec(schema)
        reference = PacketCodec(schema, compiled=False)
        for start in range(0, 2 * serde._LAYOUT_CACHE_LIMIT, 2):
            batch = [schema.new_packet(s="y" * (start + k)) for k in (0, 0, 1, 1)]
            body = reference.encode_batch(batch)
            assert [p.values for p in codec.iter_decode(body, count=4)] == [
                p.values for p in batch
            ]
        assert len(codec._layouts) == serde._LAYOUT_CACHE_LIMIT
