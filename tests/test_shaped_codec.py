"""Batch-shaped bodies: a fixed block and one column per variable-width
field (``repro.core.serde``).

Everything here is stated against the per-field reference codec
(``compiled=False``) for bytes, values and errors, against
``compile_as_decoded`` (what a chained leg hands over) for values, and
against hand-written bytes for the layout itself.
"""

import functools
import struct
import threading

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import PacketCodec
from repro.core.buffering import StreamBuffer
from repro.core.fieldtypes import FieldType, compile_as_decoded
from repro.core.packet import PacketSchema
from repro.net import TcpListener, TcpTransport
from repro.util.errors import SerializationError

from waiters import FrameCollector

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
def shaped_cases(draw, max_types=7, max_rows=8):
    """A schema with at least one variable-width field among fixed
    ones, and a batch whose variable-width values are drawn afresh
    ``every`` record, ``never`` change, or change ``once`` in the
    middle (dictionaries of many strings, of one, and of two)."""
    types = draw(
        st.lists(st.sampled_from(_FIXED + _VARIABLE), min_size=1, max_size=max_types)
    )
    types.insert(
        draw(st.integers(min_value=0, max_value=len(types))),
        draw(st.sampled_from(_VARIABLE)),
    )
    schema = PacketSchema([(f"f{i}", t) for i, t in enumerate(types)])
    variable = [name for name, t in schema if t in _VARIABLE]
    mode = draw(st.sampled_from(["every", "never", "once"]))
    size = draw(st.integers(min_value=2, max_value=max_rows))
    rows = [{name: draw(_VALUES[t]) for name, t in schema} for _ in range(size)]
    if mode != "every":
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


def _outcome(fn):
    """What ``fn()`` returned, or the type and message it raised."""
    try:
        return ("ok", fn())
    except Exception as exc:  # noqa: BLE001 - the point is to compare them
        return (type(exc), str(exc))


def _buffer(flushes):
    return StreamBuffer(
        capacity=1 << 30,
        sink=lambda body, count: flushes.append((bytes(body), count)),
        max_delay=3600.0,
    )


def _entries(codec, before=lambda buf: None):
    """``(buffer, its flushes, send)`` once per way into a buffer's
    generated append: ``append_packet``, and the bound append a
    generated sender calls (``StreamBuffer.appender``).  ``before(buf)``
    runs before either is generated."""
    out = []
    for bound in (False, True):
        flushes = []
        buf = _buffer(flushes)
        before(buf)
        if bound:
            send = functools.partial(buf.appender(codec), note=None)
        else:
            send = functools.partial(buf.append_packet, codec)
        out.append((buf, flushes, send))
    return out


def _state(buf):
    """Everything a refused append must leave as it was: bytes, count,
    dictionaries (and cells), ``born`` and the timer."""
    columns = [] if buf._columns is None else buf._columns._columns
    dictionaries = [
        (k, dict(index), list(cells), list(payloads))
        for k, (index, cells, payloads) in enumerate(columns)
        if index or cells or payloads
    ]
    return buf.pending_bytes, buf.pending_count, dictionaries, buf.born, buf.next_deadline()


class TestLayout:
    def test_an_all_fixed_batch_is_the_parents_bytes(self):
        # Golden bytes from the row-major codec this layout replaced:
        # a schema of fixed-width fields alone is laid out as before.
        schema = PacketSchema(
            [
                ("ok", FieldType.BOOL),
                ("level", FieldType.INT32),
                ("seq", FieldType.INT64),
                ("t", FieldType.FLOAT32),
                ("reading", FieldType.FLOAT64),
            ]
        )
        batch = [
            schema.new_packet(
                ok=i % 2 == 0, level=-i * 1000, seq=2**40 + i, t=i / 4, reading=-1.5 * i
            )
            for i in range(3)
        ]
        golden = (
            "010000000000000000000100000000000000000000000000800018fcffff0100000000"
            "0100000000803e000000000000f8bf0130f8ffff02000000000100000000003f000000"
            "00000008c0"
        )
        for compiled in (True, False):
            assert PacketCodec(schema, compiled=compiled).encode_batch(batch).hex() == golden

    def test_fixed_block_then_one_column_per_variable_width_field(self):
        schema = PacketSchema(
            [
                ("id", FieldType.STRING),
                ("n", FieldType.INT32),
                ("blob", FieldType.BYTES),
                ("xs", FieldType.INT64_LIST),
                ("ok", FieldType.BOOL),
            ]
        )
        batch = [
            schema.new_packet(id="a", n=1, blob=b"", xs=[7], ok=True),
            schema.new_packet(id="é", n=2, blob=b"zz", xs=[], ok=False),
            schema.new_packet(id="a", n=3, blob=b"y", xs=[8, 9], ok=True),
        ]
        expected = (
            struct.pack("<i?i?i?", 1, True, 2, False, 3, True)
            # id: two distinct strings in first-seen order, u8 indexes
            + struct.pack("<II", 2, 1) + b"a" + struct.pack("<I", 2) + "é".encode()
            + bytes([0, 1, 0])
            # blob: lengths, then payloads
            + struct.pack("<III", 0, 2, 1) + b"zzy"
            # xs: element counts, then the elements
            + struct.pack("<III", 1, 0, 2) + struct.pack("<qqq", 7, 8, 9)
        )
        for compiled in (True, False):
            codec = PacketCodec(schema, compiled=compiled)
            assert codec.encode_batch(batch) == expected
            assert [p.values for p in codec.iter_decode(expected, 3)] == [
                p.values for p in batch
            ]

    @pytest.mark.parametrize(
        ("distinct", "width"), [(256, 1), (257, 2), (65536, 2), (65537, 4)]
    )
    def test_the_index_width_follows_the_distinct_count(self, distinct, width):
        schema = PacketSchema([("s", FieldType.STRING)])
        batch = [schema.new_packet(s=str(i)) for i in range(distinct)]
        body = PacketCodec(schema).encode_batch(batch)
        dictionary = 4 + sum(4 + len(str(i)) for i in range(distinct))
        assert len(body) == dictionary + width * distinct
        assert [p["s"] for p in PacketCodec(schema).iter_decode(body, distinct)] == [
            str(i) for i in range(distinct)
        ]


class TestSameBytesSameValues:
    @settings(max_examples=150, deadline=None)
    @given(shaped_cases())
    def test_every_encode_entry_point_matches_the_reference(self, case):
        schema, batch = case
        reference = PacketCodec(schema, compiled=False)
        body = reference.encode_batch(batch)
        singles = [reference.encode(p) for p in batch]
        codec = PacketCodec(schema)
        assert codec.encode_batch(batch) == body
        assert [codec.encode(p) for p in batch] == singles
        assert [bytes(codec.encode_view(p)) for p in batch] == singles
        out = bytearray(b"kept")
        assert [codec.encode_into(p, out) for p in batch] == [len(s) for s in singles]
        assert out == b"kept" + b"".join(singles)
        for sender in (codec, reference):
            for buf, flushes, send in _entries(sender):
                for p in batch:
                    send(p)
                buf.flush()
                assert flushes == [(body, len(batch))]

    @settings(max_examples=150, deadline=None)
    @given(shaped_cases())
    def test_decode_matches_the_reference(self, case):
        schema, batch = case
        reference = PacketCodec(schema, compiled=False)
        body = reference.encode_batch(batch)
        expected = [p.values for p in reference.iter_decode(body, count=len(batch))]
        assert expected == [_plain(p.values) for p in batch]
        codec = PacketCodec(schema)
        for reuse in (True, False):
            got = [p.values for p in codec.iter_decode(body, count=len(batch), reuse=reuse)]
            assert got == expected
            assert [type(v) for row in got for v in row] == [
                type(v) for row in expected for v in row
            ]

    @settings(
        max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(st.data())
    def test_compiled_equals_reference_and_rows_equal_as_decoded(self, data):
        # Any of the nine types, up to 16 variable-width fields, up to
        # 300 rows whose strings repeat (few distinct) or do not.
        types = data.draw(
            st.lists(st.sampled_from(list(FieldType)), min_size=1, max_size=20).filter(
                lambda ts: sum(t in _VARIABLE for t in ts) <= 16
            )
        )
        schema = PacketSchema([(f"f{i}", t) for i, t in enumerate(types)])
        distinct = data.draw(st.sampled_from([3, 12]))
        pools = [
            data.draw(st.lists(_VALUES[t], min_size=1, max_size=distinct)) for t in types
        ]
        rng = data.draw(st.randoms(use_true_random=False))
        rows = [
            [rng.choice(pool) for pool in pools]
            for _ in range(data.draw(st.integers(min_value=1, max_value=300)))
        ]
        batch = [schema.new_packet(**dict(zip(schema.names, row))) for row in rows]
        body = PacketCodec(schema).encode_batch(batch)
        assert body == PacketCodec(schema, compiled=False).encode_batch(batch)
        for buf, flushes, send in _entries(PacketCodec(schema)):
            for p in batch:
                send(p)
            buf.flush()
            assert flushes == [(body, len(batch))]
        as_decoded = compile_as_decoded(schema.types)
        expected = []
        for row in rows:
            row = list(row)
            as_decoded(row)
            expected.append(tuple(row))
        assert [p.values for p in PacketCodec(schema).iter_decode(body, len(rows))] == expected


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


def _decode(codec, body, count):
    return [p.values for p in codec.iter_decode(body, count=count)]


def _both(body, count):
    """What the compiled codec and the reference make of ``body``."""
    return [
        _outcome(lambda: _decode(PacketCodec(MIXED, compiled=c), body, count))
        for c in (True, False)
    ]


class TestDecodeErrors:
    """A bad body is refused by name, the same way by both codecs."""

    @pytest.mark.parametrize("count", [2, 3])
    def test_every_cut_of_a_batch_raises_what_the_per_step_path_raises(self, count):
        body = PacketCodec(MIXED).encode_batch(
            [_mixed(1), _mixed(2), _mixed(3, id_="sensor-002", tag="")]
        )
        for cut in range(len(body) + 1):
            compiled, reference = _both(body[:cut], count)
            assert compiled == reference, f"cut at {cut}"
            if cut < len(body) or count == 2:
                assert compiled[0] is SerializationError, f"cut at {cut}"
        assert _both(body, 3)[0][0] == "ok"

    @pytest.mark.parametrize("extra", [b"\x00", b"\x09\x00\x00\x00sens", b"\xff" * 70])
    @pytest.mark.parametrize("count", [None, 2])
    def test_overlong_bodies_raise_what_the_per_step_path_raises(self, extra, count):
        # Without its count a variable-width body is refused too.
        body = PacketCodec(MIXED).encode_batch([_mixed(1), _mixed(2)]) + extra
        compiled, reference = _both(body, count)
        assert compiled == reference
        assert compiled[0] is SerializationError

    def test_a_lying_length_prefix_is_not_trusted(self):
        body = PacketCodec(MIXED).encode_batch([_mixed(1), _mixed(2)])
        fixed = 2 * 4
        # The id dictionary's one entry: u32 9, then "sensor-01".
        assert body[fixed + 4 : fixed + 8] == b"\x09\x00\x00\x00"
        blob_lengths = body.index(b"\x02\x00\x00\x00\x02\x00\x00\x00")
        for at, lie in ((fixed + 4, 8), (fixed + 4, 10), (blob_lengths, 1)):
            forged = bytearray(body)
            forged[at] = lie
            compiled, reference = _both(bytes(forged), 2)
            assert compiled == reference
            assert compiled[0] is SerializationError, (at, lie)

    def test_invalid_utf8_raises_what_the_per_step_path_raises(self):
        body = bytearray(PacketCodec(MIXED).encode_batch([_mixed(1)]))
        body[4 + 8] = 0xFF  # first byte of "sensor-01"
        compiled, reference = _both(bytes(body), 1)
        assert compiled == reference
        assert compiled[0] is SerializationError and "utf-8" in compiled[1]


class TestMalformedBodies:
    """Whatever a body holds, decoding it raises SerializationError or
    nothing: never IndexError, struct.error, UnicodeDecodeError or
    MemoryError."""

    @settings(max_examples=60, deadline=None)
    @given(shaped_cases(max_types=8, max_rows=6))
    def test_truncations_flips_and_trailing_bytes(self, case):
        schema, batch = case
        codec = PacketCodec(schema)
        body = codec.encode_batch(batch)
        count = len(batch)
        columns_at = count * sum(t.fixed_size or 0 for t in schema.types)

        def decode(data):
            return [p.values for p in codec.iter_decode(data, count=count)]

        for cut in range(len(body)):
            with pytest.raises(SerializationError):
                decode(body[:cut])
        for extra in (b"\x00", b"\xff" * 9):
            with pytest.raises(SerializationError):
                decode(body + extra)
        for at in range(columns_at, len(body)):
            for flip in (0x01, 0x80, 0xFF):
                forged = bytearray(body)
                forged[at] ^= flip
                try:
                    decode(bytes(forged))
                except SerializationError:
                    pass

    def test_a_distinct_count_past_the_batch_is_refused_before_reading_on(self):
        schema = PacketSchema([("s", FieldType.STRING)])
        body = struct.pack("<I", 0xFFFFFFFF) + b"\x00"
        with pytest.raises(SerializationError, match="dictionary of 4294967295 strings"):
            list(PacketCodec(schema).iter_decode(body, count=1))
        body = struct.pack("<II", 2, 0) + struct.pack("<I", 0) + b"\x00"
        with pytest.raises(SerializationError, match="dictionary of 2 strings"):
            list(PacketCodec(schema).iter_decode(body, count=1))

    def test_an_index_past_the_dictionary_is_refused(self):
        schema = PacketSchema([("s", FieldType.STRING)])
        body = struct.pack("<II", 1, 1) + b"a" + bytes([0, 1])
        with pytest.raises(SerializationError, match="string index past the 1"):
            list(PacketCodec(schema).iter_decode(body, count=2))
        empty = struct.pack("<I", 0) + bytes([0])
        with pytest.raises(SerializationError, match="string index past the 0"):
            list(PacketCodec(schema).iter_decode(empty, count=1))

    @pytest.mark.parametrize("ftype", [FieldType.BYTES, FieldType.INT64_LIST])
    def test_lengths_that_run_past_the_body_are_refused(self, ftype):
        schema = PacketSchema([("v", ftype)])
        body = struct.pack("<II", 0xFFFFFFFF, 0xFFFFFFFF) + b"\x00" * 8
        with pytest.raises(SerializationError, match="run past the body"):
            list(PacketCodec(schema).iter_decode(body, count=2))

    def test_invalid_utf8_in_a_dictionary_entry(self):
        schema = PacketSchema([("n", FieldType.INT64), ("s", FieldType.STRING)])
        body = struct.pack("<qII", 5, 1, 2) + b"\xc3\x28" + bytes([0])
        for compiled in (True, False):
            with pytest.raises(SerializationError, match="invalid utf-8"):
                list(PacketCodec(schema, compiled=compiled).iter_decode(body, count=1))


ALL = PacketSchema([(t.value, t) for t in FieldType])


def _every_type(i):
    return ALL.new_packet(
        bool=i % 2 == 0, int32=-i, int64=2**40 + i, float32=i / 4, float64=i / 3,
        string=f"s{i % 2}", bytes=b"\x00" * (i % 3), float64_list=[i / 2], int64_list=[i, -i],
    )


def _with(field, value):
    def bad(pkt):
        pkt._values[ALL.index_of(field)] = value
        return pkt

    return bad


#: Refusals of a packet of every type, and the references' messages
#: for them (the parent's, word for word).
_REFUSALS = {
    "wrong_schema": lambda pkt: MIXED.new_packet(id="s0", n=1, blob=b"", xs=[], tag="t"),
    "int32_out_of_range": _with("int32", 2**31),
    "int64_out_of_range": _with("int64", -(2**63) - 1),
    "float32_overflow": _with("float32", 1e39),
    "lone_surrogate_string": _with("string", "s\udc80"),
}
_REFUSAL_MESSAGES = {
    "wrong_schema": f"packet schema {MIXED!r} does not match codec schema {ALL!r}",
    "int32_out_of_range": "field 'int32': int32 out of range: 2147483648",
    "int64_out_of_range": "field 'int64': int64 out of range: -9223372036854775809",
    "float32_overflow": "field 'float32': cannot encode 1e+39 as float32",
    "lone_surrogate_string": "field 'string': cannot encode 's\\udc80' as string",
}


class TestFailedEncode:
    """A record that cannot be encoded raises what the reference
    raises, and nothing of it is left behind: not in ``out``, not in a
    buffer's bytes, count or dictionaries, not in the codec's own."""

    def _bad(self, kind):
        pkt = _mixed(5, id_="sensor-new")  # a string new to the dictionary
        if kind == "int32_out_of_range_after_a_string":
            pkt._values[1] = 2**31
        elif kind == "bytes_in_a_string_field":
            pkt._values[4] = b"tag"
        elif kind == "str_in_a_list":
            pkt._values[3] = [1.0, "two"]
        elif kind == "lone_surrogate_in_a_string":
            pkt._values[4] = "\ud800"
        else:
            pkt._values[2] = None
        return pkt

    @pytest.mark.parametrize(
        "kind",
        [
            "int32_out_of_range_after_a_string",
            "bytes_in_a_string_field",
            "str_in_a_list",
            "lone_surrogate_in_a_string",
            "none",
        ],
    )
    def test_mid_batch_failure_leaves_out_and_buffer_untouched(self, kind):
        bad = self._bad(kind)
        reference = PacketCodec(MIXED, compiled=False)
        expected = _outcome(lambda: reference.encode_into(bad, bytearray()))
        assert expected[0] is SerializationError
        good = [_mixed(i) for i in range(3)]
        codec = PacketCodec(MIXED)
        out = bytearray(b"kept")
        assert _outcome(lambda: codec.encode_into(bad, out)) == expected
        assert _outcome(lambda: codec.encode_batch([*good, bad])) == expected
        assert out == b"kept"
        assert codec.encode_batch(good) == reference.encode_batch(good)

        for buf, flushes, send in _entries(codec):
            for pkt in good[:2]:
                send(pkt)
            state = _state(buf)
            assert _outcome(lambda: send(bad)) == expected
            assert _state(buf) == state
            send(good[2])
            buf.flush()
            assert flushes == [(reference.encode_batch(good), 3)]

    @pytest.mark.parametrize("kind", [*_REFUSALS, *(f"unset_{t.value}" for t in FieldType)])
    def test_every_refusal_is_the_references_and_changes_nothing(self, kind):
        # Into an empty batch and a pending one, whose dictionaries
        # already hold the bad packet's other strings.
        bad = _every_type(9)
        if kind.startswith("unset_"):
            bad._values[ALL.index_of(kind.removeprefix("unset_"))] = None
        else:
            bad = _REFUSALS[kind](bad)
        reference = PacketCodec(ALL, compiled=False)
        expected = _outcome(lambda: reference.encode_into(bad, bytearray()))
        assert expected[0] is SerializationError
        if kind.startswith("unset_"):
            unset = kind.removeprefix("unset_")
            assert expected[1] == f"packet incomplete; unset fields: [{unset!r}]"
        else:
            assert expected[1] == _REFUSAL_MESSAGES[kind]
        codec = PacketCodec(ALL)
        assert _outcome(lambda: codec.encode_into(bad, bytearray())) == expected
        for already in (0, 2):
            for buf, flushes, send in _entries(codec):
                good = [_every_type(i) for i in range(already)]
                for pkt in good:
                    send(pkt)
                state = _state(buf)
                assert _outcome(lambda: send(bad)) == expected
                assert _state(buf) == state
                send(_every_type(7))
                buf.flush()
                assert flushes == [(reference.encode_batch([*good, _every_type(7)]), already + 1)]

    def test_inputs_only_the_per_step_path_accepts_still_encode(self):
        # BYTES takes any flat buffer: its bytes, not its items, are
        # the payload, on both codecs; what is no buffer is refused.
        schema = PacketSchema([("b", FieldType.BYTES), ("n", FieldType.INT32)])
        codec, reference = PacketCodec(schema), PacketCodec(schema, compiled=False)
        wide = memoryview(b"\x01\x00\x02\x00").cast("H")  # 2 items, 4 bytes
        for value, payload in (
            ([1, 2, 3], None),
            (wide, b"\x01\x00\x02\x00"),
            (memoryview(b"abcdef")[::2], b"ace"),
        ):
            pkt = schema.new_packet(n=1)
            pkt._values[0] = value
            expected = _outcome(lambda: reference.encode(pkt))
            assert _outcome(lambda: codec.encode(pkt)) == expected
            if payload is None:
                assert expected[0] is SerializationError
            else:
                (decoded,) = codec.iter_decode(expected[1], 1, reuse=False)
                assert decoded["b"] == payload


class _RacingLock:
    """A buffer's lock whose next ``acquire``, once armed, first runs
    ``take``: a take on another thread landing between an append's
    lookups, made before the lock, and the lock."""

    def __init__(self, lock, take):
        self._lock = lock
        self._take = take
        self.armed = False

    def acquire(self, *args):
        if self.armed:
            self.armed = False
            self._take()
        return self._lock.acquire(*args)

    __enter__ = acquire

    def release(self):
        self._lock.release()

    def __exit__(self, *exc):
        self._lock.release()


class TestATakeOnAnotherThread:
    """A buffer's append looks a record's variable-width values up
    before the buffer's lock and enters them under it; a take (the flush
    timer's) in between starts a new batch with empty dictionaries, and
    the record must land in that batch, looked up afresh."""

    @staticmethod
    def _racing(buf):
        buf._lock = _RacingLock(buf._lock, buf.flush)

    def test_a_take_between_the_lookups_and_the_lock_is_looked_up_again(self):
        reference = PacketCodec(MIXED, compiled=False)
        for codec in (PacketCodec(MIXED), reference):
            # Swapped before the append is generated: it binds the lock.
            for buf, flushes, send in _entries(codec, before=self._racing):
                lock = buf._lock
                send(_mixed(0))
                lock.armed = True
                send(_mixed(1))  # the same strings as packet 0
                assert not lock.armed  # the take landed
                send(_mixed(2, tag="new"))
                buf.flush()
                assert flushes == [
                    (reference.encode_batch([_mixed(0)]), 1),
                    (reference.encode_batch([_mixed(1), _mixed(2, tag="new")]), 2),
                ]

    def test_concurrent_takes_lose_and_corrupt_nothing(self):
        codec = PacketCodec(MIXED)
        flushes = []
        buf = _buffer(flushes)
        sent = [_mixed(i, id_=f"sensor-{i % 5}", tag="ab"[i % 2]) for i in range(20_000)]
        done = threading.Event()

        def timer():
            while not done.is_set():
                buf.flush()

        thread = threading.Thread(target=timer)
        thread.start()
        try:
            for pkt in sent:
                buf.append_packet(codec, pkt)
        finally:
            done.set()
            thread.join()
        buf.flush()
        got = [p.values for body, n in flushes for p in codec.iter_decode(body, n)]
        assert got == [p.values for p in sent]
        assert len(flushes) > 1


class TestAcrossASocket:
    """Batch-shaped bodies through ``TcpTransport`` → ``TcpListener``'s
    ``FrameDecoder``, untraced (frame version 5) and traced (6): the
    values that arrive are the ones a chained leg would hand over."""

    SCHEMA = PacketSchema(
        [
            ("name", FieldType.STRING),
            ("seq", FieldType.INT64),
            ("blob", FieldType.BYTES),
            ("xs", FieldType.FLOAT64_LIST),
            ("ks", FieldType.INT64_LIST),
            ("level", FieldType.FLOAT32),
        ]
    )

    def _batches(self):
        repeating = [
            ["sensor-%d" % (i % 3), i, b"\x00" * (i % 4), [i / 3], [i, -i], i / 7]
            for i in range(40)
        ]
        non_ascii = [["水位🌊é", i, b"b", [], [2**62], 0.1] for i in range(5)]
        empty = [["", i, b"", [], [], -0.0] for i in range(3)]
        wide = [[f"key-{i}", i, bytes([i % 256]), [1.5] * (i % 3), [], 1.0] for i in range(300)]
        return [repeating, non_ascii + empty, wide]

    def test_both_frame_versions_carry_every_variable_width_type(self):
        codec = PacketCodec(self.SCHEMA)
        got = FrameCollector()
        listener = TcpListener("127.0.0.1", 0, sink=got)
        sent = []
        try:
            tx = TcpTransport("127.0.0.1", listener.port)
            traces = iter([b""] * 3 + [b"tr"] * 3)

            def sink(body, count):
                tx.send(link_id=3, body=body, count=count, trace=next(traces))

            buf = StreamBuffer(capacity=1 << 30, sink=sink, max_delay=3600.0)
            for _ in range(2):  # every batch untraced, then traced
                for rows in self._batches():
                    for row in rows:
                        buf.append_packet(
                            codec, self.SCHEMA.new_packet(**dict(zip(self.SCHEMA.names, row)))
                        )
                    buf.flush()
                    sent.append(rows)
            assert got.wait(len(sent), timeout=10.0)
            tx.close()
        finally:
            listener.close()
        frames = got.snapshot()
        assert [f.trace for f in frames] == [b""] * 3 + [b"tr"] * 3
        # The third batch's dictionary has more than 256 strings: its
        # indexes are u16.
        assert struct.unpack_from("<I", frames[2].body, 300 * 12)[0] == 300
        as_decoded = compile_as_decoded(self.SCHEMA.types)
        receiver = PacketCodec(self.SCHEMA)
        for frame, rows in zip(frames, sent):
            expected = []
            for row in rows:
                row = list(row)
                as_decoded(row)
                expected.append(tuple(row))
            decoded = [p.values for p in receiver.iter_decode(frame.body, frame.count)]
            assert decoded == expected
