"""Tests for field types, packet schemas, and stream packets."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import FieldType, PacketSchema, StreamPacket
from repro.core.fieldtypes import decode_field, encode_field, validate_value
from repro.util.errors import SerializationError


SENSOR = PacketSchema(
    [
        ("ts", FieldType.INT64),
        ("sensor_id", FieldType.STRING),
        ("value", FieldType.FLOAT64),
        ("ok", FieldType.BOOL),
    ]
)


class TestFieldTypes:
    @pytest.mark.parametrize(
        "ftype,value",
        [
            (FieldType.BOOL, True),
            (FieldType.BOOL, False),
            (FieldType.INT32, -(2**31)),
            (FieldType.INT32, 2**31 - 1),
            (FieldType.INT64, 2**62),
            (FieldType.FLOAT32, 0.5),
            (FieldType.FLOAT64, 3.141592653589793),
            (FieldType.STRING, ""),
            (FieldType.STRING, "温度計"),
            (FieldType.BYTES, b"\x00\xff"),
            (FieldType.FLOAT64_LIST, [1.0, -2.5, 3.75]),
            (FieldType.INT64_LIST, [1, 2, 3]),
            (FieldType.FLOAT64_LIST, []),
        ],
    )
    def test_roundtrip(self, ftype, value):
        buf = bytearray()
        encode_field(ftype, value, buf)
        decoded, end = decode_field(ftype, bytes(buf), 0)
        assert end == len(buf)
        assert decoded == value

    def test_int32_overflow_rejected(self):
        with pytest.raises(SerializationError):
            encode_field(FieldType.INT32, 2**31, bytearray())

    def test_int64_overflow_rejected(self):
        with pytest.raises(SerializationError):
            encode_field(FieldType.INT64, 2**63, bytearray())

    def test_wrong_type_rejected(self):
        with pytest.raises(SerializationError):
            encode_field(FieldType.STRING, 42, bytearray())

    def test_truncated_string(self):
        buf = bytearray()
        encode_field(FieldType.STRING, "hello", buf)
        with pytest.raises(SerializationError):
            decode_field(FieldType.STRING, bytes(buf[:-2]), 0)

    def test_truncated_fixed(self):
        with pytest.raises(SerializationError):
            decode_field(FieldType.INT64, b"\x01\x02", 0)

    def test_fixed_sizes(self):
        assert FieldType.INT64.fixed_size == 8
        assert FieldType.BOOL.fixed_size == 1
        assert FieldType.STRING.fixed_size is None

    def test_validate_value_bool_not_int(self):
        assert validate_value(FieldType.BOOL, True)
        assert not validate_value(FieldType.INT64, True)  # bool is not an int here
        assert not validate_value(FieldType.BOOL, 1)


class TestPacketSchema:
    def test_basic_properties(self):
        assert SENSOR.names == ("ts", "sensor_id", "value", "ok")
        assert len(SENSOR) == 4
        assert SENSOR.type_of("value") is FieldType.FLOAT64
        assert SENSOR.index_of("ok") == 3

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            PacketSchema([("a", FieldType.INT64), ("a", FieldType.BOOL)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            PacketSchema([])

    def test_invalid_name_rejected(self):
        with pytest.raises(ValueError):
            PacketSchema([("", FieldType.INT64)])

    def test_unknown_field_keyerror(self):
        with pytest.raises(KeyError, match="no field"):
            SENSOR.index_of("nope")

    def test_equality_and_hash(self):
        again = PacketSchema(list(SENSOR))
        assert again == SENSOR
        assert hash(again) == hash(SENSOR)
        other = PacketSchema([("x", FieldType.INT64)])
        assert other != SENSOR

    def test_string_types_accepted(self):
        s = PacketSchema([("a", "int64"), ("b", "string")])
        assert s.type_of("a") is FieldType.INT64

    def test_dict_roundtrip(self):
        assert PacketSchema.from_dict(SENSOR.to_dict()) == SENSOR

    def test_new_packet_prefilled(self):
        pkt = SENSOR.new_packet(ts=5, sensor_id="s1", value=1.5, ok=True)
        assert pkt.is_complete()
        assert pkt["ts"] == 5
        # Any legal field name can be pre-filled, this one included
        # (hypothesis drew it in test_property_roundtrip's strategy).
        named_self = PacketSchema([("self", FieldType.INT32)])
        assert named_self.new_packet(self=7)["self"] == 7


class TestStreamPacket:
    def test_set_get(self):
        pkt = StreamPacket(SENSOR)
        pkt.set("ts", 100).set("sensor_id", "a").set("value", 2.0).set("ok", False)
        assert pkt.get("ts") == 100
        assert pkt["sensor_id"] == "a"
        assert pkt.get_at(2) == 2.0

    def test_setitem(self):
        pkt = StreamPacket(SENSOR)
        pkt["ts"] = 7
        assert pkt["ts"] == 7

    def test_type_enforcement(self):
        pkt = StreamPacket(SENSOR)
        with pytest.raises(SerializationError):
            pkt.set("ts", "not-an-int")
        with pytest.raises(SerializationError):
            pkt.set("ok", 1)

    def test_is_complete(self):
        pkt = StreamPacket(SENSOR)
        assert not pkt.is_complete()
        pkt.set("ts", 1).set("sensor_id", "x").set("value", 0.0).set("ok", True)
        assert pkt.is_complete()

    def test_reset_for_reuse(self):
        pkt = SENSOR.new_packet(ts=1, sensor_id="x", value=0.0, ok=True)
        pkt.reset()
        assert not pkt.is_complete()
        assert pkt.get("ts") is None

    def test_clone_is_detached(self):
        pkt = SENSOR.new_packet(ts=1, sensor_id="x", value=0.0, ok=True)
        twin = pkt.clone()
        pkt.set("ts", 99)
        assert twin["ts"] == 1
        assert twin == SENSOR.new_packet(ts=1, sensor_id="x", value=0.0, ok=True)

    def test_copy_from_schema_mismatch(self):
        other = PacketSchema([("z", FieldType.INT64)]).new_packet(z=1)
        with pytest.raises(SerializationError):
            StreamPacket(SENSOR).copy_from(other)

    def test_to_dict(self):
        pkt = SENSOR.new_packet(ts=1, sensor_id="x", value=0.5, ok=True)
        assert pkt.to_dict() == {"ts": 1, "sensor_id": "x", "value": 0.5, "ok": True}


@settings(max_examples=100, deadline=None)
@given(
    ts=st.integers(min_value=-(2**63), max_value=2**63 - 1),
    sid=st.text(max_size=50),
    value=st.floats(allow_nan=False, allow_infinity=False),
    ok=st.booleans(),
)
def test_packet_values_property(ts, sid, value, ok):
    pkt = SENSOR.new_packet(ts=ts, sensor_id=sid, value=value, ok=ok)
    assert pkt.values == (ts, sid, value, ok)
    assert pkt.clone() == pkt
