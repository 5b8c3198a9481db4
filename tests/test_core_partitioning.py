"""Tests for stream partitioning schemes (§III-A6)."""

import collections
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    BroadcastPartitioning,
    FieldsPartitioning,
    FieldType,
    PacketCodec,
    PacketSchema,
    PartitioningScheme,
    RoundRobinPartitioning,
    ShufflePartitioning,
    register_partitioning,
    resolve_partitioning,
)
from repro.core.partitioning import DirectPartitioning
from repro.util.errors import GraphValidationError

SCHEMA = PacketSchema([("key", FieldType.STRING), ("idx", FieldType.INT32)])


def pkt(key="k", idx=0):
    return SCHEMA.new_packet(key=key, idx=idx)


class TestRoundRobin:
    def test_cycles_evenly(self):
        rr = RoundRobinPartitioning()
        routes = [rr.route(pkt(), 3)[0] for _ in range(9)]
        assert routes == [0, 1, 2, 0, 1, 2, 0, 1, 2]

    def test_single_instance(self):
        rr = RoundRobinPartitioning()
        assert all(rr.route(pkt(), 1) == (0,) for _ in range(5))


class TestShuffle:
    def test_uniformity(self):
        sh = ShufflePartitioning(seed=42)
        counts = collections.Counter(sh.route(pkt(), 4)[0] for _ in range(4000))
        for n in counts.values():
            assert 800 < n < 1200  # roughly uniform

    def test_in_range(self):
        sh = ShufflePartitioning(seed=1)
        assert all(0 <= sh.route(pkt(), 7)[0] < 7 for _ in range(100))


class TestFields:
    def test_same_key_same_instance(self):
        fp = FieldsPartitioning(["key"])
        a = fp.route(pkt(key="sensor-1"), 8)
        for _ in range(10):
            assert fp.route(pkt(key="sensor-1", idx=99), 8) == a

    def test_spreads_keys(self):
        fp = FieldsPartitioning(["key"])
        targets = {fp.route(pkt(key=f"sensor-{i}"), 8)[0] for i in range(100)}
        assert len(targets) >= 6  # most instances receive some keys

    def test_multi_field_key(self):
        fp = FieldsPartitioning(["key", "idx"])
        assert fp.route(pkt("a", 1), 16) == fp.route(pkt("a", 1), 16)
        # Changing either component may change the route; at least the
        # combined key is actually used:
        routes = {fp.route(pkt("a", i), 64)[0] for i in range(50)}
        assert len(routes) > 1

    def test_requires_fields(self):
        with pytest.raises(GraphValidationError):
            FieldsPartitioning([])

    def test_describe_roundtrip(self):
        fp = FieldsPartitioning(["key"])
        again = resolve_partitioning(fp.describe())
        assert isinstance(again, FieldsPartitioning)
        assert again.fields == ("key",)

    def test_equal_floats_land_on_one_instance(self):
        # Both pairs cross a buffered leg as the same float; hashed as
        # Python values they went to instances 2 and 6, and 0 and 7.
        for ftype in (FieldType.FLOAT64, FieldType.FLOAT32):
            schema = PacketSchema([("tag", FieldType.STRING), ("reading", ftype)])
            fp = FieldsPartitioning(["reading"])
            for pair in ((1, 1.0), (0.0, -0.0), (0, -0.0), (-3, -3.0)):
                routes = {fp.route(schema.new_packet(tag="t", reading=v), 8) for v in pair}
                assert len(routes) == 1, (ftype, pair, routes)
        schema = PacketSchema([("reading", FieldType.FLOAT64)])
        fp = FieldsPartitioning(["reading"])
        assert fp.route(schema.new_packet(reading=1), 8) == (6,)
        assert fp.route(schema.new_packet(reading=-0.0), 8) == (0,)

    def test_float_keys_route_as_without_the_memo(self):
        schema = PacketSchema([("k", FieldType.STRING), ("x", FieldType.FLOAT64)])
        fp = FieldsPartitioning(["x", "k"])
        values = [1, 1.0, 0, 0.0, -0.0, 2.5, -7, 1e300, float("inf"), float("nan")]
        for n in (16, 5):
            for v in values:
                p = schema.new_packet(k="a", x=v)
                assert fp.route(p, n) == _unmemoised_route(fp.fields, p, n)

    def test_float32_keys_route_as_they_arrive_after_a_hop(self):
        # A source's FLOAT32 0.1 and the 0.10000000149011612 a relay
        # forwards after a buffered leg went to instances 7 and 2 of 8
        # when the key was hashed as float(v).
        schema = PacketSchema([("x", FieldType.FLOAT32)])
        codec = PacketCodec(schema)
        for v in (0.1, 0.2, 0.3, 1.1, 3.3, 0.7):
            sent = schema.new_packet(x=v)
            (arrived,) = codec.iter_decode(codec.encode(sent), 1, reuse=False)
            assert arrived["x"] != v
            routes = {FieldsPartitioning(["x"]).route(p, 8) for p in (sent, arrived)}
            assert len(routes) == 1, (v, routes)
        assert FieldsPartitioning(["x"]).route(schema.new_packet(x=0.1), 8) == (2,)
        # A FLOAT64 key is its own value: 0.1 stays apart from the float32's.
        wide = PacketSchema([("x", FieldType.FLOAT64)])
        fp = FieldsPartitioning(["x"])
        assert [fp.route(wide.new_packet(x=v), 8) for v in (0.1, 0.10000000149011612)] == [
            (7,),
            (2,),
        ]

    def test_a_float32_key_no_leg_lets_through_routes_as_a_float64(self):
        schema = PacketSchema([("x", FieldType.FLOAT32)])
        for v in (1e39, -1e300):
            p = schema.new_packet(x=v)
            assert FieldsPartitioning(["x"]).route(p, 16) == _unmemoised_route(["x"], p, 16)

    def test_sensor_names_keep_their_instances(self):
        # What sensor_keyed's 64 keys hash to over its 4 aggregates: a
        # STRING key routes exactly as it always has.
        expected = "0103212111220010230231233320031211011331222003323303202000003020"
        schema = PacketSchema([("sensor_id", FieldType.STRING), ("ts", FieldType.INT64)])
        fp = FieldsPartitioning(["sensor_id"])
        routes = [
            fp.route(schema.new_packet(sensor_id=f"sensor-{i:02d}", ts=i), 4)[0]
            for i in range(64)
        ]
        assert "".join(map(str, routes)) == expected


def _unmemoised_route(fields, packet, n_instances):
    """``FieldsPartitioning.route`` without the memo: the chained xxh32
    of each key field's ``repr``, every time - a float field's value as
    the float it decodes to (a FLOAT32 rounded to float32 when it can
    be), with ``-0.0`` taken as ``0.0``."""
    from repro.lz4 import xxh32

    h = 0
    for fname in fields:
        value = packet.get(fname)
        ftype = packet.schema.type_of(fname)
        if ftype is FieldType.FLOAT32 and abs(value) <= 3.4028234663852886e38:
            value = struct.unpack("<f", struct.pack("<f", value))[0]
        if ftype in (FieldType.FLOAT32, FieldType.FLOAT64):
            value = 0.0 if value == 0 else float(value)
        h = xxh32(repr(value).encode("utf-8"), seed=h)
    return (h % n_instances,)


class TestFieldsMemo:
    """The memo changes what a route costs, never where it goes."""

    # ``a`` is an int field: a float field hashes the float a value
    # decodes to (TestFields), which not every value below has.
    ANY = PacketSchema([("a", FieldType.INT64), ("b", FieldType.STRING)])

    def _packet(self, a, b="-"):
        pkt = self.ANY.new_packet()
        pkt._values[:] = [a, b]  # any Python value: the scheme hashes reprs
        return pkt

    @pytest.mark.parametrize("fields", [["a"], ["a", "b"], ["b", "a"]])
    def test_values_equal_as_dict_keys_keep_their_own_routes(self, fields):
        fp = FieldsPartitioning(fields)
        nan = float("nan")
        values = [1, 1.0, True, 0, 0.0, -0.0, False, nan, float("nan"), nan]
        values += ["1", b"1", "'1'", "b'1'", None, (1,), "(1,)", "", " "]
        packets = [self._packet(v) for v in values]
        packets += [self._packet(b, a) for a, b in zip(values, reversed(values))]
        for n in (64, 7, 64):  # again: now every route is a memo hit
            for pkt in packets:
                assert fp.route(pkt, n) == _unmemoised_route(fields, pkt, n)
        distinct = {fp.route(self._packet(v), 1 << 30) for v in (1, 1.0, True)}
        assert len(distinct) == 3
        assert fp.route(self._packet(0.0), 1 << 30) != fp.route(self._packet(-0.0), 1 << 30)

    def test_multi_field_keys_that_concatenate_alike_stay_apart(self):
        fields = ["key", "tag"]
        schema = PacketSchema([("key", FieldType.STRING), ("tag", FieldType.STRING)])
        fp = FieldsPartitioning(fields)
        pairs = [("ab", "c"), ("a", "bc"), ("abc", ""), ("", "abc"), ("a'", "'b"), ("a", "''b")]
        for _ in range(2):
            for key, tag in pairs:
                p = schema.new_packet(key=key, tag=tag)
                assert fp.route(p, 1 << 30) == _unmemoised_route(fields, p, 1 << 30)
        assert len({fp.route(schema.new_packet(key=k, tag=t), 1 << 30) for k, t in pairs}) == len(pairs)

    def test_beyond_the_memo_bound(self):
        from repro.core import partitioning

        fp = FieldsPartitioning(["key"])
        total = partitioning._KEY_MEMO_LIMIT + 500
        for _ in range(2):
            for i in range(total):
                p = pkt(key=f"k{i}")
                assert fp.route(p, 16) == _unmemoised_route(["key"], p, 16)
            assert 0 < len(fp._hashes) <= partitioning._KEY_MEMO_LIMIT

    def test_same_scheme_object_on_a_second_schema(self):
        other = PacketSchema(
            [("idx", FieldType.INT32), ("pad", FieldType.BOOL), ("key", FieldType.STRING)]
        )
        fp = FieldsPartitioning(["key", "idx"])
        for _ in range(2):
            for i in range(20):
                first = pkt(key=f"s-{i}", idx=i)
                second = other.new_packet(idx=i, pad=True, key=f"s-{i}")
                route = _unmemoised_route(fp.fields, first, 32)
                assert fp.route(first, 32) == route
                assert fp.route(second, 32) == route  # same key, other layout

    def test_unknown_field_raises_as_packet_get_does(self):
        fp = FieldsPartitioning(["key", "missing"])
        with pytest.raises(KeyError) as expected:
            pkt().get("missing")
        for _ in range(2):  # a failed resolution is not remembered
            with pytest.raises(KeyError) as raised:
                fp.route(pkt(), 4)
            assert str(raised.value) == str(expected.value)

    def test_copies_do_not_share_a_memo(self):
        import copy

        fp = FieldsPartitioning(["key"])
        fp.route(pkt(key="a"), 4)
        twin = copy.deepcopy(fp)
        twin.route(pkt(key="b"), 4)
        assert set(fp._hashes) == {"a"} and set(twin._hashes) == {"a", "b"}


class TestBroadcast:
    def test_all_instances(self):
        assert BroadcastPartitioning().route(pkt(), 4) == (0, 1, 2, 3)


class TestDirect:
    def test_routes_by_field(self):
        dp = DirectPartitioning(index_field="idx")
        assert dp.route(pkt(idx=2), 4) == (2,)

    def test_out_of_range_rejected(self):
        dp = DirectPartitioning(index_field="idx")
        with pytest.raises(GraphValidationError):
            dp.route(pkt(idx=9), 4)


class TestRegistry:
    def test_resolve_by_name(self):
        assert isinstance(resolve_partitioning("shuffle"), ShufflePartitioning)
        assert isinstance(resolve_partitioning("round-robin"), RoundRobinPartitioning)

    def test_resolve_dict_with_kwargs(self):
        scheme = resolve_partitioning({"scheme": "fields", "fields": ["key"]})
        assert isinstance(scheme, FieldsPartitioning)

    def test_resolve_instance_passthrough(self):
        rr = RoundRobinPartitioning()
        assert resolve_partitioning(rr) is rr

    def test_unknown_scheme(self):
        with pytest.raises(GraphValidationError, match="unknown partitioning"):
            resolve_partitioning("no-such-scheme")

    def test_custom_scheme_registration(self):
        class EvenOdd(PartitioningScheme):
            name = "even-odd-test"

            def route(self, packet, n):
                return (packet.get("idx") % min(2, n),)

        register_partitioning(EvenOdd)
        scheme = resolve_partitioning("even-odd-test")
        assert scheme.route(pkt(idx=3), 2) == (1,)

    def test_register_requires_name(self):
        class Nameless(PartitioningScheme):
            def route(self, packet, n):
                return (0,)

        with pytest.raises(GraphValidationError):
            register_partitioning(Nameless)


@settings(max_examples=100, deadline=None)
@given(
    key=st.text(max_size=20),
    idx=st.integers(min_value=-(2**31), max_value=2**31 - 1),
    n=st.integers(min_value=1, max_value=64),
)
def test_all_schemes_route_in_range(key, idx, n):
    p = pkt(key=key, idx=idx)
    for scheme in (
        RoundRobinPartitioning(),
        ShufflePartitioning(seed=0),
        FieldsPartitioning(["key"]),
        BroadcastPartitioning(),
    ):
        for target in scheme.route(p, n):
            assert 0 <= target < n
