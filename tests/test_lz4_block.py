"""Unit and property tests for the pure-Python LZ4 block codec."""

import random
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro import lz4
from repro.lz4 import decompress, max_compressed_length
from repro.lz4.block import LAST_LITERALS, MAX_OFFSET, MFLIMIT, MIN_MATCH


def check_block(block: bytes, n: int) -> None:
    """Assert ``block`` is a well-formed LZ4 block for ``n`` input bytes:
    every end-of-block rule of the format, parsed token by token."""
    assert len(block) <= max_compressed_length(n)
    i = 0
    pos = 0  # bytes of input accounted for so far
    while True:
        assert i < len(block), "block ends where a token is due"
        token = block[i]
        i += 1
        lit_len = token >> 4
        if lit_len == 15:
            while True:
                extra = block[i]
                i += 1
                lit_len += extra
                if extra != 255:
                    break
        i += lit_len
        pos += lit_len
        assert i <= len(block), "literals run past the block"
        if i == len(block):
            # The last sequence is literals only, and they cover (at
            # least) the last LAST_LITERALS bytes of any input that
            # has a match at all.
            assert token & 0x0F == 0
            assert pos == n
            assert lit_len >= min(n, LAST_LITERALS)
            return
        offset = block[i] | block[i + 1] << 8
        i += 2
        assert 1 <= offset <= MAX_OFFSET and offset <= pos
        assert pos <= n - MFLIMIT, "match starts within the last MFLIMIT bytes"
        match_len = (token & 0x0F) + MIN_MATCH
        if token & 0x0F == 15:
            while True:
                extra = block[i]
                i += 1
                match_len += extra
                if extra != 255:
                    break
        pos += match_len
        assert pos <= n - LAST_LITERALS, "match covers the last literals"


def compress(data) -> bytes:
    """``repro.lz4.compress`` with every output of this file validated."""
    block = lz4.compress(data)
    check_block(block, len(data))
    return block


# -- the compressor this one replaced, kept as the size oracle ---------------

_HASH_LOG = 16
_HASH_SIZE = 1 << _HASH_LOG


def _hash4(v: int) -> int:
    return ((v * 2654435761) >> (32 - _HASH_LOG)) & (_HASH_SIZE - 1)


def _emit_length(out: bytearray, extra: int) -> None:
    while extra >= 255:
        out.append(255)
        extra -= 255
    out.append(extra)


def reference_compress(data) -> bytes:
    """Greedy single-entry hash table, one Python iteration per matched
    byte (PR 14's ``repro.lz4.block.compress``, verbatim in behaviour)."""
    src = bytes(data)
    n = len(src)
    out = bytearray()
    anchor = 0
    if n >= MFLIMIT + 1:
        table = [-1] * _HASH_SIZE
        match_limit = n - LAST_LITERALS
        pos = 0
        search_end = n - MFLIMIT
        while pos <= search_end:
            h = _hash4(int.from_bytes(src[pos : pos + 4], "little"))
            cand = table[h]
            table[h] = pos
            if (
                cand >= 0
                and pos - cand <= MAX_OFFSET
                and src[cand : cand + 4] == src[pos : pos + 4]
            ):
                m = pos + MIN_MATCH
                c = cand + MIN_MATCH
                while m < match_limit and src[m] == src[c]:
                    m += 1
                    c += 1
                lit_len = pos - anchor
                ml = m - pos - MIN_MATCH
                out.append((min(lit_len, 15) << 4) | min(ml, 15))
                if lit_len >= 15:
                    _emit_length(out, lit_len - 15)
                out += src[anchor:pos]
                out += (pos - cand).to_bytes(2, "little")
                if ml >= 15:
                    _emit_length(out, ml - 15)
                pos = anchor = m
                if pos <= search_end:
                    w2 = int.from_bytes(src[pos - 2 : pos + 2], "little")
                    table[_hash4(w2)] = pos - 2
            else:
                pos += 1
    lit_len = n - anchor
    out.append(min(lit_len, 15) << 4)
    if lit_len >= 15:
        _emit_length(out, lit_len - 15)
    out += src[anchor:n]
    return bytes(out)


def _sensor_batch(rng: random.Random, records: int) -> bytes:
    """A batch shaped like perf's ``sensor_keyed`` link: 56-byte
    records ``<I9sq6fI7s``, a few keys, readings that rarely step."""
    layout = struct.Struct("<I9sq6fI7s")
    levels = {k: [rng.randrange(160, 640) for _ in range(6)] for k in range(16)}
    out = bytearray()
    stamp = 40_000_000_000_000
    for _ in range(records):
        key = min(rng.randrange(16), rng.randrange(16))
        level = levels[key]
        if rng.random() < 0.05:
            level[rng.randrange(6)] += rng.choice((-1, 1))
        stamp += rng.randrange(50_000, 70_000)
        status = b"nominal" if rng.random() < 0.97 else b"warning"
        out += layout.pack(
            9, b"sensor-%02d" % key, stamp, *(v / 8.0 for v in level), 7, status
        )
    return bytes(out)


def _corpus() -> dict[str, list[bytes]]:
    """Seeded inputs by family (the same every run)."""
    rng = random.Random(20260929)
    families: dict[str, list[bytes]] = {
        "sensor": [_sensor_batch(rng, n) for n in (1, 2, 3, 20, 147, 147, 147, 600)],
        "zeros": [bytes(n) for n in (13, 31, 32, 33, 64, 1000, 70_000)],
        "periodic": [
            (bytes(rng.randrange(256) for _ in range(period)) * 4000)[:n]
            for period in (1, 2, 3, 4, 5)
            for n in (40, 63, 64, 65, 2000)
        ],
        "random": [rng.randbytes(n) for n in (13, 100, 5000, 70_000)],
        "alphabet": [
            bytes(rng.choice(alphabet) for _ in range(n))
            for alphabet in (b"ab", b"acgt", bytes(range(16)))
            for n in (100, 3000)
        ],
        "short": [
            (bytes([65 + n % 3]) * 40)[:n] if n % 2 else rng.randbytes(n)
            for n in range(18)
        ],
    }
    # One match of every length around the 32-byte comparison chunks:
    # the repeat is cut off by a differing byte after ``length`` bytes,
    # at every alignment of the match start within a chunk.
    unit = rng.randbytes(160)
    families["chunk_edges"] = [
        rng.randbytes(lead) + unit + b"#" + unit[:length] + b"!" + rng.randbytes(20)
        for length in range(MIN_MATCH, 4 + 3 * 32 + 3)
        for lead in (0, 1, 31)
    ]
    # ... and the same with the input ending right after the repeat, so
    # the match is stopped by the end-of-block rules instead.
    families["tail_edges"] = [
        unit + b"#" + unit[:length] for length in range(MIN_MATCH, 4 + 2 * 32 + 3)
    ]
    return families


CORPUS = _corpus()


class TestRoundTrip:
    def test_empty(self):
        assert decompress(compress(b"")) == b""

    def test_single_byte(self):
        assert decompress(compress(b"x")) == b"x"

    def test_short_input_below_match_limit(self):
        data = b"hello world!"  # 12 bytes < MFLIMIT+1: literal-only block
        assert decompress(compress(data)) == data

    def test_ascii_text(self):
        data = b"the quick brown fox jumps over the lazy dog " * 40
        assert decompress(compress(data)) == data

    def test_all_zeros_compresses_heavily(self):
        data = b"\x00" * 10000
        packed = compress(data)
        assert decompress(packed) == data
        assert len(packed) < len(data) // 50

    def test_repeating_pattern(self):
        data = b"abcd" * 1000
        packed = compress(data)
        assert decompress(packed) == data
        assert len(packed) < len(data) // 10

    def test_overlapping_match_rle(self):
        # 'aaaa...' forces offset < match_len (RLE-style overlap copy).
        data = b"a" * 500
        assert decompress(compress(data)) == data

    def test_random_data_round_trips(self):
        import random

        rng = random.Random(42)
        data = bytes(rng.getrandbits(8) for _ in range(5000))
        packed = compress(data)
        assert decompress(packed) == data

    def test_binary_sensor_like_payload(self):
        import struct

        readings = b"".join(
            struct.pack("<qdd", 1_600_000_000_000 + i, 21.5, 0.0) for i in range(200)
        )
        packed = compress(readings)
        assert decompress(packed) == readings
        assert len(packed) < len(readings)

    @pytest.mark.parametrize("n", [0, 1, 4, 5, 11, 12, 13, 14, 15, 16, 17, 64, 65, 255, 256, 4096])
    def test_boundary_sizes(self, n):
        data = (b"ab" * (n // 2 + 1))[:n]
        assert decompress(compress(data)) == data


class TestFormatConstraints:
    def test_last_literals_rule(self):
        # The final LAST_LITERALS bytes must appear literally in the block.
        data = b"\x01\x02\x03\x04" * 10 + b"UNIQ!"
        packed = compress(data)
        assert b"UNIQ!" in packed

    def test_compress_bound_holds_for_incompressible(self):
        import random

        rng = random.Random(7)
        for n in (1, 50, 1000):
            data = bytes(rng.getrandbits(8) for _ in range(n))
            assert len(compress(data)) <= max_compressed_length(n)

    def test_max_compressed_length_rejects_negative(self):
        with pytest.raises(ValueError):
            max_compressed_length(-1)

    def test_constants_match_spec(self):
        assert MFLIMIT == 12
        assert LAST_LITERALS == 5


class TestDecompressValidation:
    def test_truncated_literals(self):
        with pytest.raises(ValueError):
            decompress(b"\xf0")  # promises >=15 literals, provides none

    def test_truncated_offset(self):
        with pytest.raises(ValueError):
            decompress(b"\x14A\x01")  # 1 literal + match but 1-byte offset

    def test_zero_offset_rejected(self):
        with pytest.raises(ValueError):
            decompress(b"\x14A\x00\x00")

    def test_offset_before_start_rejected(self):
        with pytest.raises(ValueError):
            decompress(b"\x14A\xff\x00")  # offset 255 > output length 1

    def test_max_size_cap(self):
        data = b"\x00" * 100_000
        packed = compress(data)
        with pytest.raises(ValueError):
            decompress(packed, max_size=1000)
        assert decompress(packed, max_size=100_000) == data


@settings(max_examples=200, deadline=None)
@given(st.binary(min_size=0, max_size=2000))
def test_roundtrip_property(data):
    assert decompress(compress(data)) == data


@settings(max_examples=50, deadline=None)
@given(
    st.binary(min_size=1, max_size=32),
    st.integers(min_value=1, max_value=400),
)
def test_roundtrip_repeated_blocks(unit, reps):
    data = unit * reps
    assert decompress(compress(data)) == data


@settings(max_examples=100, deadline=None)
@given(st.binary(min_size=0, max_size=1500))
def test_compressed_size_bound_property(data):
    assert len(compress(data)) <= max_compressed_length(len(data))


class TestAgainstReferenceCompressor:
    """The compressor this one replaced (``reference_compress``) sets
    the bar for size: exact-prefix candidates find every match it found
    from the same history, and some it lost to hash collisions."""

    @pytest.mark.parametrize("family", sorted(CORPUS))
    def test_round_trips_and_is_no_larger(self, family):
        new_total = old_total = 0
        for data in CORPUS[family]:
            block = compress(data)  # structure-checked
            assert decompress(block) == data
            old = reference_compress(data)
            check_block(old, len(data))  # the oracle obeys the rules too
            assert decompress(old) == data
            # Greedy parses can part ways after one extra match; never
            # by more than a sequence's worth.
            assert len(block) <= len(old) + 3
            new_total += len(block)
            old_total += len(old)
        assert new_total <= old_total

    def test_table_stays_bounded_on_large_incompressible_input(self):
        import tracemalloc

        data = random.Random(3).randbytes(1 << 19)
        tracemalloc.start()
        try:
            block = compress(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert decompress(block) == data
        # 2^19 distinct prefixes cost ~55 MiB if none is ever dropped,
        # ~26 MiB when those out of reach are (two windows' worth).
        assert peak < 40 * 1024 * 1024


class TestDecompressInputs:
    DATA = b"abcabcabcabc-0123456789-" * 30

    @pytest.mark.parametrize("wrap", [bytes, bytearray, memoryview])
    def test_accepts_any_bytes_like(self, wrap):
        assert decompress(wrap(compress(self.DATA))) == self.DATA

    def test_accepts_view_into_a_larger_buffer(self):
        block = compress(self.DATA)
        framed = memoryview(b"\x01" + block + b"tail")[1 : 1 + len(block)]
        assert decompress(framed) == self.DATA

    @pytest.mark.parametrize("offset", [1, 2, 3, 7])
    @pytest.mark.parametrize("length", [4, 5, 18, 19, 20, 300, 70_000])
    def test_overlapping_match_replicates_the_pattern(self, offset, length):
        # Hand-built block: ``offset`` literals, then a match of
        # ``length`` bytes at distance ``offset`` (length >> offset).
        pattern = bytes(range(65, 65 + offset))
        block = bytearray([offset << 4 | min(length - MIN_MATCH, 15)])
        block += pattern
        block += offset.to_bytes(2, "little")
        if length - MIN_MATCH >= 15:
            extra = length - MIN_MATCH - 15
            block += b"\xff" * (extra // 255) + bytes([extra % 255])
        block += b"\x50tail!"  # closing literal-only sequence
        expected = (pattern * (length // offset + 2))[: offset + length] + b"tail!"
        assert decompress(bytes(block)) == expected

    @pytest.mark.parametrize(
        "block, message",
        [
            (b"\xf0", "truncated literal length"),
            (b"\xf0\xff", "truncated literal length"),
            (b"\x30ab", "truncated literals"),
            (b"\x14A\x01", "truncated match offset"),
            (b"\x14A\x00\x00", "invalid zero match offset"),
            (b"\x04\x00\x00", "invalid zero match offset"),
            (b"\x14A\xff\x00", "match offset 255 beyond output start"),
            (b"\x1fA\x01\x00", "truncated match length"),
            (b"\x1fA\x01\x00\xff", "truncated match length"),
        ],
    )
    def test_rejections_keep_their_messages(self, block, message):
        with pytest.raises(ValueError, match=message):
            decompress(block)

    def test_max_size_is_checked_before_the_copy(self):
        # 1 literal, then a 64 MiB overlapping match: must be refused
        # by the cap, not attempted.
        huge = (1 << 26) - MIN_MATCH - 15
        block = b"\x1fA\x01\x00" + b"\xff" * (huge // 255) + bytes([huge % 255])
        with pytest.raises(ValueError, match="exceeds cap of 1000"):
            decompress(block, max_size=1000)
        with pytest.raises(ValueError, match="exceeds cap of 3"):
            decompress(b"\x40abcd", max_size=3)  # literals alone exceed it
        assert decompress(b"\x40abcd", max_size=4) == b"abcd"
