"""Tests for wire framing: encode/decode, corruption and ordering checks."""

import struct
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.net import FrameDecoder, FrameEncoder
from repro.net.framing import HEADER_SIZE, MAX_BODY, VERSION, VERSION_TRACED
from repro.util.errors import SerializationError


class TestEncodeDecode:
    def test_single_frame_roundtrip(self):
        enc, dec = FrameEncoder(), FrameDecoder()
        wire = enc.encode(link_id=3, body=b"payload", count=2)
        frames = dec.feed(wire)
        assert len(frames) == 1
        f = frames[0]
        assert f.link_id == 3 and f.seq == 0 and f.count == 2
        assert f.body == b"payload"

    def test_sequence_increments_per_link(self):
        enc = FrameEncoder()
        dec = FrameDecoder()
        for expected_seq in range(5):
            frames = dec.feed(enc.encode(7, b"x", 1))
            assert frames[0].seq == expected_seq
        # An independent link starts at 0.
        assert dec.feed(enc.encode(8, b"y", 1))[0].seq == 0

    def test_empty_body(self):
        enc, dec = FrameEncoder(), FrameDecoder()
        frames = dec.feed(enc.encode(1, b"", 0))
        assert frames[0].body == b""

    def test_fragmented_feed(self):
        enc, dec = FrameEncoder(), FrameDecoder()
        wire = enc.encode(1, b"A" * 100, 4)
        got = []
        for i in range(0, len(wire), 7):  # drip-feed 7 bytes at a time
            got.extend(dec.feed(wire[i : i + 7]))
        assert len(got) == 1
        assert got[0].body == b"A" * 100
        assert dec.pending_bytes == 0

    def test_multiple_frames_in_one_chunk(self):
        enc, dec = FrameEncoder(), FrameDecoder()
        wire = b"".join(enc.encode(1, bytes([i]), 1) for i in range(10))
        frames = dec.feed(wire)
        assert [f.body for f in frames] == [bytes([i]) for i in range(10)]
        assert [f.seq for f in frames] == list(range(10))

    def test_header_size_constant(self):
        enc = FrameEncoder()
        assert len(enc.encode(0, b"", 0)) == HEADER_SIZE

    def test_frames_split_at_every_byte_offset(self):
        # The decoder takes body and trace block through a memoryview
        # and must drop it before shrinking its buffer (a live export
        # makes the resize raise BufferError): cut a plain frame, a
        # traced frame and an empty one at every offset,
        # with the next frame's first bytes already behind them.
        enc = FrameEncoder()
        expected = [
            (1, 0, 3, b"plain-body" * 3, b""),
            (1, 1, 2, b"traced-body", b"\x01trace-notes"),
            (1, 2, 0, b"", b""),
            (2, 0, 1, bytes(range(256)), b"t"),
        ]
        wire = b"".join(
            enc.encode(link, body, count, trace)
            for link, _seq, count, body, trace in expected
        )
        for cut in range(len(wire) + 1):
            dec = FrameDecoder()
            frames = dec.feed(wire[:cut]) + dec.feed(wire[cut:])
            got = [(f.link_id, f.seq, f.count, f.body, f.trace) for f in frames]
            assert got == expected, cut
            assert all(type(f.body) is bytes and type(f.trace) is bytes for f in frames)
            assert dec.pending_bytes == 0


class TestValidation:
    def test_corrupted_body_detected(self):
        enc, dec = FrameEncoder(), FrameDecoder()
        wire = bytearray(enc.encode(1, b"sensor-data", 1))
        wire[-1] ^= 0xFF
        with pytest.raises(SerializationError, match="checksum"):
            dec.feed(bytes(wire))

    def test_bad_magic_detected(self):
        dec = FrameDecoder()
        with pytest.raises(SerializationError, match="magic"):
            dec.feed(b"\x00" * HEADER_SIZE)

    def test_bad_version_detected(self):
        enc, dec = FrameEncoder(), FrameDecoder()
        wire = bytearray(enc.encode(1, b"", 0))
        wire[2] = 99  # version byte
        with pytest.raises(SerializationError, match="version"):
            dec.feed(bytes(wire))

    @pytest.mark.parametrize("old", [1, 2, 3, 4])
    def test_body_only_checksum_versions_refused(self, old):
        # Versions 1/2 carried xxh32(body), 3/4 a row-major body;
        # nothing that speaks them can exist in a job, so they are
        # refused, not dual-decoded.
        enc, dec = FrameEncoder(), FrameDecoder()
        wire = bytearray(enc.encode(1, b"body", 1, b"t" if old % 2 == 0 else b""))
        wire[2] = old
        with pytest.raises(SerializationError, match=f"unsupported frame version: {old}"):
            dec.feed(bytes(wire))

    @pytest.mark.parametrize("trace", [b"", b"\x01trace-notes"], ids=["plain", "traced"])
    def test_checksum_is_crc32_of_everything_else(self, trace):
        # The layout contract, stated once independently of the encoder:
        # 23 covered header bytes, the u32 CRC, then trace block + body.
        wire = FrameEncoder().encode(5, b"sensor-data", 3, trace)
        assert wire[2] == (VERSION_TRACED if trace else VERSION)
        (checksum,) = struct.unpack_from("<I", wire, HEADER_SIZE - 4)
        assert checksum == zlib.crc32(wire[: HEADER_SIZE - 4] + wire[HEADER_SIZE:])

    @pytest.mark.parametrize("trace", [b"", b"\x01trace-notes"], ids=["plain", "traced"])
    def test_every_single_bit_flip_is_refused(self, trace):
        # Header, trace length, trace and body alike: a corrupted frame
        # either raises or (a raised length) waits for the bytes it now
        # asks for and raises when they are there; it is never handed
        # to the caller.  Fed whole, and split at the flipped byte.
        wire = FrameEncoder().encode(9, b"sensor-data" * 3, 4, trace)
        assert FrameDecoder().feed(wire)  # the clean frame decodes
        for bit in range(len(wire) * 8):
            bad = bytearray(wire)
            bad[bit // 8] ^= 1 << (bit % 8)
            for cut in (0, bit // 8):
                dec = FrameDecoder()
                try:
                    frames = dec.feed(bytes(bad[:cut])) + dec.feed(bytes(bad[cut:]))
                except SerializationError:
                    continue
                assert frames == [], (bit, cut)
                assert dec.pending_bytes == len(wire)
                with pytest.raises(SerializationError, match="checksum"):
                    for _ in range(21):  # doubling: enough for a 32 MiB length
                        dec.feed(bytes(dec.pending_bytes))

    def test_dropped_frame_detected(self):
        enc, dec = FrameEncoder(), FrameDecoder()
        enc.encode(1, b"lost", 1)  # seq 0 never delivered
        wire = enc.encode(1, b"arrives", 1)  # seq 1
        with pytest.raises(SerializationError, match="out-of-order"):
            dec.feed(wire)

    def test_duplicate_frame_detected(self):
        enc, dec = FrameEncoder(), FrameDecoder()
        wire = enc.encode(1, b"once", 1)
        dec.feed(wire)
        with pytest.raises(SerializationError, match="out-of-order"):
            dec.feed(wire)

    def test_sequence_check_optional(self):
        enc = FrameEncoder()
        dec = FrameDecoder(verify_sequence=False)
        wire = enc.encode(1, b"x", 1)
        assert len(dec.feed(wire) + dec.feed(wire)) == 2

    def test_oversized_body_rejected_on_encode(self):
        enc = FrameEncoder()
        with pytest.raises(SerializationError):
            enc.encode(1, b"\x00" * (MAX_BODY + 1), 1)

    def test_link_id_range(self):
        enc = FrameEncoder()
        with pytest.raises(SerializationError):
            enc.encode(-1, b"", 0)
        with pytest.raises(SerializationError):
            enc.encode(2**32, b"", 0)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=10),
            st.binary(max_size=300),
            st.integers(min_value=0, max_value=100),
        ),
        max_size=20,
    ),
    st.integers(min_value=1, max_value=64),
)
def test_stream_roundtrip_property(batches, chunk):
    """Any batch sequence, any fragmentation → identical frames out."""
    enc, dec = FrameEncoder(), FrameDecoder()
    wire = b"".join(enc.encode(l, b, c) for l, b, c in batches)
    frames = []
    for i in range(0, len(wire), chunk):
        frames.extend(dec.feed(wire[i : i + chunk]))
    assert [(f.link_id, f.body, f.count) for f in frames] == batches


class TestEncoderSequenceQuery:
    def test_sequence_reflects_next_assignment(self):
        enc = FrameEncoder()
        assert enc.sequence(5) == 0
        enc.encode(5, b"x", 1)
        assert enc.sequence(5) == 1
        assert enc.sequence(6) == 0
