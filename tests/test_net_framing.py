"""Tests for wire framing: encode/decode, corruption and ordering checks."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.net import FrameDecoder, FrameEncoder
from repro.net.framing import HEADER_SIZE, MAX_BODY
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
        # traced (version 2) frame and an empty one at every offset,
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
