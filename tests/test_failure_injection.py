"""Failure injection: corruption, truncation, and protocol violations
must be *detected*, never silently delivered (paper §I-B: no corrupted
packets)."""

import socket
import threading

import pytest

from repro.core import PacketCodec
from repro.net import FrameEncoder, TcpListener
from repro.net.protocol import ACK
from repro.compression import CompressionPolicy
from repro.compression import policy as policy_module
from repro.compression.policy import FLAG_DEFLATE
from repro.util.errors import SerializationError
from repro.workloads import RELAY_SCHEMA

from waiters import wait_until


class TestWireCorruption:
    def _send_raw(self, lst, data):
        """Write raw bytes, close, and wait for the reader to finish.

        The reader thread exiting (EOF after the connection closes) is
        the deterministic "everything sent has been processed" signal —
        no fixed sleeps.
        """
        with socket.create_connection(("127.0.0.1", lst.port)) as sock:
            sock.sendall(data)
        assert wait_until(
            lambda: lst._threads and all(not t.is_alive() for t in lst._threads)
        )

    def test_bit_flip_detected_not_delivered(self):
        got = []
        lst = TcpListener("127.0.0.1", 0, sink=got.append)
        try:
            enc = FrameEncoder()
            wire = bytearray(enc.encode(1, b"critical-sensor-data", 1))
            wire[-5] ^= 0x40  # flip one payload bit in flight
            self._send_raw(lst, bytes(wire))
            assert lst.wait_error(2.0)
            assert got == []  # nothing delivered
            assert isinstance(lst.errors[0], SerializationError)
            assert "checksum" in str(lst.errors[0])
        finally:
            lst.close()

    def test_replayed_frame_detected(self):
        got = []
        lst = TcpListener("127.0.0.1", 0, sink=got.append)
        try:
            enc = FrameEncoder()
            frame = enc.encode(1, b"once-only", 1)
            with socket.create_connection(("127.0.0.1", lst.port)) as sock:
                sock.sendall(frame + frame)  # replay attack/dup
                # Both copies are acked: the duplicate is re-acked, so a
                # sender whose first ack was lost can still prune.
                acks = b""
                while len(acks) < 2 * ACK.size:
                    chunk = sock.recv(2 * ACK.size - len(acks))
                    assert chunk
                    acks += chunk
            assert acks == ACK.pack(1, 0) * 2
            # ... and suppressed, never delivered twice.
            assert [f.body for f in got] == [b"once-only"]
            assert lst.duplicates_suppressed == 1
            assert not lst.errors
        finally:
            lst.close()

    def test_garbage_bytes_detected(self):
        got = []
        lst = TcpListener("127.0.0.1", 0, sink=got.append)
        try:
            self._send_raw(lst, b"\xde\xad\xbe\xef" * 10)
            assert lst.wait_error(2.0)
            assert got == []
            assert "magic" in str(lst.errors[0])
        finally:
            lst.close()

    def test_truncated_connection_delivers_nothing_partial(self):
        got = []
        lst = TcpListener("127.0.0.1", 0, sink=got.append)
        try:
            enc = FrameEncoder()
            wire = enc.encode(1, b"X" * 1000, 1)
            self._send_raw(lst, wire[: len(wire) // 2])  # cut mid-frame
            assert got == []  # incomplete frame never surfaces
            assert not lst.errors  # a cut connection is not corruption
        finally:
            lst.close()


class TestCompressedPayloadCorruption:
    def test_corrupt_deflate_body_never_silently_correct(self):
        """A flipped byte either trips the decoder's structural checks
        or yields different bytes — it can never masquerade as the
        original payload.  (On the wire, the frame checksum catches it
        before the decompressor ever runs.)"""
        payload = b"aaaabbbbcccc" * 50
        policy = CompressionPolicy(entropy_threshold=8.0, min_size=0)
        encoded = bytearray(policy.encode(payload))
        assert encoded[0] == FLAG_DEFLATE  # actually compressed
        for position in range(1, len(encoded)):
            mutated = bytearray(encoded)
            mutated[position] ^= 0xFF
            try:
                decoded = CompressionPolicy.decode(bytes(mutated))
            except ValueError:
                continue  # structural violation detected
            assert decoded != payload

    def test_decompression_bomb_guard(self, monkeypatch):
        # A tiny body claiming to expand hugely must hit the cap.
        monkeypatch.setattr(policy_module, "MAX_DECOMPRESSED", 1 << 20)
        policy = CompressionPolicy(entropy_threshold=8.0, min_size=0)
        huge = policy.encode(b"\x00" * (10 << 20))
        assert huge[0] == FLAG_DEFLATE and len(huge) < 64 << 10
        with pytest.raises(ValueError, match="inflates past"):
            CompressionPolicy.decode(huge)


class TestSerdeCorruption:
    def test_truncated_batch_detected(self):
        codec = PacketCodec(RELAY_SCHEMA)
        body = codec.encode_batch(
            [
                RELAY_SCHEMA.new_packet(seq=i, emitted_at=0.0, payload=b"p" * 20)
                for i in range(10)
            ]
        )
        with pytest.raises(SerializationError):
            list(codec.iter_decode(body[:-7], count=10))

    def test_garbage_batch_detected(self):
        codec = PacketCodec(RELAY_SCHEMA)
        # A bytes column whose lengths run past the buffer.
        with pytest.raises(SerializationError):
            list(codec.iter_decode(b"\xff" * 40, count=2))


class TestBlockedShutdown:
    def test_listener_close_while_sink_blocked(self):
        """Closing the listener while its reader thread is blocked in a
        gated channel must not hang."""
        from repro.net import ChannelClosed, WatermarkChannel

        ch = WatermarkChannel(high_watermark=64, low_watermark=8)

        def sink(frame):
            try:
                ch.put(len(frame.body), frame)
            except ChannelClosed:
                pass

        lst = TcpListener("127.0.0.1", 0, sink=sink)
        enc = FrameEncoder()

        def flood():
            try:
                with socket.create_connection(("127.0.0.1", lst.port)) as sock:
                    for i in range(50):
                        sock.sendall(enc.encode(1, b"z" * 64, 1))
            except OSError:
                pass

        t = threading.Thread(target=flood)
        t.start()
        # One 64-byte frame fills the channel to its high watermark, so
        # once anything is queued the reader is gated.
        assert wait_until(lambda: len(ch) >= 1)
        ch.close()  # release the reader
        lst.close()  # must join promptly
        t.join(5.0)
        assert not t.is_alive()
