"""Tests for TCP and Unix-domain transports, including TCP
backpressure.  (The same-resource leg has no transport: see
``tests/test_link_path.py::TestLocalLeg``.)"""

import os
import socket
import struct
import threading
import time

import pytest

from repro.net import (
    ChannelClosed,
    FrameEncoder,
    RetryPolicy,
    TcpListener,
    TcpTransport,
    WatermarkChannel,
    is_unix_endpoint,
)
from repro.net import transport
from repro.util.errors import TransportError

from procharness import reserve_ports
from waiters import FrameCollector, wait_stalled, wait_until


class TestTcpTransport:
    def test_end_to_end_frames(self):
        got = FrameCollector()
        lst = TcpListener("127.0.0.1", 0, sink=got)
        try:
            tx = TcpTransport("127.0.0.1", lst.port)
            for i in range(20):
                tx.send(link_id=5, body=f"msg-{i}".encode(), count=1)
            assert got.wait(20, timeout=5.0)
            frames = got.snapshot()
            assert [f.body.decode() for f in frames] == [f"msg-{i}" for i in range(20)]
            assert [f.seq for f in frames] == list(range(20))
            assert tx.frames_sent == 20
            tx.close()
        finally:
            lst.close()

    def test_multiple_links_multiplexed(self):
        got = FrameCollector()
        lst = TcpListener("127.0.0.1", 0, sink=got)
        try:
            tx = TcpTransport("127.0.0.1", lst.port)
            for i in range(10):
                tx.send(link_id=i % 3, body=bytes([i]), count=1)
            assert got.wait(10, timeout=5.0)
            by_link = {}
            for f in got.snapshot():
                by_link.setdefault(f.link_id, []).append(f.seq)
            assert by_link == {0: [0, 1, 2, 3], 1: [0, 1, 2], 2: [0, 1, 2]}
            tx.close()
        finally:
            lst.close()

    def test_connect_refused(self):
        with pytest.raises(TransportError):
            TcpTransport("127.0.0.1", 1)  # nothing listens on port 1

    def test_send_after_close(self):
        lst = TcpListener("127.0.0.1", 0, sink=lambda f: None)
        try:
            tx = TcpTransport("127.0.0.1", lst.port)
            tx.close()
            tx.close()  # idempotent
            with pytest.raises(TransportError):
                tx.send(1, b"x", 1)
        finally:
            lst.close()

    def test_concurrent_senders_no_interleaving(self):
        got = FrameCollector()
        lst = TcpListener("127.0.0.1", 0, sink=got)
        try:
            tx = TcpTransport("127.0.0.1", lst.port)

            def sender(link):
                for i in range(50):
                    tx.send(link, f"{link}:{i}".encode() * 20, 1)

            threads = [threading.Thread(target=sender, args=(l,)) for l in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(10.0)
            assert got.wait(200, timeout=5.0)
            frames = got.snapshot()
            assert len(frames) == 200
            # Frame decoding would have raised on interleaved bytes; also
            # verify per-link ordering.
            for link in range(4):
                seqs = [f.seq for f in frames if f.link_id == link]
                assert seqs == sorted(seqs)
            tx.close()
        finally:
            lst.close()


class TestOneMode:
    """Every link acks, replays and resumes: the keywords of the modes
    that used to exist are accepted only with the one mode's values."""

    def test_listener_refuses_the_non_acking_and_non_resuming_modes(self):
        for kwargs in ({"ack": False}, {"resume": False}):
            with pytest.raises(ValueError):
                TcpListener("127.0.0.1", 0, sink=lambda f: None, **kwargs)
        TcpListener("127.0.0.1", 0, sink=lambda f: None, ack=True, resume=True).close()

    def test_a_failing_link_failure_callback_is_counted_not_swallowed(self):
        def callback(exc):
            raise RuntimeError("observer down")

        lst = TcpListener("127.0.0.1", 0, sink=lambda f: None)
        tx = TcpTransport(
            "127.0.0.1",
            lst.port,
            retry=RetryPolicy(max_retries=1, backoff_base=0.01, backoff_max=0.01),
            on_link_failure=callback,
        )
        lst.close()
        # The ack reader sees the listener hang up; the next send must
        # reconnect, and nothing listens any more.
        assert wait_until(lambda: tx._conn_dead)
        with pytest.raises(TransportError, match="reconnect attempts failed"):
            tx.send(1, b"x", 1)
        assert tx.link_failure_callback_errors == 1
        assert str(tx.last_link_failure_callback_error) == "observer down"
        tx.close()


class TestReservedPorts:
    def test_listener_binds_a_reserved_port(self):
        """The shared helper's reservation survives the probe socket's
        close (SO_REUSEADDR): the listener binds the exact port without
        a TIME_WAIT race — the fix for the old hardcoded-port flake."""
        port = reserve_ports(1)[0]
        lst = TcpListener("127.0.0.1", port, sink=lambda f: None)
        try:
            assert lst.port == port
            tx = TcpTransport("127.0.0.1", port)
            tx.send(1, b"hello", 1)
            tx.close()
        finally:
            lst.close()


class TestUnixTransport:
    def test_endpoint_detection(self):
        assert is_unix_endpoint("unix:/tmp/x.sock")
        assert not is_unix_endpoint("127.0.0.1")
        assert not is_unix_endpoint("example.org")

    def test_end_to_end_frames(self, tmp_path):
        endpoint = f"unix:{tmp_path / 'fabric.sock'}"
        got = FrameCollector()
        lst = TcpListener(endpoint, 0, sink=got)
        try:
            assert lst.host == endpoint and lst.port == 0
            tx = TcpTransport(endpoint, 0)
            for i in range(20):
                tx.send(link_id=7, body=f"msg-{i}".encode(), count=1)
            assert got.wait(20, timeout=5.0)
            frames = got.snapshot()
            assert [f.body.decode() for f in frames] == [
                f"msg-{i}" for i in range(20)
            ]
            assert [f.seq for f in frames] == list(range(20))
            tx.close()
        finally:
            lst.close()

    def test_socket_file_lifecycle(self, tmp_path):
        """Bind replaces stale residue from a crashed listener; close
        removes the socket file."""
        path = tmp_path / "w0.sock"
        endpoint = f"unix:{path}"
        lst = TcpListener(endpoint, 0, sink=lambda f: None)
        lst.close()
        assert not path.exists()
        # Simulate a crash leaving the file behind: rebinding must work.
        path.touch()
        lst = TcpListener(endpoint, 0, sink=lambda f: None)
        try:
            tx = TcpTransport(endpoint, 0)
            tx.send(1, b"x", 1)
            tx.close()
        finally:
            lst.close()
        assert not path.exists()

    def test_connect_refused(self, tmp_path):
        with pytest.raises(TransportError):
            TcpTransport(f"unix:{tmp_path / 'absent.sock'}", 0)


class TestTcpBackpressure:
    def test_gated_sink_throttles_sender(self, monkeypatch):
        """A slow/gated receiver must stall the TCP sender (no drops)."""
        ch = WatermarkChannel(high_watermark=4096, low_watermark=512)

        def sink(frame):
            try:
                ch.put(len(frame.body), frame)
            except ChannelClosed:
                pass

        monkeypatch.setattr(transport, "RECV_BUFFER", 4096)
        lst = TcpListener("127.0.0.1", 0, sink=sink)
        sent_count = [0]
        done = [False]

        def sender():
            tx = TcpTransport("127.0.0.1", lst.port)
            # Keep kernel-side buffering small so pressure appears fast.
            import socket as _socket

            tx._sock.setsockopt(_socket.SOL_SOCKET, _socket.SO_SNDBUF, 4096)
            body = b"z" * 2048
            try:
                for _ in range(500):
                    tx.send(1, body, 1)
                    sent_count[0] += 1
                done[0] = True
            except TransportError:
                pass
            finally:
                tx.close()

        t = threading.Thread(target=sender)
        try:
            t.start()
            # Wait for the send counter to flatline: the channel gates
            # after ~2 frames, kernel buffers absorb a few more, and the
            # sender must then be fully stalled, far from finished.
            stalled_at = wait_stalled(lambda: sent_count[0], quiet=0.3, timeout=10.0)
            assert not done[0]
            assert stalled_at < 400

            # Drain continuously → sender completes, nothing lost.
            received = [len(ch.drain())]

            def drainer():
                # Drain until every frame has crossed (the reader thread
                # may still be blocked in put() after the sender's last
                # send returns, so "sender done" alone is not enough).
                # This loop IS the consumer, so it polls by necessity.
                import time as _time

                deadline = _time.monotonic() + 30
                while received[0] < 500 and _time.monotonic() < deadline:
                    received[0] += len(ch.drain())
                    _time.sleep(0.005)

            d = threading.Thread(target=drainer)
            d.start()
            t.join(30.0)
            d.join(35.0)
            assert done[0]
            assert received[0] == 500
        finally:
            ch.close()
            lst.close()


_ACK = struct.Struct("<IQ")


def _read_ack(sock):
    buf = b""
    while len(buf) < _ACK.size:
        chunk = sock.recv(_ACK.size - len(buf))
        if not chunk:
            return None  # listener closed the connection
        buf += chunk
    return _ACK.unpack(buf)


class TestResumeListenerSinkFailure:
    """check -> sink -> commit: a frame whose sink raised was never
    delivered, so its replay must be delivered, not acked as a
    duplicate and dropped."""

    def test_replay_after_sink_error_is_delivered_exactly_once(self):
        fail_at, total = 3, 7
        delivered: list[int] = []
        failed_once = []

        def sink(frame):
            if frame.seq == fail_at and not failed_once:
                failed_once.append(frame.seq)
                raise RuntimeError("sink failed on this frame")
            delivered.append(frame.seq)

        lst = TcpListener("127.0.0.1", 0, sink=sink, ack=True, resume=True)
        encoder = FrameEncoder()
        wires = [encoder.encode(9, b"frame-%d" % i, 1) for i in range(total)]
        try:
            # First connection: frames 0..fail_at, each acked in turn
            # until the failing one makes the listener hang up.
            with socket.create_connection(("127.0.0.1", lst.port), timeout=5.0) as first:
                for seq in range(fail_at):
                    first.sendall(wires[seq])
                    assert _read_ack(first) == (9, seq)
                first.sendall(wires[fail_at])
                assert _read_ack(first) is None
            assert lst.wait_error(5.0)
            assert isinstance(lst.errors[0], RuntimeError)
            assert delivered == list(range(fail_at))
            # Replay on a fresh connection, as a transport would: from
            # the oldest frame it holds — one the listener did deliver,
            # a true duplicate — through the failed one to the end.
            with socket.create_connection(("127.0.0.1", lst.port), timeout=5.0) as second:
                for seq in range(fail_at - 1, total):
                    second.sendall(wires[seq])
                    assert _read_ack(second) == (9, seq)
            assert delivered == list(range(total))
            assert lst.duplicates_suppressed == 1
            assert lst.receiver.expected(9) == total
            assert lst.receiver.delivered == total
        finally:
            lst.close()


class TestResumeListenerHeaderCorruption:
    """The frame checksum covers the header: a flipped ``seq`` or
    ``count`` is a corrupted frame — reset, replay — never a frame to
    classify by the corrupted sequence or hand on with the corrupted
    count."""

    # (offset of the field's low byte, bit to flip) on frame 3 (count 1).
    @pytest.mark.parametrize(
        "offset, bit", [(7, 0x02), (15, 0x01)], ids=["seq-lowered", "count-flipped"]
    )
    def test_header_bit_flip_resets_and_the_replay_is_delivered(self, offset, bit):
        bad_at, total = 3, 7
        delivered: list[tuple[int, int, bytes]] = []
        lst = TcpListener(
            "127.0.0.1",
            0,
            sink=lambda f: delivered.append((f.seq, f.count, f.body)),
            ack=True,
            resume=True,
        )
        encoder = FrameEncoder()
        wires = [encoder.encode(9, b"frame-%d" % i, 1) for i in range(total)]
        expected = [(i, 1, b"frame-%d" % i) for i in range(total)]
        corrupted = bytearray(wires[bad_at])
        corrupted[offset] ^= bit
        try:
            with socket.create_connection(("127.0.0.1", lst.port), timeout=5.0) as first:
                for seq in range(bad_at):
                    first.sendall(wires[seq])
                    assert _read_ack(first) == (9, seq)
                first.sendall(bytes(corrupted))
                # Neither acked (as the duplicate its seq claims to be)
                # nor delivered (with the count it claims to have).
                assert _read_ack(first) is None
            assert lst.wait_error(5.0)
            assert "checksum" in str(lst.errors[0])
            assert lst.corruption_resets == 1
            assert delivered == expected[:bad_at]
            # The sender's replay: from its oldest unacknowledged frame.
            with socket.create_connection(("127.0.0.1", lst.port), timeout=5.0) as second:
                for seq in range(bad_at, total):
                    second.sendall(wires[seq])
                    assert _read_ack(second) == (9, seq)
            assert delivered == expected
            assert lst.duplicates_suppressed == 0
            assert lst.gap_resets == 0
            assert lst.receiver.delivered == total
        finally:
            lst.close()


class TestSendWaitReporting:
    """``send(on_wait=...)`` reports waits for the receiver, nothing else."""

    def test_window_stall_and_serialized_senders_report_their_waits(self):
        release = threading.Event()
        arrived = FrameCollector()

        def sink(frame):
            release.wait(10.0)  # acks are withheld until released
            arrived(frame)

        lst = TcpListener("127.0.0.1", 0, sink=sink, ack=True, resume=True)
        body = b"w" * 600
        tx = TcpTransport(
            "127.0.0.1",
            lst.port,
            retry=RetryPolicy(replay_window_bytes=1000),
        )
        waits: dict[str, list[float]] = {"first": [], "stalled": [], "behind": []}
        try:
            tx.send(1, body, 1, on_wait=waits["first"].append)
            assert waits["first"] == []  # the window had room: no wait
            # The second frame does not fit until the first is acked; a
            # third sender queues behind it on the transport's lock.
            stalled = threading.Thread(
                target=tx.send,
                args=(1, body, 1),
                kwargs={"on_wait": waits["stalled"].append},
                daemon=True,
            )
            stalled.start()
            assert wait_until(lambda: tx.send_stalls == 1)
            behind = threading.Thread(
                target=tx.send,
                args=(2, body, 1),
                kwargs={"on_wait": waits["behind"].append},
                daemon=True,
            )
            behind.start()
            time.sleep(0.2)
            release.set()
            stalled.join(5.0)
            behind.join(5.0)
            assert not stalled.is_alive() and not behind.is_alive()
            assert arrived.wait(3, timeout=5.0)
        finally:
            release.set()
            tx.close()
            lst.close()
        assert len(waits["stalled"]) == 1 and waits["stalled"][0] >= 0.2
        # Behind the stalled send it waited for the lock (and then, the
        # window being full again, possibly for an ack of its own).
        assert waits["behind"] and sum(waits["behind"]) >= 0.15
