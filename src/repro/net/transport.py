"""Transport endpoints.

A transport moves one flushed buffer (a batch of serialized stream
packets for one link) to a receiving resource:
:class:`TcpTransport` / :class:`TcpListener`.  Frames ride TCP; the
listener's reader thread blocks on the gated inbound channel, the
kernel receive buffer fills, the TCP window closes, and the sender's
blocking ``sendall`` stalls — the paper's TCP-flow-control leg of
backpressure, for real.  (Between operators of the *same* resource no
transport is involved: the runtime's local leg puts the batch into the
receiver's :class:`~repro.net.flowcontrol.WatermarkChannel` directly,
see :func:`repro.core.runtime._local_leg`.)

The transport preserves per-link FIFO order and delivers exactly once
(sequence numbers + checksums are verified by the framing layer).

Failure recovery (paper §I-B "no dropped packets", §VI fault
tolerance): with a :class:`RetryPolicy`, a :class:`TcpTransport`
survives mid-stream connection loss.  It keeps every sent frame in a
bounded replay window until the receiver acknowledges delivery
(12-byte ``(link_id, seq)`` ack records ride the same socket in the
reverse direction); on any socket error it reconnects with
exponential backoff plus seeded jitter and replays the unacknowledged
window in order.  The listener, in *resume* mode, carries per-link
sequence expectations across connections (:class:`SequenceTracker`):
replayed frames that did survive the failure are suppressed as
duplicates, detected gaps and checksum corruption sever the connection
to demand a retransmit.  Net effect: a link either delivers every
frame exactly once or fails loudly after the retry budget — never
silently loses or duplicates data.
"""

from __future__ import annotations

import os
import random
import socket
import struct
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable

from repro.net.flowcontrol import ChannelClosed
from repro.net.framing import (
    HEADER_SIZE,
    Frame,
    FrameDecoder,
    FrameEncoder,
    SequenceTracker,
)
from repro.util.clock import timed_acquire
from repro.util.errors import SerializationError, TransportError

# One batch delivered to a receiver: (link_id, packet_count, body bytes).
Batch = tuple[int, int, bytes]

#: Ack record carried on the reverse path: (link_id, seq) delivered.
_ACK = struct.Struct("<IQ")

#: Host-string prefix selecting a Unix-domain socket endpoint.
UNIX_PREFIX = "unix:"

#: Seconds a graceful :meth:`TcpTransport.close` waits for the replay
#: window to drain.
CLOSE_DRAIN_TIMEOUT = 5.0


def is_unix_endpoint(host: str) -> bool:
    """True when ``host`` names a Unix-domain socket (``"unix:/path"``).

    Same-host shard fabrics can skip the loopback TCP stack entirely:
    both :class:`TcpTransport` and :class:`TcpListener` accept a host of
    the form ``"unix:/path/to.sock"`` (the port is then ignored, 0 by
    convention) and speak the identical framing/ack/replay protocol
    over ``AF_UNIX``.
    """
    return host.startswith(UNIX_PREFIX)


def _connect_endpoint(host: str, port: int, timeout: float | None) -> socket.socket:
    """Open a stream connection to ``(host, port)`` or, for a
    ``"unix:/path"`` host, to that Unix socket path.

    TCP connections disable Nagle: latency matters for small flushes
    and batching is done at the application layer, as NEPTUNE/Netty
    does.  ``AF_UNIX`` has no Nagle to disable.
    """
    if is_unix_endpoint(host):
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            sock.settimeout(timeout)
            sock.connect(host[len(UNIX_PREFIX) :])
        except OSError:
            sock.close()
            raise
        return sock
    sock = socket.create_connection((host, port), timeout=timeout)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


@dataclass(frozen=True)
class RetryPolicy:
    """Reconnect/retry behaviour for a :class:`TcpTransport`.

    Attributes
    ----------
    max_retries:
        Consecutive failed reconnect attempts tolerated before the
        transport gives up (raises :class:`TransportError` and fires
        the ``on_link_failure`` callback).
    backoff_base / backoff_max:
        Exponential backoff: attempt ``n`` sleeps
        ``min(backoff_max, backoff_base * 2**n)`` seconds ...
    backoff_jitter:
        ... multiplied by a random factor in ``[1-j, 1+j]`` drawn from
        a generator seeded by ``seed`` (and the endpoint), so backoff
        sequences are reproducible under a fixed fault schedule while
        still decorrelating concurrent links.
    send_timeout:
        Upper bound on how long one ``send`` may block waiting for
        replay-window space (i.e. for acks).  None = wait forever.
    replay_window_bytes:
        Replay-buffer capacity.  A send blocks (flow control on
        unacknowledged data) rather than evicting — eviction would
        silently forfeit the zero-loss guarantee.
    seed:
        Seed for the jitter generator (chaos scenarios pin it).
    """

    max_retries: int = 6
    backoff_base: float = 0.05
    backoff_max: float = 2.0
    backoff_jitter: float = 0.25
    send_timeout: float | None = 10.0
    replay_window_bytes: int = 8 << 20
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0: {self.max_retries}")
        if self.backoff_base <= 0:
            raise ValueError(f"backoff_base must be positive: {self.backoff_base}")
        if self.backoff_max < self.backoff_base:
            raise ValueError(
                f"backoff_max must be >= backoff_base: {self.backoff_max}"
            )
        if not 0.0 <= self.backoff_jitter <= 1.0:
            raise ValueError(
                f"backoff_jitter must be in [0, 1]: {self.backoff_jitter}"
            )
        if self.replay_window_bytes <= 0:
            raise ValueError(
                f"replay_window_bytes must be positive: {self.replay_window_bytes}"
            )

    def backoff(self, attempt: int, rng: random.Random) -> float:
        """Backoff delay before reconnect ``attempt`` (0-based)."""
        raw = min(self.backoff_max, self.backoff_base * (2**attempt))
        if self.backoff_jitter <= 0:
            return raw
        return raw * (1.0 - self.backoff_jitter + 2.0 * self.backoff_jitter * rng.random())


class TcpTransport:
    """Blocking TCP client carrying NEPTUNE frames.

    One instance per (sender resource → receiver resource) pair; all
    links between the pair multiplex over the single connection, which
    is how NEPTUNE amortizes connection state.  ``send`` is serialized
    by a lock so frame bytes from concurrent flushes never interleave.

    With ``retry`` set, the transport keeps unacknowledged frames in a
    replay window and transparently reconnects + replays on connection
    loss (see module docstring).  The peer listener must then run with
    ``ack=True, resume=True``.

    Parameters
    ----------
    host, port:
        Destination listener.  A host of the form ``"unix:/path"``
        connects to that Unix-domain socket instead (port ignored).
    connect_timeout:
        Bound on the *initial* connection attempt (reconnects use the
        retry policy's backoff schedule).
    retry:
        :class:`RetryPolicy` enabling recovery; None = legacy fail-fast
        (any socket error raises :class:`TransportError` immediately).
    injector:
        Optional :class:`~repro.chaos.injector.FaultInjector`; every
        *first-time* frame send is intercepted at ``site`` (replays are
        never re-injected, so a fault plan addresses stable frame
        ordinals).
    site:
        Injection site name recorded in fault traces.
    on_link_failure:
        Callback fired (with the terminal exception) when the retry
        budget is exhausted and the link is declared dead.
    observer:
        Optional :class:`~repro.observe.observer.RuntimeObserver`;
        reconnects, replays, and terminal link failures land on its
        event timeline.
    """

    def __init__(
        self,
        host: str,
        port: int,
        connect_timeout: float = 10.0,
        retry: RetryPolicy | None = None,
        injector=None,
        site: str = "tcp.send",
        on_link_failure: Callable[[BaseException], None] | None = None,
        observer=None,
    ) -> None:
        self._host = host
        self._port = port
        self._connect_timeout = connect_timeout
        self._retry = retry
        self._injector = injector
        self._site = site
        self._on_link_failure = on_link_failure
        self._observer = observer
        self._encoder = FrameEncoder()
        self._lock = threading.Lock()  # serializes writes + recovery
        self._state = threading.Lock()  # guards the replay window
        self._acks = threading.Condition(self._state)
        self._unacked: deque[tuple[int, int, bytes]] = deque()
        self._unacked_bytes = 0
        self._acked_high: dict[int, int] = {}
        self._closed = False
        self._conn_dead = False
        self._conn_gen = 0
        self._last_ack_at = time.monotonic()
        # zlib.crc32-free stable endpoint hash: Python's str hash is
        # randomized per process, which would make jitter sequences
        # irreproducible across runs.
        endpoint = f"{host}:{port}".encode()
        self._rng = random.Random(
            (retry.seed if retry else 0) ^ int.from_bytes(endpoint[-4:], "little")
        )
        try:
            self._sock = _connect_endpoint(host, port, connect_timeout)
        except OSError as exc:
            raise TransportError(f"connect to {host}:{port} failed: {exc}") from exc
        self._sock.settimeout(None)
        self.bytes_sent = 0
        self.frames_sent = 0
        self.acked_frames = 0
        self.reconnects = 0
        self.replayed_frames = 0
        self.send_stalls = 0
        if retry is not None:
            self._start_ack_reader(self._sock, self._conn_gen)

    # -- ack path -----------------------------------------------------------
    def _start_ack_reader(self, sock: socket.socket, gen: int) -> None:
        t = threading.Thread(
            target=self._ack_loop,
            args=(sock, gen),
            name=f"neptune-tcp-ack-reader-{self._port}",
            daemon=True,
        )
        t.start()

    def _ack_loop(self, sock: socket.socket, gen: int) -> None:
        buf = b""
        try:
            while True:
                chunk = sock.recv(4096)
                if not chunk:
                    break
                buf += chunk
                while len(buf) >= _ACK.size:
                    link_id, seq = _ACK.unpack_from(buf)
                    buf = buf[_ACK.size :]
                    self._on_ack(link_id, seq)
        except OSError:
            pass
        # This connection is gone.  If it is still the current one,
        # flag it and (opportunistically) recover so a receiver-driven
        # reset triggers a replay even with no new sends in flight.
        # With an empty replay window there is nothing to recover —
        # an idle connection dying is how a peer shuts down, not a
        # fault, so reconnecting would only hammer a closed listener.
        with self._state:
            if self._conn_gen != gen or self._closed:
                return
            self._conn_dead = True
            has_unacked = bool(self._unacked)
            self._acks.notify_all()
        if not has_unacked:
            return
        if self._lock.acquire(blocking=False):
            try:
                if not self._closed and self._conn_dead:
                    try:
                        self._recover()
                    except TransportError:
                        pass  # surfaced to the next send / ensure_delivered
            finally:
                self._lock.release()

    def _on_ack(self, link_id: int, seq: int) -> None:
        with self._state:
            self._last_ack_at = time.monotonic()
            high = self._acked_high.get(link_id, -1)
            if seq > high:
                self._acked_high[link_id] = seq
            while self._unacked:
                l, s, wire = self._unacked[0]
                if s <= self._acked_high.get(l, -1):
                    self._unacked.popleft()
                    self._unacked_bytes -= len(wire)
                    self.acked_frames += 1
                else:
                    break
            self._acks.notify_all()

    # -- send ------------------------------------------------------------------
    def send(
        self,
        link_id: int,
        body: bytes | bytearray | memoryview,
        count: int,
        trace: bytes = b"",
        on_wait: Callable[[float], None] | None = None,
    ) -> None:
        """Deliver one batch; blocks under backpressure.  Never drops.

        ``body`` may be a pooled bytearray on loan from the flushing
        :class:`~repro.core.buffering.StreamBuffer` — the transport has
        fully consumed it by the time ``send`` returns, so the caller
        may recycle it immediately.  ``trace`` is an opaque observe
        trace block that must ride the frame to the receiver (see
        :mod:`repro.observe.tracing`).  ``on_wait`` is told the seconds
        of every wait for the receiver this send went through (a gated
        channel, a full replay window, another send held up by one);
        the time to move the bytes is not a wait.
        """
        # Sends are serialized: behind one that waits for window space,
        # every other leg to this peer waits here.
        waited = timed_acquire(self._lock, time.monotonic)
        if waited and on_wait is not None:
            on_wait(waited)
        try:
            if self._closed:
                raise TransportError("send on closed transport")
            if self._retry is None and self._injector is None:
                # Hot path: write (header, body) without materializing
                # the concatenated frame — zero-copy all the way to the
                # socket.
                header, payload = self._encoder.encode_parts(
                    link_id, body, count, trace
                )
                try:
                    self._sock.sendall(header)
                    if len(payload):
                        self._sock.sendall(payload)
                except OSError as exc:
                    raise TransportError(f"send failed: {exc}") from exc
                with self._state:
                    self.bytes_sent += len(header) + len(payload)
                    self.frames_sent += 1
                return
            if self._retry is not None:
                if self._conn_dead:
                    self._recover()
                # Reserve window space BEFORE assigning the sequence
                # number: a window timeout must not strand a gap in the
                # link's sequence space.
                self._wait_window(HEADER_SIZE + len(trace) + len(body), on_wait)
                # The replay window stores full wire bytes (one
                # materialized copy — the price of replayability), so a
                # trace block survives retransmission byte-identically.
                wire = self._encoder.encode(link_id, body, count, trace)
                seq = self._encoder.sequence(link_id) - 1
                with self._state:
                    self._unacked.append((link_id, seq, wire))
                    self._unacked_bytes += len(wire)
            else:
                wire = self._encoder.encode(link_id, body, count, trace)
            chunks, kill_after = [wire], False
            if self._injector is not None:
                chunks, kill_after, _ = self._injector.apply_to_wire(self._site, wire)
            try:
                for chunk in chunks:
                    self._sock.sendall(chunk)
                if kill_after:
                    self._sever_current()
                    raise OSError("connection severed by fault injection")
            except OSError as exc:
                if self._retry is None:
                    raise TransportError(f"send failed: {exc}") from exc
                self._recover()
            # Stats live under _state (shared with the ack reader);
            # _lock only serializes the send/recovery pipeline.
            with self._state:
                self.bytes_sent += len(wire)
                self.frames_sent += 1
        finally:
            self._lock.release()

    def _wait_window(
        self, incoming: int, on_wait: Callable[[float], None] | None = None
    ) -> None:
        """Block until the replay window can absorb ``incoming`` bytes.

        A send that actually has to wait is a *stall*: the receiver is
        not acking fast enough to keep the window open — the TCP-level
        face of backpressure.  Stalls are counted and land on the
        timeline so ``repro doctor`` can fold them into cascades.
        """
        assert self._retry is not None
        deadline = (
            None
            if self._retry.send_timeout is None
            else time.monotonic() + self._retry.send_timeout
        )
        stalled_at: float | None = None
        with self._state:
            while self._unacked_bytes + incoming > self._retry.replay_window_bytes:
                if self._conn_dead:
                    break  # recover (with the lock held by our caller)
                if stalled_at is None:
                    stalled_at = time.monotonic()
                    self.send_stalls += 1
                remaining = 0.05 if deadline is None else min(0.05, deadline - time.monotonic())
                if deadline is not None and remaining <= 0:
                    raise TransportError(
                        f"replay window full for {self._retry.send_timeout}s "
                        f"({self._unacked_bytes} unacked bytes): receiver not acking"
                    )
                self._acks.wait(remaining)
        if stalled_at is not None:
            stalled = time.monotonic() - stalled_at
            if on_wait is not None:
                on_wait(stalled)
            if self._observer is not None:
                self._observer.event(
                    "transport",
                    "send_stall",
                    endpoint=f"{self._host}:{self._port}",
                    stalled_seconds=stalled,
                    window_bytes=self._retry.replay_window_bytes,
                )
        if self._conn_dead:
            self._recover()

    def _sever_current(self) -> None:
        """Hard-close the current socket (fault injection / recovery)."""
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass

    # -- recovery ------------------------------------------------------------
    def _recover(self) -> None:
        """Reconnect with backoff and replay the unacked window.

        Caller must hold ``_lock``.  Raises :class:`TransportError`
        (after firing ``on_link_failure``) when the retry budget is
        exhausted.
        """
        assert self._retry is not None
        policy = self._retry
        self._sever_current()
        attempt = 0
        while True:
            if self._closed:
                raise TransportError("transport closed during recovery")
            if attempt > 0:  # first reconnect is immediate
                time.sleep(policy.backoff(attempt - 1, self._rng))
            try:
                sock = _connect_endpoint(self._host, self._port, self._connect_timeout)
                sock.settimeout(None)
                with self._state:
                    replay = list(self._unacked)
                    self._sock = sock
                    self._conn_gen += 1
                    gen = self._conn_gen
                    self._conn_dead = False
                    self._last_ack_at = time.monotonic()
                self._start_ack_reader(sock, gen)
                # Replays bypass the injector: fault plans address
                # first-time sends only, keeping traces deterministic.
                for _link, _seq, wire in replay:
                    sock.sendall(wire)
                with self._state:
                    self.reconnects += 1
                    self.replayed_frames += len(replay)
                if self._observer is not None:
                    self._observer.event(
                        "transport",
                        "reconnect",
                        endpoint=f"{self._host}:{self._port}",
                        attempts=attempt + 1,
                        replayed_frames=len(replay),
                    )
                return
            except OSError as exc:
                attempt += 1
                if attempt > policy.max_retries:
                    self._declare_dead(exc)

    def _declare_dead(self, exc: BaseException) -> None:
        err = TransportError(
            f"link to {self._host}:{self._port} lost: "
            f"{self._retry.max_retries} reconnect attempts failed: {exc}"
        )
        if self._observer is not None:
            self._observer.event(
                "transport",
                "link_failed",
                endpoint=f"{self._host}:{self._port}",
                error=str(exc),
            )
        if self._on_link_failure is not None:
            try:
                self._on_link_failure(err)
            except Exception:
                pass  # notification must not mask the transport error
        raise err from exc

    # -- delivery assurance -----------------------------------------------
    @property
    def unacked_frames(self) -> int:
        """Frames sent but not yet acknowledged (0 without a policy)."""
        with self._state:
            return len(self._unacked)

    @property
    def unacked_bytes(self) -> int:
        """Bytes in the replay window awaiting acknowledgement."""
        with self._state:
            return self._unacked_bytes

    def ensure_delivered(self, timeout: float = 10.0, stall: float = 0.5) -> bool:
        """Block until every sent frame is acknowledged (retry mode).

        Recovers (reconnect + replay) if the connection dies — or if
        ack progress stalls for ``stall`` seconds, which heals frames
        the network swallowed without killing the connection (e.g. an
        injected ``drop`` on the final frame, with no later frame to
        trip the receiver's gap detection).  Returns True when the
        window drained, False on timeout or terminal link failure.
        No-op True without a policy.
        """
        if self._retry is None:
            return True
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            force = False
            with self._state:
                if not self._unacked:
                    return True
                dead = self._conn_dead
                if not dead:
                    if time.monotonic() - self._last_ack_at > stall:
                        force = True
                    else:
                        self._acks.wait(0.05)
                        continue
            if dead or force:
                with self._lock:
                    if self._closed:
                        return False
                    try:
                        if self._conn_dead or force:
                            self._recover()
                        with self._state:
                            self._last_ack_at = time.monotonic()
                    except TransportError:
                        return False
        with self._state:
            return not self._unacked

    def close(self) -> None:
        """Release underlying resources. Idempotent.

        In retry mode, first waits up to :data:`CLOSE_DRAIN_TIMEOUT` for
        the replay window to drain (recovering if needed) so a graceful
        close never abandons in-flight frames.
        """
        if self._retry is not None and not self._closed:
            self.ensure_delivered(CLOSE_DRAIN_TIMEOUT)
        with self._lock:
            if self._closed:
                return
            self._closed = True
            with self._state:
                self._acks.notify_all()
            self._sever_current()


class TcpListener:
    """Accepts NEPTUNE frame connections and hands frames to a sink.

    The ``sink`` callable receives each decoded :class:`Frame` and MAY
    BLOCK — that is the design: a sink that feeds a gated
    :class:`WatermarkChannel` stops this reader thread, the socket's
    kernel receive buffer fills, and TCP flow control throttles the
    sender.

    Parameters
    ----------
    host, port:
        Bind address; port 0 picks an ephemeral port (see ``port``).
        A host of the form ``"unix:/path"`` binds a Unix-domain socket
        at that path instead (``port`` attribute stays 0, ``host``
        keeps the ``unix:`` form so it can be dialed verbatim).
    sink:
        Callback invoked with each received frame, per connection in
        arrival order.
    recv_buffer:
        ``SO_RCVBUF`` hint; a small kernel buffer makes backpressure
        propagate after less in-flight data.
    ack:
        Send a 12-byte ``(link_id, seq)`` ack record back on the same
        connection after each frame is delivered to the sink (the
        :class:`TcpTransport` retry mode's replay-window pruning
        signal).  Duplicates are re-acked so a sender whose acks were
        lost with the previous connection can still prune.
    resume:
        Carry per-link sequence expectations across connections in a
        shared :class:`SequenceTracker` and *suppress duplicates*
        instead of erroring — required to accept a reconnecting
        transport's replayed window.  Gaps and corrupted frames sever
        the connection, demanding a retransmit, rather than poisoning
        the link forever.
    injector / site:
        Optional receive-side fault injection (connection kills,
        delays), intercepted once per received chunk.
    """

    def __init__(
        self,
        host: str,
        port: int,
        sink: Callable[[Frame], None],
        recv_buffer: int | None = None,
        ack: bool = False,
        resume: bool = False,
        injector=None,
        site: str = "tcp.recv",
    ) -> None:
        self._sink = sink
        self._ack = ack
        self._resume = resume
        self._injector = injector
        self._site = site
        self.tracker = SequenceTracker() if resume else None
        self._unix_path: str | None = (
            host[len(UNIX_PREFIX) :] if is_unix_endpoint(host) else None
        )
        if self._unix_path is not None:
            self._server = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            if recv_buffer is not None:
                self._server.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, recv_buffer)
            # A crashed listener leaves its socket file behind; rebinding
            # the same path must not fail because of that residue.
            try:
                os.unlink(self._unix_path)
            except OSError:
                pass
            try:
                self._server.bind(self._unix_path)
            except OSError as exc:
                self._server.close()
                raise TransportError(f"bind to {host} failed: {exc}") from exc
            self._server.listen(64)
            self.host, self.port = host, 0
        else:
            self._server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            self._server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            if recv_buffer is not None:
                self._server.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, recv_buffer)
            self._server.bind((host, port))
            self._server.listen(64)
            self.host, self.port = self._server.getsockname()[:2]
        self._threads: list[threading.Thread] = []
        self._conns: list[socket.socket] = []
        self._lock = threading.Lock()
        # Resume mode: after a reconnect, the dying connection's reader
        # may still be blocked delivering frame N while the new
        # connection's reader holds replayed N+1 — without per-link
        # serialization the two threads could land frames out of order.
        self._link_locks: dict[int, threading.Lock] = {}
        self._running = True
        self.errors: list[BaseException] = []
        self._error_event = threading.Event()
        # Recovery / chaos observability.
        self.duplicates_suppressed = 0
        self.gap_resets = 0
        self.corruption_resets = 0
        self.injected_resets = 0
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name=f"neptune-tcp-listener-{self.port}", daemon=True
        )
        self._accept_thread.start()

    def wait_error(self, timeout: float | None = None) -> bool:
        """Block until a reader error is recorded (condition-based;
        replaces sleep-polling in tests).  True if one arrived."""
        return self._error_event.wait(timeout)

    def _accept_loop(self) -> None:
        while self._running:
            try:
                conn, _addr = self._server.accept()
            except OSError:
                return  # listener closed
            if self._unix_path is None:
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with self._lock:
                if not self._running:
                    conn.close()
                    return
                self._conns.append(conn)
                t = threading.Thread(
                    target=self._reader_loop,
                    args=(conn,),
                    name=f"neptune-tcp-reader-{self.port}",
                    daemon=True,
                )
                self._threads.append(t)
            t.start()

    def _reader_loop(self, conn: socket.socket) -> None:
        # Per-connection decoder: structural checks always; sequence
        # continuity per-connection in legacy mode, cross-connection
        # via the shared tracker in resume mode.
        decoder = FrameDecoder(verify_sequence=not self._resume)
        try:
            while True:
                chunk = conn.recv(65536)
                if not chunk:
                    return
                if self._injector is not None and self._injector.should_kill_connection(
                    self._site
                ):
                    with self._lock:
                        self.injected_resets += 1
                    return
                for frame in decoder.feed(chunk):
                    if not self._deliver(conn, frame):
                        return  # gap: sever so the sender replays
        except ChannelClosed:
            return
        except OSError:
            return
        except BaseException as exc:  # noqa: BLE001 — surfaced for tests/ops
            # Reader threads run one per connection, concurrently.
            with self._lock:
                self.errors.append(exc)
                if self._resume and isinstance(exc, SerializationError):
                    # Corrupted frame: closing the connection (finally)
                    # makes the sender reconnect and retransmit a clean
                    # copy — checksum + replay self-heals corruption.
                    self.corruption_resets += 1
            self._error_event.set()
        finally:
            conn.close()

    def _deliver(self, conn: socket.socket, frame: Frame) -> bool:
        """Check/sink/ack one frame; False demands a connection reset.

        In resume mode the whole step is atomic per link: a reconnected
        sender's replay (on a fresh reader thread) must not overtake
        the old connection's reader still blocked in the sink.
        """
        if self.tracker is None:
            self._sink(frame)  # may block: that IS backpressure
            self._send_ack(conn, frame)
            return True
        with self._lock:
            lock = self._link_locks.setdefault(frame.link_id, threading.Lock())
        with lock:
            # check -> sink -> commit: the sequence only advances once
            # the sink has the frame.  A sink that raises closes this
            # connection (see _reader_loop); the sender then replays
            # the frame, and it must still be the one expected, not a
            # "duplicate" to ack and drop.
            verdict = self.tracker.check(frame.link_id, frame.seq, commit=False)
            if verdict == SequenceTracker.DUPLICATE:
                # Counters are shared across per-link reader threads;
                # the link lock only serializes one link's deliveries.
                with self._lock:
                    self.duplicates_suppressed += 1
                self._send_ack(conn, frame)  # re-ack lost acks
                return True
            if verdict == SequenceTracker.GAP:
                with self._lock:
                    self.gap_resets += 1
                return False
            self._sink(frame)  # may block: that IS backpressure
            self.tracker.commit(frame.link_id, frame.seq)
            self._send_ack(conn, frame)
            return True

    def _send_ack(self, conn: socket.socket, frame: Frame) -> None:
        if not self._ack:
            return
        try:
            conn.sendall(_ACK.pack(frame.link_id, frame.seq))
        except OSError:
            pass  # connection already dying; sender will replay

    def close(self) -> None:
        """Release underlying resources. Idempotent."""
        with self._lock:
            if not self._running:
                return
            self._running = False
            conns = list(self._conns)
        # accept() does not reliably wake when the listening socket is
        # closed under it; nudge the accept thread with a throwaway
        # connection (it sees _running=False and exits) before closing.
        try:
            host = "127.0.0.1" if self.host == "0.0.0.0" else self.host
            _connect_endpoint(host, self.port, 0.2).close()
        except OSError:
            pass
        self._server.close()
        if self._unix_path is not None:
            try:
                os.unlink(self._unix_path)
            except OSError:
                pass
        for c in conns:
            try:
                c.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            c.close()
        self._accept_thread.join(5.0)
        for t in self._threads:
            t.join(5.0)
