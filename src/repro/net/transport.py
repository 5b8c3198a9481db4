"""Transport endpoints: the sockets and threads around the wire protocol.

A transport moves one flushed buffer (a batch of serialized stream
packets for one link) to a receiving resource: :class:`TcpTransport` /
:class:`TcpListener`, over TCP or a Unix-domain socket.  The listener's
reader thread blocks on the gated inbound channel, the kernel receive
buffer fills, the TCP window closes, and the sender's blocking
``sendall`` stalls — the paper's TCP-flow-control leg of backpressure.
(Operators of the *same* resource need no transport: see
:func:`repro.core.runtime._local_leg`.)

The protocol — sequence numbers, acks, replay, duplicates, gaps and
backoff — is :mod:`repro.net.protocol`.  This module owns the sockets,
threads, locks and clock that drive its
:class:`~repro.net.protocol.Sender` and :class:`~repro.net.protocol.Receiver`;
the listener's accept loop is :class:`repro.net.server.SocketServer`.
"""

from __future__ import annotations

import contextlib
import socket
import threading
import time
from typing import Callable, NoReturn

from repro.net.flowcontrol import ChannelClosed
from repro.net.framing import HEADER_SIZE, Frame, FrameDecoder
from repro.net.protocol import GAP, Receiver, RetryPolicy, Sender
from repro.net.server import UNIX_PREFIX, SocketServer, is_unix_endpoint
from repro.util.clock import timed_acquire
from repro.util.errors import SerializationError, TransportError

#: Seconds a graceful :meth:`TcpTransport.close` waits for the replay
#: window to drain.
CLOSE_DRAIN_TIMEOUT = 5.0


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


#: Longest one ``send`` waits for replay-window space (acks).
SEND_TIMEOUT = 10.0
#: ``SO_RCVBUF`` of a :class:`TcpListener`; None keeps the kernel's.
RECV_BUFFER: int | None = None


class TcpTransport:
    """Blocking TCP client carrying NEPTUNE frames.

    One instance per (sender resource → receiver resource) pair; all
    links between the pair multiplex over the single connection, which
    is how NEPTUNE amortizes connection state.  ``send`` is serialized
    by a lock so frame bytes from concurrent flushes never interleave.
    On connection loss it reconnects and replays the unacked frames.

    Parameters
    ----------
    host, port:
        Destination listener.  A host of the form ``"unix:/path"``
        connects to that Unix-domain socket instead (port ignored).
    connect_timeout:
        Bound on the *initial* connection attempt (reconnects use the
        retry policy's backoff schedule).
    retry:
        Reconnect budget, backoff and replay window size.
    injector:
        Optional :class:`~repro.chaos.injector.FaultInjector`; every
        *first-time* frame send is intercepted at ``site`` (replays are
        never re-injected, so a fault plan addresses stable frame
        ordinals).
    site:
        Injection site name recorded in fault traces.
    on_link_failure:
        Callback fired (with the terminal exception) when the retry
        budget is exhausted and the link is declared dead.  An exception
        it raises is counted in :attr:`link_failure_callback_errors`
        (the last one kept in :attr:`last_link_failure_callback_error`)
        and does not mask the transport's own error.
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
        retry: RetryPolicy = RetryPolicy(),
        injector=None,
        site: str = "tcp.send",
        on_link_failure: Callable[[BaseException], None] | None = None,
        observer=None,
    ) -> None:
        self._host = host
        self._port = port
        self._endpoint = f"{host}:{port}"
        self._connect_timeout = connect_timeout
        self._injector = injector
        self._site = site
        self._on_link_failure = on_link_failure
        self._observer = observer
        self._sender = Sender(self._endpoint, retry)
        self._lock = threading.Lock()  # serializes writes + recovery
        self._state = threading.Lock()  # guards the sender
        self._acks = threading.Condition(self._state)
        self._closed = False
        self._conn_dead = False
        self._conn_gen = 0
        try:
            self._sock = _connect_endpoint(host, port, connect_timeout)
        except OSError as exc:
            raise TransportError(f"connect to {host}:{port} failed: {exc}") from exc
        self._sock.settimeout(None)
        self._sender.connected(time.monotonic())
        self.bytes_sent = 0
        self.frames_sent = 0
        self.reconnects = 0
        self.replayed_frames = 0
        self.send_stalls = 0
        self.link_failure_callback_errors = 0
        self.last_link_failure_callback_error: BaseException | None = None
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
        buf = bytearray()
        try:
            while True:
                chunk = sock.recv(4096)
                if not chunk:
                    break
                buf += chunk
                with self._state:
                    used = self._sender.on_acks(buf, time.monotonic())
                    if used:
                        self._acks.notify_all()
                del buf[:used]
        except OSError:
            pass
        # This connection is gone.  If it is still the current one,
        # flag it and recover, so a receiver-driven reset replays with
        # no new send in flight - unless the window is empty: an idle
        # connection dying is how a peer shuts down, not a fault.
        with self._state:
            if self._conn_gen != gen or self._closed:
                return
            self._conn_dead = True
            has_unacked = bool(self._sender.unacked_frames)
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
        copied it into the replay window by the time ``send`` returns,
        so the caller may recycle it immediately.  ``trace`` is an
        opaque observe trace block that must ride the frame to the
        receiver (see :mod:`repro.observe.tracing`).  ``on_wait`` is
        told the seconds of every wait for the receiver this send went
        through (a gated channel, a full replay window, another send
        held up by one); the time to move the bytes is not a wait.
        """
        # Sends are serialized: behind one that waits for window space,
        # every other leg to this peer waits here.
        waited = timed_acquire(self._lock, time.monotonic)
        if waited and on_wait is not None:
            on_wait(waited)
        try:
            if self._closed:
                raise TransportError("send on closed transport")
            if self._conn_dead:
                self._recover()
            # Reserve window space BEFORE assigning the sequence
            # number: a window timeout must not strand a gap in the
            # link's sequence space.
            self._wait_window(HEADER_SIZE + len(trace) + len(body), on_wait)
            seq, wire = self._sender.encode(link_id, body, count, trace)
            with self._state:
                self._sender.keep(link_id, seq, wire)
            chunks, kill_after = [wire], False
            if self._injector is not None:
                chunks, kill_after, _ = self._injector.apply_to_wire(self._site, wire)
            try:
                for chunk in chunks:
                    self._sock.sendall(chunk)
                if kill_after:
                    self._sever_current()
                    raise OSError("connection severed by fault injection")
            except OSError:
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
        deadline = time.monotonic() + SEND_TIMEOUT
        stalled_at: float | None = None
        with self._state:
            while self._sender.window_full(incoming):
                if self._conn_dead:
                    break  # recover (with the lock held by our caller)
                if stalled_at is None:
                    stalled_at = time.monotonic()
                    self.send_stalls += 1
                remaining = min(0.05, deadline - time.monotonic())
                if remaining <= 0:
                    raise TransportError(
                        f"replay window full for {SEND_TIMEOUT}s "
                        f"({self._sender.window_bytes} unacked bytes): "
                        "receiver not acking"
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
                    endpoint=self._endpoint,
                    stalled_seconds=stalled,
                    window_bytes=self._sender.retry.replay_window_bytes,
                )
        if self._conn_dead:
            self._recover()

    def _sever_current(self) -> None:
        """Hard-close the current socket (fault injection / recovery)."""
        with contextlib.suppress(OSError):
            self._sock.shutdown(socket.SHUT_RDWR)
        with contextlib.suppress(OSError):
            self._sock.close()

    # -- recovery ------------------------------------------------------------
    def _recover(self) -> None:
        """Reconnect with backoff and replay the unacked window.

        Caller must hold ``_lock``.  Raises :class:`TransportError`
        (after firing ``on_link_failure``) when the retry budget is
        exhausted.
        """
        self._sever_current()
        failures = 0
        retry_at = time.monotonic()  # the first reconnect is immediate
        while True:
            if self._closed:
                raise TransportError("transport closed during recovery")
            delay = retry_at - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            try:
                sock = _connect_endpoint(self._host, self._port, self._connect_timeout)
                sock.settimeout(None)
                with self._state:
                    replay = self._sender.replay()
                    self._sock = sock
                    self._conn_gen += 1
                    gen = self._conn_gen
                    self._conn_dead = False
                self._start_ack_reader(sock, gen)
                # Replays bypass the injector: fault plans address
                # first-time sends only, keeping traces deterministic.
                for wire in replay:
                    sock.sendall(wire)
                with self._state:
                    self._sender.connected(time.monotonic())
                    self.reconnects += 1
                    self.replayed_frames += len(replay)
                if self._observer is not None:
                    self._observer.event(
                        "transport",
                        "reconnect",
                        endpoint=self._endpoint,
                        attempts=failures + 1,
                        replayed_frames=len(replay),
                    )
                return
            except OSError as exc:
                failures += 1
                next_at = self._sender.retry_at(failures, time.monotonic())
                if next_at is None:
                    self._declare_dead(exc)
                retry_at = next_at

    def _declare_dead(self, exc: BaseException) -> NoReturn:
        err = TransportError(
            f"link to {self._endpoint} lost: "
            f"{self._sender.retry.max_retries} reconnect attempts failed: {exc}"
        )
        if self._observer is not None:
            self._observer.event(
                "transport",
                "link_failed",
                endpoint=self._endpoint,
                error=str(exc),
            )
        if self._on_link_failure is not None:
            try:
                self._on_link_failure(err)
            except Exception as callback_exc:
                with self._state:
                    self.link_failure_callback_errors += 1
                    self.last_link_failure_callback_error = callback_exc
        raise err from exc

    # -- delivery assurance -----------------------------------------------
    @property
    def acked_frames(self) -> int:
        """Frames the receiver acknowledged."""
        return self._sender.acked_frames

    @property
    def unacked_frames(self) -> int:
        """Frames sent but not yet acknowledged."""
        return self._sender.unacked_frames

    @property
    def unacked_bytes(self) -> int:
        """Bytes in the replay window awaiting acknowledgement."""
        return self._sender.window_bytes

    def ensure_delivered(self, timeout: float = 10.0, stall: float = 0.5) -> bool:
        """Block until every sent frame is acknowledged.

        Recovers (reconnect + replay) if the connection dies — or if
        ack progress stalls for ``stall`` seconds, which heals frames
        the network swallowed without killing the connection (e.g. an
        injected ``drop`` on the final frame, with no later frame to
        trip the receiver's gap detection).  Returns True when the
        window drained, False on timeout or terminal link failure.
        """
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self._state:
                if not self._sender.unacked_frames:
                    return True
                sever = self._sender.stalled(time.monotonic(), stall)
                if not (self._conn_dead or sever):
                    self._acks.wait(0.05)
                    continue
            with self._lock:
                if self._closed:
                    return False
                with self._state:  # again: a recovery may have run meanwhile
                    now = time.monotonic()
                    sever = self._conn_dead or self._sender.stalled(now, stall)
                try:
                    if sever:
                        self._recover()
                except TransportError:
                    return False
        return not self._sender.unacked_frames

    def close(self) -> None:
        """Release underlying resources. Idempotent.

        First waits up to :data:`CLOSE_DRAIN_TIMEOUT` for the replay
        window to drain (recovering if needed) so a graceful close never
        abandons in-flight frames.
        """
        if not self._closed:
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

    The ``sink`` callable receives each frame to deliver and MAY BLOCK —
    that is the design: a sink that feeds a gated
    :class:`WatermarkChannel` stops this reader thread, the socket's
    kernel receive buffer fills, and TCP flow control throttles the
    sender.  :attr:`receiver` (a :class:`~repro.net.protocol.Receiver`)
    classifies each frame; its ack goes back on the same connection,
    and a gap or a corrupted frame severs it.

    Parameters
    ----------
    host, port:
        Bind address; port 0 picks an ephemeral port (see ``port``).
        A host of the form ``"unix:/path"`` binds a Unix-domain socket
        at that path instead (``port`` attribute stays 0, ``host``
        keeps the ``unix:`` form so it can be dialed verbatim).
    sink:
        Called with each frame to deliver, per link in sequence order.
    ack, resume:
        Accepted only as True: every listener acks and resumes.
    injector / site:
        Optional receive-side fault injection (connection kills,
        delays), intercepted once per received chunk.
    """

    def __init__(
        self,
        host: str,
        port: int,
        sink: Callable[[Frame], None],
        ack: bool = True,
        resume: bool = True,
        injector=None,
        site: str = "tcp.recv",
    ) -> None:
        if ack is not True or resume is not True:
            raise ValueError(
                f"a listener always acks and resumes: ack={ack!r}, resume={resume!r}"
            )
        self._sink = sink
        self._injector = injector
        self._site = site
        self.receiver = Receiver()
        self._lock = threading.Lock()
        # After a reconnect, the dying connection's reader may still be
        # blocked delivering frame N while the new connection's reader
        # holds replayed N+1: each link's frames are received under its
        # own lock, so the two threads cannot land them out of order.
        self._link_locks: dict[int, threading.Lock] = {}
        self.errors: list[BaseException] = []
        self._error_event = threading.Event()
        # Recovery / chaos observability.
        self.corruption_resets = 0
        self.injected_resets = 0
        self._server = SocketServer(
            host, port, self._reader_loop, "neptune-tcp-listener", RECV_BUFFER
        )
        self.host, self.port = self._server.host, self._server.port

    @property
    def duplicates_suppressed(self) -> int:
        """Replayed frames suppressed (and re-acked) as duplicates."""
        return self.receiver.duplicates

    @property
    def gap_resets(self) -> int:
        """Connections severed because a frame skipped ahead."""
        return self.receiver.gaps

    def wait_error(self, timeout: float | None = None) -> bool:
        """Block until a reader error is recorded (condition-based;
        replaces sleep-polling in tests).  True if one arrived."""
        return self._error_event.wait(timeout)

    def _reader_loop(self, conn: socket.socket) -> None:
        decoder = FrameDecoder()  # structural checks, per connection
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
                    with self._lock:
                        lock = self._link_locks.setdefault(frame.link_id, threading.Lock())
                    with lock:
                        verdict, ack = self.receiver.receive(frame, self._sink)
                        try:
                            conn.sendall(ack)
                        except OSError:
                            pass  # the connection is dying; the sender replays
                    if verdict == GAP:
                        return  # sever so the sender replays
        except ChannelClosed:
            return
        except OSError:
            return
        except BaseException as exc:  # noqa: BLE001 — surfaced for tests/ops
            # Reader threads run one per connection, concurrently.
            with self._lock:
                self.errors.append(exc)
                if isinstance(exc, SerializationError):
                    # Corrupted frame: the server closes the connection
                    # once this returns, so the sender reconnects and
                    # retransmits a clean copy — checksum + replay
                    # self-heals corruption.
                    self.corruption_resets += 1
            self._error_event.set()

    def close(self) -> None:
        """Stop accepting, sever every open connection and join the
        reader threads.  Idempotent."""
        self._server.close()
