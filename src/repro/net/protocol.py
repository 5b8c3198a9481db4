"""The wire protocol of a link, with no sockets, threads or clocks.

The paper's contract across a socket is exactly-once, in-order delivery
per link (§I-B).  Here it is two state machines, fed bytes and the time
by the transports that own the IO (:mod:`repro.net.transport`).

A :class:`Sender` numbers each link's frames, keeps every frame in a
byte-bounded replay window until a 12-byte ``(link_id, seq)`` ack record
prunes it, and after a reconnect names the frames to replay, oldest
first.  Its verdicts: *wait for window* (:meth:`Sender.window_full`),
*sever* (:meth:`Sender.stalled`: frames outstanding and acks stopped)
and *give up* (:meth:`Sender.retry_at` returns None once the
:class:`RetryPolicy`'s reconnect budget is spent; until then, when to
try again).

A :class:`Receiver` carries each link's next expected sequence number
across connections and classifies every frame: ``DELIVER`` (the next
one: handed to the sink, committed and acked only once the sink took
it), ``DUPLICATE`` (a replay of a delivered frame: suppressed and
re-acked, for a sender whose ack died with the old connection) or
``GAP`` (a frame was lost: no ack, the listener severs, the sender
replays from its oldest unacked frame).  A corrupted frame never
reaches it: the connection's :class:`~repro.net.framing.FrameDecoder`
refuses it and the listener severs, which heals the same way.
"""

from __future__ import annotations

import random
import struct
from collections import deque
from dataclasses import dataclass
from typing import Callable
from zlib import crc32

from repro.net.framing import Frame, FrameEncoder

#: Ack record carried on the reverse path: (link_id, seq) delivered.
ACK = struct.Struct("<IQ")

#: :meth:`Receiver.receive` verdicts.
DELIVER = "deliver"
DUPLICATE = "duplicate"
GAP = "gap"

#: A reconnect backoff's random factor lies in ``1 ± BACKOFF_JITTER``.
BACKOFF_JITTER = 0.25


@dataclass(frozen=True)
class RetryPolicy:
    """Reconnect/retry behaviour of a link's :class:`Sender`.

    Attributes
    ----------
    max_retries:
        Consecutive failed reconnect attempts tolerated before the
        sender gives up.
    backoff_base / backoff_max:
        Exponential backoff: attempt ``n`` sleeps
        ``min(backoff_max, backoff_base * 2**n)`` seconds times a factor
        in ``[1-j, 1+j]`` (``j`` = :data:`BACKOFF_JITTER`) drawn from a
        generator seeded by ``seed`` and the endpoint: reproducible
        under a fixed fault schedule, decorrelated across links.
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
        if self.replay_window_bytes <= 0:
            raise ValueError(
                f"replay_window_bytes must be positive: {self.replay_window_bytes}"
            )

    def backoff(self, attempt: int, rng: random.Random) -> float:
        """Backoff delay before reconnect ``attempt`` (0-based)."""
        raw = min(self.backoff_max, self.backoff_base * (2**attempt))
        return raw * (1.0 - BACKOFF_JITTER + 2.0 * BACKOFF_JITTER * rng.random())


class Sender:
    """Sequence numbers, replay window, acks and backoff of one
    outbound connection (see the module docstring).  Not thread-safe:
    its transport guards every call but :meth:`encode` with one lock."""

    def __init__(self, endpoint: str, retry: RetryPolicy) -> None:
        self.retry = retry
        self._encoder = FrameEncoder()
        # (link_id, seq, wire bytes), in send order across links.
        self._window: deque[tuple[int, int, bytes]] = deque()
        self.window_bytes = 0
        self._acked: dict[int, int] = {}
        self.acked_frames = 0
        self.last_ack_at = 0.0
        # The whole endpoint, through a hash that is stable across
        # processes: concurrent links to one host differ anywhere in
        # it ("…/w0.sock:0" vs "…/w1.sock:0", port 40001 vs 50001).
        self._rng = random.Random(retry.seed ^ crc32(endpoint.encode()))

    @property
    def unacked_frames(self) -> int:
        """Frames in the replay window."""
        return len(self._window)

    def window_full(self, size: int) -> bool:
        """The wait-for-window verdict: a frame of ``size`` wire bytes
        does not fit until acks prune the window."""
        return self.window_bytes + size > self.retry.replay_window_bytes

    def encode(
        self,
        link_id: int,
        body: bytes | bytearray | memoryview,
        count: int,
        trace: bytes = b"",
    ) -> tuple[int, bytes]:
        """Number one batch on ``link_id``: ``(seq, wire bytes)``, one
        materialized copy, so ``body`` may be recycled at once.  Acks
        never touch the sequence counters: a driver that serializes its
        sends may encode outside the lock that guards the window."""
        seq = self._encoder.sequence(link_id)
        return seq, self._encoder.encode(link_id, body, count, trace)

    def keep(self, link_id: int, seq: int, wire: bytes) -> None:
        """Hold an encoded frame for replay, in encode order, until acked."""
        self._window.append((link_id, seq, wire))
        self.window_bytes += len(wire)

    def on_acks(self, buf: bytes | bytearray, now: float) -> int:
        """Apply every whole ack record in ``buf``; prune the window.

        Returns the bytes consumed; a partial record at the end is left
        for the caller to complete with the next read.
        """
        end = len(buf) - len(buf) % ACK.size
        if not end:
            return 0
        acked = self._acked
        for offset in range(0, end, ACK.size):
            link_id, seq = ACK.unpack_from(buf, offset)
            if seq > acked.get(link_id, -1):
                acked[link_id] = seq
        self.last_ack_at = now
        window = self._window
        while window and window[0][1] <= acked.get(window[0][0], -1):
            self.window_bytes -= len(window.popleft()[2])
            self.acked_frames += 1
        return end

    def stalled(self, now: float, stall: float) -> bool:
        """The sever verdict: frames are outstanding and no ack arrived
        for ``stall`` seconds (a frame the network swallowed with no
        later frame to trip the receiver's gap check)."""
        return bool(self._window) and now - self.last_ack_at > stall

    def replay(self) -> list[bytes]:
        """The frames to write on a new connection, oldest first."""
        return [wire for _link, _seq, wire in self._window]

    def connected(self, now: float) -> None:
        """A connection is up and its :meth:`replay` written: the stall
        clock restarts, so a slow replay is not itself a stall."""
        self.last_ack_at = now

    def retry_at(self, failures: int, now: float) -> float | None:
        """After ``failures`` (>= 1) consecutive failed reconnects: when
        to try again, or None — the give-up verdict — once the policy's
        ``max_retries`` is spent.  The first reconnect after a loss is
        immediate, so it has no backoff."""
        if failures > self.retry.max_retries:
            return None
        return now + self.retry.backoff(failures - 1, self._rng)


class _Link:
    __slots__ = ("expected", "delivered", "duplicates", "gaps")

    def __init__(self) -> None:
        self.expected = 0
        self.delivered = 0
        self.duplicates = 0
        self.gaps = 0


class Receiver:
    """Per-link expectations of one listener, across its connections
    (see the module docstring).

    Each link's frames must be received one at a time — the listener holds
    a per-link lock, so a reconnected sender's replay cannot overtake the
    old connection's reader still blocked in the sink — but different
    links may be received concurrently: all state is per link.
    """

    def __init__(self) -> None:
        self._links: dict[int, _Link] = {}

    def receive(self, frame: Frame, sink: Callable[[Frame], None]) -> tuple[str, bytes]:
        """Classify one frame and act on it: ``(verdict, ack bytes)``.

        On ``DELIVER`` the frame goes to ``sink`` first (which may block:
        that is backpressure) and is committed only once the sink
        returned; an exception from the sink propagates with the frame
        still expected.  The ack is empty exactly for a ``GAP``.
        """
        link = self._links.get(frame.link_id)
        if link is None:
            link = self._links.setdefault(frame.link_id, _Link())
        seq = frame.seq
        if seq < link.expected:
            link.duplicates += 1
            return DUPLICATE, ACK.pack(frame.link_id, seq)
        if seq > link.expected:
            link.gaps += 1
            return GAP, b""
        sink(frame)
        link.expected = seq + 1
        link.delivered += 1
        return DELIVER, ACK.pack(frame.link_id, seq)

    def expected(self, link_id: int) -> int:
        """Next sequence number that will be delivered on ``link_id``."""
        link = self._links.get(link_id)
        return 0 if link is None else link.expected

    @property
    def delivered(self) -> int:
        """Frames handed to the sink, over all links."""
        return sum(link.delivered for link in list(self._links.values()))

    @property
    def duplicates(self) -> int:
        """Replayed frames suppressed (and re-acked), over all links."""
        return sum(link.duplicates for link in list(self._links.values()))

    @property
    def gaps(self) -> int:
        """Frames refused as skipping ahead, over all links."""
        return sum(link.gaps for link in list(self._links.values()))
